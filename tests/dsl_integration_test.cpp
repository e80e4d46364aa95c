// End-to-end DSL tests: the full pipeline (parse -> expand -> Euler ->
// classify -> compile -> execute) on physics with known behaviour, plus
// cross-target consistency (serial / threaded / simulated-GPU bitwise
// identical) and loop-order invariance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <random>
#include <set>
#include <thread>
#include <tuple>
#include <utility>

#include "bc_field_probe.hpp"
#include "core/codegen/step_solver_base.hpp"
#include "core/dsl/problem.hpp"
#include "mesh/mesh.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"

using namespace finch;
using dsl::Problem;
using dsl::Target;

namespace {

// Total extensive quantity sum(u*V) over the mesh.
double total_content(const Problem& p, const std::string& var) {
  const auto& f = p.fields().get(var);
  double total = 0;
  for (int32_t c = 0; c < f.num_cells(); ++c)
    for (int32_t d = 0; d < f.dof_per_cell(); ++d) total += f.at(c, d) * p.mesh().cell_volume(c);
  return total;
}

}  // namespace

TEST(DslPipeline, PureDecayMatchesAnalyticEuler) {
  // du/dt = -k u  ->  u_n = u0 (1 - k dt)^n exactly in Euler arithmetic.
  Problem p("decay");
  p.set_mesh(mesh::Mesh::structured_quad(3, 3, 1.0, 1.0));
  p.set_steps(0.01, 1);
  p.variable("u");
  p.coefficient("k", 2.0);
  p.conservation_form("u", "-k*u");
  p.initial("u", [](int32_t, std::span<const int32_t>) { return 5.0; });
  auto solver = p.compile(Target::CpuSerial);
  solver->run(10);
  const double expect = 5.0 * std::pow(1.0 - 2.0 * 0.01, 10);
  for (int32_t c = 0; c < 9; ++c) EXPECT_DOUBLE_EQ(p.fields().get("u").at(c, 0), expect);
}

TEST(DslPipeline, UniformFieldIsAdvectionFixedPoint) {
  // Constant u advected by constant velocity stays constant when the inflow
  // ghost value equals the constant.
  Problem p("adv-const");
  p.set_mesh(mesh::Mesh::structured_quad(6, 6, 1.0, 1.0));
  p.set_steps(0.001, 1);
  p.variable("u");
  p.coefficient("bx", 1.0);
  p.coefficient("by", 0.5);
  p.conservation_form("u", "-surface(upwind([bx; by], u))");
  p.initial("u", [](int32_t, std::span<const int32_t>) { return 3.0; });
  for (int region = 1; region <= 4; ++region)
    p.boundary("u", region, dsl::BcType::Value, "const3",
               [](const fvm::BoundaryContext&, std::span<double> out) { std::ranges::fill(out, 3.0); });
  auto solver = p.compile(Target::CpuSerial);
  solver->run(20);
  for (int32_t c = 0; c < 36; ++c) EXPECT_NEAR(p.fields().get("u").at(c, 0), 3.0, 1e-12);
}

TEST(DslPipeline, ZeroFluxBoundariesConserveMass) {
  // With all-walls zero-flux (default when no BC given), advection only
  // redistributes: sum(u V) is conserved to round-off.
  Problem p("adv-conserve");
  p.set_mesh(mesh::Mesh::structured_quad(8, 8, 1.0, 1.0));
  p.set_steps(0.002, 1);
  p.variable("u");
  p.coefficient("bx", 0.7);
  p.coefficient("by", -0.3);
  p.conservation_form("u", "-surface(upwind([bx; by], u))");
  p.initial("u", [](int32_t c, std::span<const int32_t>) { return c % 5 == 0 ? 2.0 : 0.5; });
  auto solver = p.compile(Target::CpuSerial);
  const double before = total_content(p, "u");
  solver->run(50);
  EXPECT_NEAR(total_content(p, "u"), before, 1e-10 * std::abs(before));
}

TEST(DslPipeline, UpwindTransportMovesFrontDownstream) {
  // A left-block profile advected right at speed 1: after t = 0.25, the front
  // has moved right; upwind keeps the solution monotone in [0,1].
  const int n = 20;
  Problem p("adv-front");
  p.set_mesh(mesh::Mesh::structured_quad(n, 1, 1.0, 1.0 / n));
  p.set_steps(0.4 / n, 1);  // CFL 0.4
  p.variable("u");
  p.coefficient("bx", 1.0);
  p.coefficient("by", 0.0);
  p.conservation_form("u", "-surface(upwind([bx; by], u))");
  p.initial("u", [n](int32_t c, std::span<const int32_t>) { return (c % n) < n / 4 ? 1.0 : 0.0; });
  p.boundary("u", 3, dsl::BcType::Value, "inflow1",
             [](const fvm::BoundaryContext&, std::span<double> out) { std::ranges::fill(out, 1.0); });
  auto solver = p.compile(Target::CpuSerial);
  solver->run(13);  // ~0.26 time units
  const auto& u = p.fields().get("u");
  // Monotone non-increasing left-to-right, bounded in [0,1].
  for (int c = 0; c + 1 < n; ++c) {
    EXPECT_GE(u.at(c, 0) + 1e-12, u.at(c + 1, 0));
    EXPECT_GE(u.at(c, 0), -1e-12);
    EXPECT_LE(u.at(c, 0), 1.0 + 1e-12);
  }
  // The front (u=0.5 crossing) moved from x~0.25 to x~0.5.
  int front = 0;
  for (int c = 0; c < n; ++c)
    if (u.at(c, 0) > 0.5) front = c;
  EXPECT_GT(front, n / 4);
  EXPECT_LT(front, 3 * n / 4);
}

TEST(DslPipeline, IndexedSystemDecaysPerBand) {
  // dI[d,b]/dt = (0 - I) * beta[b]: each band decays at its own rate.
  Problem p("bands");
  p.set_mesh(mesh::Mesh::structured_quad(2, 2, 1.0, 1.0));
  p.set_steps(0.01, 1);
  p.index("d", 1, 3);
  p.index("b", 1, 2);
  p.variable("I", {"d", "b"});
  p.variable("Io", {"b"});
  p.variable("beta", {"b"});
  p.conservation_form("I", "(Io[b] - I[d,b]) * beta[b]");
  p.initial("I", [](int32_t, std::span<const int32_t>) { return 1.0; });
  p.initial("Io", [](int32_t, std::span<const int32_t>) { return 0.0; });
  p.initial("beta", [](int32_t, std::span<const int32_t> idx) { return idx[0] == 0 ? 1.0 : 3.0; });
  auto solver = p.compile(Target::CpuSerial);
  solver->run(5);
  const auto& I = p.fields().get("I");
  const double e1 = std::pow(1.0 - 0.01 * 1.0, 5), e3 = std::pow(1.0 - 0.01 * 3.0, 5);
  for (int32_t c = 0; c < 4; ++c)
    for (int d = 0; d < 3; ++d) {
      EXPECT_NEAR(I.at(c, d + 3 * 0), e1, 1e-14);  // band 0 (dof = d + Nd*b)
      EXPECT_NEAR(I.at(c, d + 3 * 1), e3, 1e-14);  // band 1
    }
}

TEST(DslPipeline, AssemblyLoopOrderDoesNotChangeResults) {
  auto run_with_order = [](std::vector<std::string> order) {
    Problem p("perm");
    p.set_mesh(mesh::Mesh::structured_quad(4, 3, 1.0, 1.0));
    p.set_steps(0.005, 1);
    p.index("d", 1, 2);
    p.index("b", 1, 3);
    p.variable("I", {"d", "b"});
    p.variable("Io", {"b"});
    p.variable("beta", {"b"});
    p.coefficient("Sx", {1.0, -1.0}, {"d"});
    p.coefficient("Sy", {0.5, 0.5}, {"d"});
    p.coefficient("vg", {1.0, 2.0, 0.5}, {"b"});
    p.conservation_form("I", "(Io[b]-I[d,b])*beta[b] - surface(vg[b]*upwind([Sx[d];Sy[d]], I[d,b]))");
    p.initial("I", [](int32_t c, std::span<const int32_t> idx) {
      return 1.0 + 0.1 * c + 0.01 * idx[0] + 0.002 * idx[1];
    });
    p.initial("Io", [](int32_t, std::span<const int32_t>) { return 0.5; });
    p.initial("beta", [](int32_t, std::span<const int32_t>) { return 2.0; });
    if (!order.empty()) p.assembly_loops(std::move(order));
    auto solver = p.compile(Target::CpuSerial);
    solver->run(4);
    std::vector<double> out(p.fields().get("I").data().begin(), p.fields().get("I").data().end());
    return out;
  };
  auto base = run_with_order({});
  EXPECT_EQ(base, run_with_order({"b", "cells", "d"}));
  EXPECT_EQ(base, run_with_order({"d", "b", "cells"}));
  EXPECT_EQ(base, run_with_order({"cells", "b", "d"}));
}

TEST(DslPipeline, AssemblyLoopsNameEachLoopOnce) {
  auto compile_with_order = [](std::vector<std::string> order) {
    Problem p("dup");
    p.set_mesh(mesh::Mesh::structured_quad(2, 2, 1.0, 1.0));
    p.set_steps(0.005, 1);
    p.index("d", 1, 2);
    p.index("b", 1, 3);
    p.variable("I", {"d", "b"});
    p.conservation_form("I", "-I[d,b]");
    p.assembly_loops(std::move(order));
    p.compile(Target::CpuSerial);
  };
  // Same length as a full nest, but "b" is never looped over.
  EXPECT_THROW(compile_with_order({"cells", "d", "d"}), std::invalid_argument);
  EXPECT_THROW(compile_with_order({"cells", "cells", "d"}), std::invalid_argument);
  EXPECT_NO_THROW(compile_with_order({"d", "cells", "b"}));
}

TEST(DslPipeline, ThreadedTargetMatchesSerialBitwise) {
  auto build = [](rt::ThreadPool* pool) {
    auto p = std::make_unique<Problem>("mt");
    p->set_mesh(mesh::Mesh::structured_quad(6, 6, 1.0, 1.0));
    p->set_steps(0.002, 1);
    p->index("d", 1, 4);
    p->variable("I", {"d"});
    p->coefficient("Sx", {1.0, -1.0, 0.0, 0.5}, {"d"});
    p->coefficient("Sy", {0.0, 0.5, -1.0, 0.5}, {"d"});
    p->coefficient("vg", 1.5);
    p->conservation_form("I", "-surface(vg*upwind([Sx[d];Sy[d]], I[d]))");
    p->initial("I", [](int32_t c, std::span<const int32_t> idx) { return std::sin(c + idx[0]); });
    if (pool != nullptr) p->use_threads(pool);
    return p;
  };
  auto ps = build(nullptr);
  auto ss = ps->compile();
  ss->run(10);

  rt::ThreadPool pool(4);
  auto pt = build(&pool);
  auto st = pt->compile();
  st->run(10);

  auto a = ps->fields().get("I").data();
  auto b = pt->fields().get("I").data();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
}

TEST(DslPipeline, GpuTargetMatchesSerialBitwise) {
  auto build = [](rt::SimGpu* gpu) {
    auto p = std::make_unique<Problem>("gpu");
    p->set_mesh(mesh::Mesh::structured_quad(5, 5, 1.0, 1.0));
    p->set_steps(0.002, 1);
    p->index("d", 1, 3);
    p->variable("I", {"d"});
    p->coefficient("Sx", {1.0, -0.5, 0.25}, {"d"});
    p->coefficient("Sy", {0.5, 1.0, -0.75}, {"d"});
    p->conservation_form("I", "-surface(upwind([Sx[d];Sy[d]], I[d]))");
    p->initial("I", [](int32_t c, std::span<const int32_t> idx) { return 1.0 + 0.3 * c - 0.1 * idx[0]; });
    p->boundary("I", 1, dsl::BcType::Value, "zero",
                [](const fvm::BoundaryContext&, std::span<double> out) { std::ranges::fill(out, 0.0); });
    if (gpu != nullptr) p->use_cuda(gpu);
    return p;
  };
  auto ps = build(nullptr);
  ps->compile()->run(8);

  rt::SimGpu gpu(rt::GpuSpec::a6000());
  auto pg = build(&gpu);
  pg->compile()->run(8);

  auto a = ps->fields().get("I").data();
  auto b = pg->fields().get("I").data();
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
  // The device did real work and real transfers.
  EXPECT_GT(gpu.counters().kernel_launches, 0);
  EXPECT_GT(gpu.counters().bytes_d2h, 0);
}

TEST(DslPipeline, BoundaryContextCarriesTheRegisteredFieldOnVmAndGpu) {
  using finch::test_support::FieldProbe;
  FieldProbe vm;
  auto pv = finch::test_support::coupled_problem(dsl::Backend::Vm, vm);
  pv->compile(Target::CpuSerial)->run(3);

  FieldProbe dev;
  rt::SimGpu gpu(rt::GpuSpec::a6000());
  auto pg = finch::test_support::coupled_problem(dsl::Backend::Vm, dev);
  pg->use_cuda(&gpu);
  pg->compile()->run(3);

  for (const FieldProbe* probe : {&vm, &dev}) {
    for (int t = 0; t < 2; ++t) {
      EXPECT_GT(probe->calls[t], 0) << (probe == &vm ? "vm" : "gpu") << " type " << t;
      EXPECT_EQ(probe->wrong[t], 0) << (probe == &vm ? "vm" : "gpu") << " type " << t;
    }
  }
  // The two paths see the same fields, so they agree bit for bit.
  for (const char* var : {"u", "v"}) {
    auto a = pv->fields().get(var).data();
    auto b = pg->fields().get(var).data();
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << var << " " << i;
  }
}

// Boundary callbacks run serially on the thread that steps the solver: the
// fill before each sweep calls them, and the pool's workers only read the
// filled values. CI's TSan job runs this test (its name has "Threaded").
TEST(DslPipeline, ThreadedVmRunsBoundaryCallbacksOnTheCallingThread) {
  finch::test_support::FieldProbe probe;
  auto p = finch::test_support::coupled_problem(dsl::Backend::Vm, probe);
  rt::ThreadPool pool(4);
  p->use_threads(&pool);
  p->compile(Target::CpuThreads)->run(3);
  EXPECT_GT(probe.calls[0] + probe.calls[1], 0);
  EXPECT_EQ(probe.threads, std::set<std::thread::id>{std::this_thread::get_id()});
}

// vm.evals counts the evaluations a sweep runs: one volume eval per DOF plus
// one surface eval per interior face visit and per value-BC face. Flux-BC
// faces and BC-less walls never run the surface program. On a 3x3 mesh with
// a value BC on ymin, a flux BC on ymax and no BC on the x walls that is
// 9 + 24 + 3 = 36, the guard's own count.
TEST(DslPipeline, VmEvalsCountTheEvaluationsTheSweepRuns) {
  Problem p("evals");
  p.set_mesh(mesh::Mesh::structured_quad(3, 3, 1.0, 1.0));
  p.set_steps(0.01, 1);
  p.variable("u");
  p.coefficient("bx", 1.0);
  p.coefficient("by", 0.5);
  p.conservation_form("u", "-surface(upwind([bx; by], u))");
  p.initial("u", [](int32_t c, std::span<const int32_t>) { return 1.0 + 0.1 * c; });
  p.boundary("u", 1, dsl::BcType::Value, "inflow",
             [](const fvm::BoundaryContext&, std::span<double> out) { std::ranges::fill(out, 2.0); });
  p.boundary("u", 2, dsl::BcType::Flux, "outflow",
             [](const fvm::BoundaryContext&, std::span<double> out) { std::ranges::fill(out, 0.5); });
  auto solver = p.compile(Target::CpuSerial);
  solver->enable_nonfinite_guard();
  rt::Counter& evals = rt::MetricsRegistry::global().counter("vm.evals");
  const double before = evals.value();
  solver->step();
  EXPECT_EQ(solver->nonfinite_report().evals, 36);
  EXPECT_EQ(evals.value() - before, 36.0);
}

namespace {

// A 5x5 upwind problem with a value BC on ymin, a flux BC on xmin and a
// volume term that divides by the cell field w.
std::unique_ptr<Problem> gpu_check_problem(rt::SimGpu* gpu, std::function<double(int32_t)> w) {
  auto p = std::make_unique<Problem>("gpu-check");
  p->set_mesh(mesh::Mesh::structured_quad(5, 5, 1.0, 1.0));
  p->set_steps(0.002, 1);
  p->index("d", 1, 3);
  p->variable("I", {"d"});
  p->variable("w");
  p->coefficient("Sx", {1.0, -0.5, 0.25}, {"d"});
  p->coefficient("Sy", {0.5, 1.0, -0.75}, {"d"});
  p->conservation_form("I", "(1 - I[d]) / w - surface(upwind([Sx[d];Sy[d]], I[d]))");
  p->initial("I", [](int32_t c, std::span<const int32_t> idx) { return 1.0 + 0.3 * c - 0.1 * idx[0]; });
  p->initial("w", [w](int32_t c, std::span<const int32_t>) { return w(c); });
  p->boundary("I", 1, dsl::BcType::Value, "zero",
              [](const fvm::BoundaryContext&, std::span<double> out) { std::ranges::fill(out, 0.0); });
  p->boundary("I", 3, dsl::BcType::Flux, "leak",
              [](const fvm::BoundaryContext& ctx, std::span<double> out) {
                for (size_t dof = 0; dof < out.size(); ++dof)
                  out[dof] = 0.2 + 0.1 * static_cast<int32_t>(dof % static_cast<size_t>(ctx.extent[0]));
              });
  if (gpu != nullptr) p->use_cuda(gpu);
  return p;
}

}  // namespace

// The GPU target sweeps interior and boundary cells separately; per step it
// must count the CPU target's vm.evals and vm.flops exactly.
TEST(DslPipeline, GpuTargetCountsTheCpuTargetsVmEvals) {
  auto& mx = rt::MetricsRegistry::global();
  auto per_step = [&mx](rt::SimGpu* gpu) {
    auto p = gpu_check_problem(gpu, [](int32_t c) { return 1.0 + 0.01 * c; });
    auto solver = p->compile();
    const double evals = mx.counter("vm.evals").value(), flops = mx.counter("vm.flops").value();
    solver->step();
    return std::make_pair(mx.counter("vm.evals").value() - evals, mx.counter("vm.flops").value() - flops);
  };
  rt::SimGpu gpu(rt::GpuSpec::a6000());
  const auto cpu = per_step(nullptr);
  const auto dev = per_step(&gpu);
  EXPECT_GT(cpu.first, 0.0);
  EXPECT_EQ(dev.first, cpu.first);
  EXPECT_EQ(dev.second, cpu.second);
}

// With the guard armed, the GPU target reports what the serial VM reports.
// w is zero in boundary cell 1 and interior cell 12, so the volume divide
// goes non-finite in every direction of both. The GPU target sweeps the
// interior first, yet must name cell 1, the offender a serial walk meets
// first.
TEST(DslPipeline, GpuTargetGuardReportEqualsTheSerialVms) {
  auto w = [](int32_t c) { return c == 1 || c == 12 ? 0.0 : 1.0; };
  auto ps = gpu_check_problem(nullptr, w);
  auto ss = ps->compile();
  ss->enable_nonfinite_guard();
  ss->run(1);
  rt::SimGpu gpu(rt::GpuSpec::a6000());
  auto pg = gpu_check_problem(&gpu, w);
  auto sg = pg->compile();
  sg->enable_nonfinite_guard();
  sg->run(1);

  const dsl::NonFiniteReport& want = ss->nonfinite_report();
  const dsl::NonFiniteReport& got = sg->nonfinite_report();
  EXPECT_GT(want.evals, 0);
  EXPECT_EQ(want.nonfinite_results, 2 * 3);
  EXPECT_EQ(want.first_cell, 1);
  EXPECT_EQ(got.evals, want.evals);
  EXPECT_EQ(got.nonfinite_results, want.nonfinite_results);
  EXPECT_EQ(got.first_cell, want.first_cell);
  EXPECT_EQ(got.detail, want.detail);
}

// The interior launch's body runs on the host thread, but its time is the
// device's: the GPU target bills the host only for its fill and its
// boundary-cell sweep, and phases().compute is the larger of that and the
// modeled kernel. On a 48x48 mesh (2116 interior cells, 188 boundary ones)
// the host's share of the VM's sweep time is about a twelfth, so compute
// stays far below half of it.
TEST(DslPipeline, GpuTargetBillsTheHostOnlyForItsOwnWork) {
  rt::SimGpu gpu(rt::GpuSpec::a6000());
  Problem p("gpu-billing");
  p.set_mesh(mesh::Mesh::structured_quad(48, 48, 1.0, 1.0));
  p.set_steps(0.001, 1);
  p.execution_backend(dsl::Backend::Vm);
  p.index("d", 1, 8);
  p.variable("I", {"d"});
  p.coefficient("Sx", {1.0, 0.7, 0.0, -0.7, -1.0, -0.7, 0.0, 0.7}, {"d"});
  p.coefficient("Sy", {0.0, 0.7, 1.0, 0.7, 0.0, -0.7, -1.0, -0.7}, {"d"});
  p.conservation_form("I", "-surface(upwind([Sx[d];Sy[d]], I[d]))");
  p.initial("I", [](int32_t c, std::span<const int32_t> idx) { return 1.0 + 0.001 * c - 0.1 * idx[0]; });
  p.boundary("I", 1, dsl::BcType::Value, "zero",
             [](const fvm::BoundaryContext&, std::span<double> out) { std::ranges::fill(out, 0.0); });
  p.use_cuda(&gpu);
  const mesh::Mesh& m = p.mesh();
  ASSERT_GE(m.num_cells() - static_cast<int32_t>(m.boundary_cells().size()),
            10 * static_cast<int32_t>(m.boundary_cells().size()));
  auto solver = p.compile(Target::Gpu);
  rt::Counter& vm_seconds = rt::MetricsRegistry::global().counter("vm.seconds");
  const double before = vm_seconds.value();
  solver->run(5);
  const double vm = vm_seconds.value() - before;
  ASSERT_GT(vm, 0.0);
  EXPECT_LT(solver->phases().compute, 0.5 * vm);
}

TEST(DslPipeline, PostStepCallbackRunsEachStep) {
  Problem p("poststep");
  p.set_mesh(mesh::Mesh::structured_quad(2, 2, 1.0, 1.0));
  p.set_steps(0.01, 1);
  p.variable("u");
  p.coefficient("k", 1.0);
  p.conservation_form("u", "-k*u");
  p.initial("u", [](int32_t, std::span<const int32_t>) { return 1.0; });
  int calls = 0;
  p.post_step([&calls](Problem&, double) { ++calls; });
  auto solver = p.compile(Target::CpuSerial);
  solver->run(7);
  EXPECT_EQ(calls, 7);
  EXPECT_NEAR(solver->time(), 0.07, 1e-15);
}

TEST(DslPipeline, PhaseTimersAccumulate) {
  Problem p("phases");
  p.set_mesh(mesh::Mesh::structured_quad(4, 4, 1.0, 1.0));
  p.set_steps(0.01, 1);
  p.variable("u");
  p.coefficient("k", 1.0);
  p.conservation_form("u", "-k*u");
  p.initial("u", [](int32_t, std::span<const int32_t>) { return 1.0; });
  p.post_step([](Problem&, double) { /* pretend temperature update */ });
  auto solver = p.compile(Target::CpuSerial);
  solver->run(3);
  EXPECT_GT(solver->phases().compute, 0.0);
  EXPECT_GE(solver->phases().post_process, 0.0);
}

TEST(DslErrors, MissingMeshAndUnknownEntities) {
  Problem p("bad");
  p.variable("u");
  p.coefficient("k", 1.0);
  p.conservation_form("u", "-k*u");
  EXPECT_THROW(p.compile(Target::CpuSerial), std::logic_error);  // no mesh

  Problem q("bad2");
  q.set_mesh(mesh::Mesh::structured_quad(2, 2, 1.0, 1.0));
  EXPECT_THROW(q.conservation_form("nope", "-nope"), std::invalid_argument);
  EXPECT_THROW(q.variable("v", {"undeclared"}), std::invalid_argument);
  q.variable("u");
  EXPECT_THROW(q.coefficient("c", {1.0, 2.0}, {"undeclared"}), std::invalid_argument);
  EXPECT_THROW(q.compile(Target::CpuSerial), std::logic_error);  // no equation
}

TEST(DslErrors, GpuTargetRequiresDevice) {
  Problem p("nogpu");
  p.set_mesh(mesh::Mesh::structured_quad(2, 2, 1.0, 1.0));
  p.variable("u");
  p.coefficient("k", 1.0);
  p.conservation_form("u", "-k*u");
  p.initial("u", [](int32_t, std::span<const int32_t>) { return 1.0; });
  EXPECT_THROW(p.compile(Target::Gpu), std::logic_error);
}

// A condition registered for a name no variable has would be stored and
// never applied, leaving that wall zero-flux without a word.
TEST(DslErrors, BoundaryRejectsAnUndeclaredVariable) {
  Problem p("typo");
  p.set_mesh(mesh::Mesh::structured_quad(2, 2, 1.0, 1.0));
  p.variable("u");
  p.coefficient("k", 1.0);
  auto fill = [](const fvm::BoundaryContext&, std::span<double> out) { std::ranges::fill(out, 1.0); };
  try {
    p.boundary("uu", 1, dsl::BcType::Value, "inflow", fill);
    FAIL() << "boundary() accepted an undeclared variable";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("uu"), std::string::npos) << e.what();
  }
  EXPECT_THROW(p.boundary("k", 1, dsl::BcType::Value, "inflow", fill), std::invalid_argument);
  EXPECT_NO_THROW(p.boundary("u", 1, dsl::BcType::Value, "inflow", fill));
}

namespace {

// I[d,b] with an equation, G over the remaining index b and weights W over
// d; `declare` adds the reduction (and anything else) under test. Returns
// compile()'s std::invalid_argument message, or "" when it compiles.
std::string reduction_error(const std::function<void(Problem&)>& declare) {
  Problem p("sums");
  p.set_mesh(mesh::Mesh::structured_quad(3, 2, 1.0, 1.0));
  p.index("d", 1, 3);
  p.index("b", 1, 2);
  p.variable("I", {"d", "b"});
  p.variable("G", {"b"});
  p.variable("H", {"d"});
  p.coefficient("W", {0.5, 1.0, 2.0}, {"d"});
  p.coefficient("Wb", {1.0, 1.0}, {"b"});
  p.coefficient("k", 0.3);
  p.conservation_form("I", "-k*I[d,b]");
  declare(p);
  try {
    p.compile(Target::CpuSerial);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

}  // namespace

TEST(DslErrors, CompileRejectsAMisdeclaredReduction) {
  EXPECT_EQ(reduction_error([](Problem& p) { p.reduction("G", "I", "d", "W"); }), "");
  const std::vector<std::pair<std::string, std::function<void(Problem&)>>> bad = {
      {"the summed index is not the stride-1 one", [](Problem& p) { p.reduction("H", "I", "b", "Wb"); }},
      {"the target keeps the summed index", [](Problem& p) { p.reduction("H", "I", "d", "W"); }},
      {"the weight is over another index", [](Problem& p) { p.reduction("G", "I", "d", "Wb"); }},
      {"the weight is a scalar", [](Problem& p) { p.reduction("G", "I", "d", "k"); }},
      {"the summed variable has no equation", [](Problem& p) { p.reduction("I", "H", "d", "W"); }},
      {"a second reduction of the same variable",
       [](Problem& p) {
         p.reduction("G", "I", "d", "W");
         p.reduction("G", "I", "d", "W");
       }},
  };
  for (const auto& [why, declare] : bad) {
    const std::string msg = reduction_error(declare);
    EXPECT_NE(msg.find("reduction "), std::string::npos) << why << ": " << msg;
  }
  // Named in the message: the declared sum itself.
  EXPECT_NE(reduction_error([](Problem& p) { p.reduction("H", "I", "b", "Wb"); })
                .find("reduction H = sum_b Wb[b] * I"),
            std::string::npos);

  // An equation that reads the target would see sums of another stage.
  Problem q("reads");
  q.set_mesh(mesh::Mesh::structured_quad(3, 2, 1.0, 1.0));
  q.index("d", 1, 2);
  q.variable("I", {"d"});
  q.variable("G");
  q.coefficient("W", {1.0, 1.0}, {"d"});
  q.conservation_form("I", "G - I[d]");
  q.reduction("G", "I", "d", "W");
  EXPECT_THROW(q.compile(Target::CpuSerial), std::invalid_argument);
}

// A reference must carry its entity's declared indices: w is declared over b
// (extent 2) and read as w[d] (extent 3), whose strides would address DOFs
// past w's storage. compile() refuses such a reference and names the entity,
// for an indexed coefficient and for a field alike, as it does a missing
// index or a swapped pair.
TEST(DslErrors, CompileRejectsAReferenceWithTheWrongIndices) {
  auto compile_error = [](bool field, const std::string& rhs) -> std::string {
    Problem p("indices");
    p.set_mesh(mesh::Mesh::structured_quad(3, 2, 1.0, 1.0));
    p.index("d", 1, 3);
    p.index("b", 1, 2);
    p.variable("I", {"d", "b"});
    if (field)
      p.variable("w", {"b"});
    else
      p.coefficient("w", {0.5, 2.0}, {"b"});
    p.conservation_form("I", rhs);
    try {
      p.compile(Target::CpuSerial);
    } catch (const codegen::CompileError& e) {
      return e.what();
    }
    return "";
  };
  for (const bool field : {false, true}) {
    SCOPED_TRACE(field ? "w is a field" : "w is a coefficient");
    EXPECT_EQ(compile_error(field, "-w[b] * I[d,b]"), "");
    const std::string msg = compile_error(field, "-w[d] * I[d,b]");
    EXPECT_NE(msg.find("entity w "), std::string::npos) << msg;
    EXPECT_NE(msg.find("w[b=2]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("w[d=3]"), std::string::npos) << msg;
    EXPECT_NE(compile_error(field, "-w[b] * I[b,d]").find("entity I "), std::string::npos);
    EXPECT_NE(compile_error(field, "-w[b] * I[d]").find("entity I "), std::string::npos);
  }
}

// ---- the placed VM sweep ------------------------------------------------------
// The unguarded VM evaluates each node at the point its placement allows (once
// per sweep, cell, face, (face, direction) or lane block). Its sweep must equal
// a one-lane eval() of every node per (cell, DOF, face) bitwise, for random
// programs with nodes in every scope, on a mesh with interior, value-BC,
// flux-BC and BC-less faces, for variables of one, two and three indices in
// both layouts, serially and split across a pool.

namespace {

// Drives equation 0's VM sweep directly, next to its per-lane reference.
class VmSweepProbe final : public codegen::StepSolverBase {
 public:
  VmSweepProbe(Problem& p, rt::ThreadPool* pool) : StepSolverBase(p, pool, /*native=*/false) {}

  void vm(fvm::CellField& out, double dt) { sweep(0, out, dt, all_cells_); }

  // Adds to `n` the nodes of equation 0's programs at each evaluation point.
  void count_points(std::array<int, codegen::kPoints>& n) const {
    const codegen::CompiledEquation& ce = eqs_[0];
    for (const codegen::Placement* pl : {&ce.vol_place, &ce.surf_place})
      for (size_t i = 0; i < pl->scope.size(); ++i)
        ++n[static_cast<size_t>(codegen::point_of(pl->scope[i], pl->deps[i]))];
  }

  // One eval() per (cell, DOF) and per (cell, DOF, face): the volume value,
  // then each face slot in CSR order, where a flux BC adds scale·(−dt)·f and
  // a wall with no condition adds nothing.
  void reference(fvm::CellField& out, double dt) const {
    const codegen::CompiledEquation& ce = eqs_[0];
    const codegen::BcTable& bc = ce.bc;
    const int32_t ndof = ce.field->dof_per_cell();
    for (int32_t cell = 0; cell < out.num_cells(); ++cell) {
      for (int32_t dof = 0; dof < ndof; ++dof) {
        codegen::EvalContext ctx;
        ctx.cell = cell;
        ctx.dt = dt;
        for (size_t k = 0; k < static_cast<size_t>(ce.var_addr.n_idx); ++k)
          ctx.loop_values[static_cast<size_t>(ce.var_addr.loop_slot[k])] =
              dof / ce.var_addr.stride[k] % ce.extent[k];
        const double vol = codegen::eval(ce.volume, ctx);
        double acc = 0.0;
        for (auto fs = static_cast<size_t>(faces_.off[static_cast<size_t>(cell)]);
             ce.has_surface && fs < static_cast<size_t>(faces_.off[static_cast<size_t>(cell) + 1]); ++fs) {
          const int32_t bs = bc.face_bslot[fs];
          if (faces_.nbr[fs] < 0 && bs < 0) continue;
          const double* geom = faces_.geom.data() + 4 * fs;
          const double f = bs >= 0 ? bc.value[static_cast<size_t>(bs * ndof + dof)] : 0.0;
          if (bs >= 0 && bc.kind[static_cast<size_t>(bs)] == codegen::BcTable::kFlux) {
            acc += geom[3] * (-dt) * f;
            continue;
          }
          codegen::EvalContext face = ctx;
          face.neighbor = faces_.nbr[fs];
          face.normal = {geom[0], geom[1], geom[2]};
          if (bs >= 0) {
            face.ghost_field = ce.field;
            face.ghost_value = f;
          }
          acc += geom[3] * codegen::eval(ce.surface, face);
        }
        out.at(cell, dof) = ce.has_surface ? vol + acc : vol;
      }
    }
  }
};

// A random conservation form for U over the first `nidx` of d (extent 5, the
// stride-1 index), b and p (extent 4 each). Its leaves put nodes in every
// scope: constants, dt and the scalar k (once per sweep); Sx[d] and Cb[b]
// (the variable's indices alone; Cb is a constant read for a one-index U);
// w, a one-DOF field (once per cell); U and Io[b] (per DOF); normals (once per
// face); s·n with s = [Sx[d]; Sy[d]] (once per face and direction); and reads
// across the face (upwind, central).
class FormGen {
 public:
  FormGen(uint32_t seed, int nidx) : rng_(seed) {
    const char* refs[] = {"U[d]", "U[d,b]", "U[d,b,p]"};
    u_ = refs[nidx - 1];
  }

  std::string form() {
    std::string vol = rng_() % 4 == 0 ? "" : expr(2);
    std::string surf;
    const int terms = rng_() % 3 == 0 ? 0 : 1 + static_cast<int>(rng_() % 2);
    for (int t = 0; t < terms; ++t) surf += (t > 0 ? " + " : "") + surface_term();
    if (surf.empty()) return vol.empty() ? "-k*" + u_ : vol;
    return (vol.empty() ? "" : vol + " ") + "- surface(" + surf + ")";
  }

 private:
  std::string leaf() {
    const char* leaves[] = {"w", "Io[b]", "Sx[d]", "Cb[b]", "k", "0.5", "1.25", "2"};
    return rng_() % 3 == 0 ? u_ : leaves[rng_() % 8];
  }

  std::string expr(int depth) {
    if (depth <= 0) return leaf();
    switch (rng_() % 5) {
      case 0: return "(" + expr(depth - 1) + " + " + expr(depth - 1) + ")";
      case 1: return "(" + expr(depth - 1) + " - " + expr(depth - 1) + ")";
      case 2: return "abs(" + expr(depth - 1) + ")";
      default: return "(" + expr(depth - 1) + " * " + expr(depth - 1) + ")";
    }
  }

  std::string surface_term() {
    switch (rng_() % 7) {
      case 0: return leaf() + " * upwind([Sx[d];Sy[d]], " + u_ + ")";
      case 1: return "central([Sx[d];Sy[d]], " + u_ + ")";
      case 2: return "dot([Sx[d];Sy[d]], normal()) * " + expr(1);
      case 3: return "dot(normal(), [k;Cb[b]]) * w";
      case 4: return "upwind([0.75;-0.5], w)";
      case 5: return "upwind([Sx[d];Sy[d]], Io[b])";
      default: return "dot(normal(), [1;2])";
    }
  }

  std::mt19937 rng_;
  std::string u_;
};

// U on a 4x3 mesh: a value BC on ymin, a flux BC on xmin, and no condition on
// ymax and xmax.
std::unique_ptr<Problem> placed_sweep_problem(const std::string& form, int nidx, fvm::Layout layout) {
  auto p = std::make_unique<Problem>("placed");
  p->set_mesh(mesh::Mesh::structured_quad(4, 3, 1.0, 1.0));
  p->set_steps(0.01, 1);
  p->layout(layout);
  p->execution_backend(dsl::Backend::Vm);
  p->index("d", 1, 5);
  p->index("b", 1, 4);
  p->index("p", 1, 4);
  const std::vector<std::string> idx = {"d", "b", "p"};
  p->variable("U", std::vector<std::string>(idx.begin(), idx.begin() + nidx));
  p->variable("w");
  p->variable("Io", {"b"});
  p->coefficient("Sx", {0.6, -0.8, 0.2, -0.1, 0.9}, {"d"});
  p->coefficient("Sy", {0.4, 0.3, -0.9, 0.7, -0.2}, {"d"});
  p->coefficient("Cb", {1.5, -0.5, 0.25, 2.0}, {"b"});
  p->coefficient("k", 0.7);
  p->initial("U", [](int32_t c, std::span<const int32_t> i) {
    double v = 0.05 * (c + 1) + 0.3 * i[0];
    for (size_t k = 1; k < i.size(); ++k) v -= 0.17 * static_cast<double>(k) * i[k];
    return v;
  });
  p->initial("w", [](int32_t c, std::span<const int32_t>) { return 0.5 + 0.1 * c; });
  p->initial("Io", [](int32_t c, std::span<const int32_t> i) { return 0.4 + 0.01 * c + 0.2 * i[0]; });
  p->boundary("U", 1, dsl::BcType::Value, "inflow", [](const fvm::BoundaryContext& ctx, std::span<double> out) {
    for (size_t dof = 0; dof < out.size(); ++dof) out[dof] = 0.2 + 0.03 * static_cast<double>(dof) + 0.001 * ctx.cell;
  });
  p->boundary("U", 3, dsl::BcType::Flux, "leak", [](const fvm::BoundaryContext& ctx, std::span<double> out) {
    for (size_t dof = 0; dof < out.size(); ++dof) out[dof] = 0.1 * (ctx.cell + 1) + 0.01 * static_cast<double>(dof);
  });
  p->conservation_form("U", form);
  p->finalize();
  return p;
}

// Bitwise, except that two NaNs match (see LaneBlockFuzz: which of two NaN
// operands an op propagates is left open).
bool same_bits(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_placed_sweeps_match(int nidx, fvm::Layout layout, rt::ThreadPool* pool) {
  FormGen gen(static_cast<uint32_t>(100 * nidx + static_cast<int>(layout)), nidx);
  std::array<int, codegen::kPoints> points{};
  for (int round = 0; round < 16; ++round) {
    const std::string form = gen.form();
    SCOPED_TRACE("form: " + form);
    auto p = placed_sweep_problem(form, nidx, layout);
    VmSweepProbe probe(*p, pool);
    probe.step();  // fills the boundary values the sweeps below read
    probe.count_points(points);
    const fvm::CellField& u = p->fields().get("U");
    fvm::CellField got("got", u.num_cells(), u.dof_per_cell(), layout);
    fvm::CellField want("want", u.num_cells(), u.dof_per_cell(), layout);
    const double dt = 0.0125;  // not the stage's: the VM must evaluate its per-sweep values anew
    probe.vm(got, dt);
    probe.reference(want, dt);
    int64_t differing = 0;
    for (int32_t c = 0; c < u.num_cells(); ++c)
      for (int32_t d = 0; d < u.dof_per_cell(); ++d)
        if (!same_bits(got.at(c, d), want.at(c, d)) && differing++ == 0)
          ADD_FAILURE() << "cell " << c << ", dof " << d << ": " << got.at(c, d) << " vs " << want.at(c, d);
    EXPECT_EQ(differing, 0);
  }
  // Every evaluation point ran; per (face, direction) only needs a loop
  // outside the stride-1 one.
  for (int pt = 0; pt < codegen::kPoints; ++pt) {
    if (nidx > 1 || static_cast<codegen::Point>(pt) != codegen::Point::FaceDir) {
      EXPECT_GT(points[static_cast<size_t>(pt)], 0) << "no node at point " << pt;
    }
  }
}

}  // namespace

class PlacedSweepFuzz : public ::testing::TestWithParam<std::tuple<int, fvm::Layout>> {};

TEST_P(PlacedSweepFuzz, VmSweepMatchesPerLaneEval) {
  expect_placed_sweeps_match(std::get<0>(GetParam()), std::get<1>(GetParam()), nullptr);
}

// The same sweeps split across three threads (CI's TSan job runs this case).
TEST_P(PlacedSweepFuzz, ThreadedVmSweepMatchesPerLaneEval) {
  rt::ThreadPool pool(3);
  expect_placed_sweeps_match(std::get<0>(GetParam()), std::get<1>(GetParam()), &pool);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PlacedSweepFuzz,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Values(fvm::Layout::CellMajor, fvm::Layout::DofMajor)),
    [](const ::testing::TestParamInfo<std::tuple<int, fvm::Layout>>& info) {
      return std::to_string(std::get<0>(info.param)) + "Index" +
             (std::get<1>(info.param) == fvm::Layout::CellMajor ? "CellMajor" : "DofMajor");
    });
