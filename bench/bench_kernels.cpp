// Micro-benchmarks (google-benchmark): costs of the building blocks — the
// bytecode interpreter, the native JIT backend, the hand-written direct
// solver, the per-cell temperature solve, the partitioners, the thread-pool
// dispatch, and the observability layer's disabled-path overhead.
//
// Besides the microbenchmark table this binary gates the native backend's
// acceptance bar (CODEGEN.md §6): on the §III.A sweep configuration the JIT
// kernels must be >=5x faster than the bytecode VM while staying
// bit-identical, and a second identical solve must hit the kernel cache.
// PAPER-CHECK failures exit nonzero so CI can gate on them. Supports the
// shared bench flags: --seed/--json/--metrics-json/--trace.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>

#include "bte/bte_problem.hpp"
#include "bte/direct_solver.hpp"
#include "core/codegen/bytecode.hpp"
#include "core/codegen/native_backend.hpp"
#include "core/symbolic/parser.hpp"
#include "core/symbolic/simplify.hpp"
#include "fig_common.hpp"
#include "mesh/partition.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/trace.hpp"

using namespace finch;

namespace {

struct EvalFixture {
  sym::EntityTable table;
  fvm::FieldSet fields;
  std::map<std::string, std::vector<double>> coefs;
  std::map<std::string, double> scalars;
  codegen::CompileEnv env;
  codegen::Program volume, surface;

  EvalFixture() {
    table.declare_index("d", 1, 8);
    table.declare_index("b", 1, 11);
    table.declare({"I", sym::EntityKind::Variable, 1, {"d", "b"}});
    table.declare({"Io", sym::EntityKind::Variable, 1, {"b"}});
    table.declare({"beta", sym::EntityKind::Variable, 1, {"b"}});
    table.declare({"Sx", sym::EntityKind::Coefficient, 1, {"d"}});
    table.declare({"Sy", sym::EntityKind::Coefficient, 1, {"d"}});
    table.declare({"vg", sym::EntityKind::Coefficient, 1, {"b"}});
    fields.add("I", 64, 88, fvm::Layout::CellMajor, 1.0);
    fields.add("Io", 64, 11, fvm::Layout::CellMajor, 1.0);
    fields.add("beta", 64, 11, fvm::Layout::CellMajor, 1e10);
    coefs["Sx"] = std::vector<double>(8, 0.7);
    coefs["Sy"] = std::vector<double>(8, -0.7);
    coefs["vg"] = std::vector<double>(11, 5000.0);
    env.table = &table;
    env.index_order = {"b", "d"};
    env.index_extent = {11, 8};
    env.fields = &fields;
    env.coefficients = &coefs;
    env.scalar_coefficients = &scalars;

    sym::OperatorRegistry reg;
    auto eq = sym::make_conservation_form(
        *table.find("I"), "(Io[b] - I[d,b]) * beta[b] - surface(vg[b]*upwind([Sx[d];Sy[d]], I[d,b]))",
        table, reg, 2);
    auto cls = sym::classify(sym::apply_forward_euler(eq));
    volume = codegen::compile(sym::simplify(sym::add(cls.rhs_volume)), env);
    surface = codegen::compile(sym::simplify(sym::add(cls.rhs_surface)), env);
  }
};

}  // namespace

static void BM_BytecodeVolumeEval(benchmark::State& state) {
  EvalFixture f;
  codegen::EvalContext ctx;
  ctx.dt = 1e-12;
  ctx.cell = 3;
  ctx.loop_values = {4, 2, 0, 0};
  for (auto _ : state) benchmark::DoNotOptimize(codegen::eval(f.volume, ctx));
}
BENCHMARK(BM_BytecodeVolumeEval);

static void BM_BytecodeSurfaceEval(benchmark::State& state) {
  EvalFixture f;
  codegen::EvalContext ctx;
  ctx.dt = 1e-12;
  ctx.cell = 3;
  ctx.neighbor = 4;
  ctx.normal = {1.0, 0.0, 0.0};
  ctx.loop_values = {4, 2, 0, 0};
  for (auto _ : state) benchmark::DoNotOptimize(codegen::eval(f.surface, ctx));
}
BENCHMARK(BM_BytecodeSurfaceEval);

static void BM_DirectSolverStep(benchmark::State& state) {
  bte::BteScenario s;
  s.nx = s.ny = static_cast<int>(state.range(0));
  s.lx = s.ly = 100e-6;
  s.ndirs = 8;
  s.nbands = 8;
  auto phys = std::make_shared<const bte::BtePhysics>(s.nbands, s.ndirs);
  bte::DirectSolver solver(s, phys);
  for (auto _ : state) solver.step();
  state.SetItemsProcessed(state.iterations() * solver.num_cells() * solver.dofs_per_cell());
}
BENCHMARK(BM_DirectSolverStep)->Arg(16)->Arg(32);

static void BM_DslSolverStep(benchmark::State& state) {
  bte::BteScenario s;
  s.nx = s.ny = static_cast<int>(state.range(0));
  s.lx = s.ly = 100e-6;
  s.ndirs = 8;
  s.nbands = 8;
  auto phys = std::make_shared<const bte::BtePhysics>(s.nbands, s.ndirs);
  bte::BteProblem bp(s, phys);
  auto solver = bp.compile(dsl::Target::CpuSerial);
  for (auto _ : state) solver->step();
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(s.nx) * s.ny *
                          phys->num_bands() * phys->num_dirs());
}
BENCHMARK(BM_DslSolverStep)->Arg(16)->Arg(32);

static void BM_NativeSolverStep(benchmark::State& state) {
  if (!codegen::native_backend_available()) {
    state.SkipWithError("native backend unavailable (no compiler or FINCH_JIT_DISABLE)");
    return;
  }
  bte::BteScenario s;
  s.nx = s.ny = static_cast<int>(state.range(0));
  s.lx = s.ly = 100e-6;
  s.ndirs = 8;
  s.nbands = 8;
  s.backend = "native";
  auto phys = std::make_shared<const bte::BtePhysics>(s.nbands, s.ndirs);
  bte::BteProblem bp(s, phys);
  auto solver = bp.compile(dsl::Target::CpuSerial);
  solver->step();  // first sweep pays the one-time VM verification pass
  for (auto _ : state) solver->step();
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(s.nx) * s.ny *
                          phys->num_bands() * phys->num_dirs());
}
BENCHMARK(BM_NativeSolverStep)->Arg(16)->Arg(32);

static void BM_TemperatureSolve(benchmark::State& state) {
  auto phys = std::make_shared<const bte::BtePhysics>(40, 8);  // 55 bands as in the paper
  std::vector<double> G(static_cast<size_t>(phys->num_bands()));
  for (int b = 0; b < phys->num_bands(); ++b)
    G[static_cast<size_t>(b)] = 4.0 * M_PI * phys->table.I0(b, 317.0);
  for (auto _ : state) benchmark::DoNotOptimize(phys->table.solve_temperature(G, 300.0));
}
BENCHMARK(BM_TemperatureSolve);

static void BM_PartitionRcb(benchmark::State& state) {
  mesh::Mesh m = mesh::Mesh::structured_quad(120, 120, 1.0, 1.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(mesh::partition(m, static_cast<int>(state.range(0)), mesh::PartitionMethod::RCB));
}
BENCHMARK(BM_PartitionRcb)->Arg(8)->Arg(64)->Arg(320);

static void BM_PartitionGreedy(benchmark::State& state) {
  mesh::Mesh m = mesh::Mesh::structured_quad(120, 120, 1.0, 1.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        mesh::partition(m, static_cast<int>(state.range(0)), mesh::PartitionMethod::GreedyGraph));
}
BENCHMARK(BM_PartitionGreedy)->Arg(8)->Arg(64);

// Observability acceptance bar: with tracing disabled (the default), a span
// costs one relaxed atomic load — compare against BM_BytecodeVolumeEval
// (~tens of ns) to verify the instrumented hot paths pay <1%.
static void BM_TraceSpanDisabled(benchmark::State& state) {
  rt::Tracer::global().configure(rt::TraceConfig{});  // enabled = false
  for (auto _ : state) {
    rt::TraceSpan span("bench.disabled");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TraceSpanDisabled);

// Enabled-path span cost, for the capture-cost table in OBSERVABILITY.md
// (two clock reads + one lock-free slot append).
static void BM_TraceSpanEnabled(benchmark::State& state) {
  rt::TraceConfig cfg;
  cfg.enabled = true;
  rt::Tracer::global().configure(cfg);
  for (auto _ : state) {
    rt::TraceSpan span("bench.enabled");
    benchmark::ClobberMemory();
  }
  rt::Tracer::global().configure(rt::TraceConfig{});
  rt::Tracer::global().clear();
}
BENCHMARK(BM_TraceSpanEnabled);

// Counter add: one CAS loop on an uncontended atomic — the cost of each
// metrics hook on the instrumented paths (batched, never per-eval).
static void BM_MetricsCounterAdd(benchmark::State& state) {
  rt::Counter& c = rt::MetricsRegistry::global().counter("bench.counter");
  for (auto _ : state) c.add(1.0);
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_MetricsCounterAdd);

static void BM_ThreadPoolDispatch(benchmark::State& state) {
  rt::ThreadPool pool(2);
  std::vector<double> v(4096, 1.0);
  for (auto _ : state) {
    pool.parallel_for_chunks(0, static_cast<int64_t>(v.size()), [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) v[static_cast<size_t>(i)] *= 1.0000001;
    });
  }
  benchmark::DoNotOptimize(v.data());
}
BENCHMARK(BM_ThreadPoolDispatch);

namespace {

double jit_counter(const char* name) {
  return rt::MetricsRegistry::global().counter(name).value();
}

// Acceptance gate for the native backend (CODEGEN.md §6): the §III.A sweep
// configuration (1100 DOF/cell: 40 spectral bands -> 55 resolved, 20
// directions), grid trimmed so the VM reference run stays tractable;
// FINCH_BENCH_FAST=1 shrinks further for CI. Measured on the intensity phase
// only — the shared temperature post-step would dilute the kernel ratio.
void paper_check_native_vs_vm(bench::JsonBench& json) {
  const bool fast = std::getenv("FINCH_BENCH_FAST") != nullptr;
  bte::BteScenario s;
  s.nx = s.ny = fast ? 24 : 48;
  s.lx = s.ly = 100e-6;
  s.ndirs = fast ? 8 : 20;
  s.nbands = fast ? 8 : 40;
  s.dt = 1e-12;
  const int warm = 1;               // native pays the verify-vs-VM first sweep
  const int steps = fast ? 2 : 3;
  auto phys = std::make_shared<const bte::BtePhysics>(s.nbands, s.ndirs);
  s.backend = "vm";
  bte::BteProblem pv(s, phys);
  s.backend = "native";
  bte::BteProblem pn(s, phys);
  auto sv = pv.compile(dsl::Target::CpuSerial);
  const double fallback0 = jit_counter("jit.fallback");
  auto sn = pn.compile(dsl::Target::CpuSerial);
  bench::check(jit_counter("jit.fallback") == fallback0,
               "native backend compiled the sweep kernel (no jit.fallback)");

  const double general0 = jit_counter("jit.exec.general_cells");
  const double sweeps0 = jit_counter("jit.exec.batches");
  sv->run(warm);
  sn->run(warm);
  const double vm0 = sv->phases().compute;
  const double native0 = sn->phases().compute;
  sv->run(steps);
  sn->run(steps);
  const double sweeps = jit_counter("jit.exec.batches") - sweeps0;
  const double general_per_sweep =
      sweeps > 0.0 ? (jit_counter("jit.exec.general_cells") - general0) / sweeps : -1.0;
  const double vm_s = sv->phases().compute - vm0;
  const double native_s = sn->phases().compute - native0;
  const double speedup = native_s > 0.0 ? vm_s / native_s : 0.0;

  const auto& iv = pv.problem().fields().get("I").data();
  const auto& in = pn.problem().fields().get("I").data();
  const bool bits = iv.size() == in.size() &&
                    std::memcmp(iv.data(), in.data(), iv.size() * sizeof(double)) == 0;

  char claim[160];
  std::snprintf(claim, sizeof claim,
                "native JIT >=5x over the bytecode VM on the sweep (measured %.1fx, "
                "%dx%d cells, %d dirs, %d bands)",
                speedup, s.nx, s.ny, s.ndirs, s.nbands);
  bench::check(speedup >= 5.0, claim);
  bench::check(bits, "native and VM intensity fields bit-identical after the sweep");
  bench::check(jit_counter("jit.verify.mismatch") == 0.0,
               "first-sweep verification found no native/VM divergence");

  // Every wall is a flux BC, so exactly the boundary ring runs the kernel's
  // general body: an interior cell off the fused body fails this gate.
  const mesh::Mesh& mesh = pn.problem().mesh();
  int64_t boundary_cells = 0;
  for (int32_t c = 0; c < mesh.num_cells(); ++c) {
    bool wall = false;
    for (int32_t f : mesh.cell_faces(c)) wall = wall || mesh.face(f).is_boundary();
    boundary_cells += wall ? 1 : 0;
  }
  std::snprintf(claim, sizeof claim,
                "interior cells run the fused kernel body: jit.exec.general_cells per sweep "
                "(%.0f) equals the boundary cells (%lld)",
                general_per_sweep, static_cast<long long>(boundary_cells));
  bench::check(general_per_sweep == static_cast<double>(boundary_cells), claim);

  // A second identical solve must reuse the compiled kernel.
  const double hit0 = jit_counter("jit.cache.hit");
  bte::BteProblem pn2(s, phys);
  auto sn2 = pn2.compile(dsl::Target::CpuSerial);
  bench::check(jit_counter("jit.cache.hit") > hit0,
               "second identical solve hits the kernel cache (jit.cache.hit)");

  json.set("sweep_vm_seconds", vm_s);
  json.set("sweep_native_seconds", native_s);
  json.set("sweep_speedup", speedup);
  json.set("sweep_bit_identical", bits ? 1.0 : 0.0);
  json.set("general_cells_per_sweep", general_per_sweep);
  json.set("jit_compile_seconds", jit_counter("jit.compile_seconds"));
  json.set("jit_cache_hits", jit_counter("jit.cache.hit"));
  json.set("jit_cache_misses", jit_counter("jit.cache.miss"));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  benchmark::Initialize(&argc, argv);
  bench::JsonBench json = bench::bench_json("bench_kernels", args);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  bench::print_header("bench_kernels", "native JIT vs bytecode VM acceptance");
  if (codegen::native_backend_available()) {
    paper_check_native_vs_vm(json);
  } else {
    // No system compiler (or FINCH_JIT_DISABLE): the acceptance bar cannot be
    // measured here — report loudly rather than passing vacuously.
    bench::check(false, "native backend available (system compiler + dlopen)");
  }
  return bench::finish_bench(json, args);
}
