// Differential and failure-path tests for the native JIT backend
// (CODEGEN.md): for a matrix of problems — BTE, gray model, RK2, DofMajor,
// threaded, plus seeded fuzz-generated conservation forms — the native
// solver's results must be bit-identical to the bytecode VM's. Negative
// paths (no compiler, compile error, corrupted cache entry, disabled JIT)
// must fall back to the VM cleanly, counted in jit.fallback, and still
// produce the VM's exact answer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bc_field_probe.hpp"
#include "bte/bte_problem.hpp"
#include "bte/gray.hpp"
#include "core/codegen/native_backend.hpp"
#include "core/dsl/problem.hpp"
#include "core/symbolic/simplify.hpp"
#include "runtime/metrics.hpp"
#include "runtime/simgpu.hpp"
#include "runtime/thread_pool.hpp"

using namespace finch;
namespace fs = std::filesystem;

namespace {

double counter(const char* name) { return rt::MetricsRegistry::global().counter(name).value(); }

bool bits_equal(const fvm::CellField& a, const fvm::CellField& b) {
  if (a.data().size() != b.data().size()) return false;
  return std::memcmp(a.data().data(), b.data().data(), a.data().size() * sizeof(double)) == 0;
}

// Cells a native sweep runs on the kernel's general body, by the rule of
// CODEGEN.md §4 restated for these meshes (every cell has the mesh's K
// faces): a cell with a face that is neither interior nor on one of
// `value_regions` — a flux BC or a wall without a BC — is general; the rest
// run the fused body.
int64_t general_cells_of(const mesh::Mesh& m, const std::set<int32_t>& value_regions) {
  int64_t general = 0;
  for (int32_t c = 0; c < m.num_cells(); ++c) {
    bool off = false;
    for (int32_t f : m.cell_faces(c))
      off = off || (m.face(f).is_boundary() && value_regions.count(m.face(f).boundary_region) == 0);
    general += off ? 1 : 0;
  }
  return general;
}

// jit.exec.general_cells per native kernel sweep since construction.
struct GeneralCellsPerSweep {
  double general0 = counter("jit.exec.general_cells");
  double sweeps0 = counter("jit.exec.batches");
  double value() const {
    const double sweeps = counter("jit.exec.batches") - sweeps0;
    return sweeps > 0.0 ? (counter("jit.exec.general_cells") - general0) / sweeps : -1.0;
  }
};

// Small toy problem over a 6x5 quad mesh: I[d,b] with direction/band indices,
// a flux BC on the y-min wall, optionally a value BC on y-max, and the x walls
// left as default zero-flux.
std::unique_ptr<dsl::Problem> toy_problem(const std::string& eq, dsl::Backend backend,
                                          fvm::Layout layout = fvm::Layout::CellMajor,
                                          sym::TimeScheme scheme = sym::TimeScheme::ForwardEuler,
                                          bool value_bc = false) {
  auto p = std::make_unique<dsl::Problem>("toy");
  p->domain(2).time_stepper(scheme);
  p->set_steps(0.01, 4);
  p->set_mesh(mesh::Mesh::structured_quad(6, 5, 1.0, 1.0));
  p->layout(layout);
  p->execution_backend(backend);
  p->index("d", 1, 3);
  p->index("b", 1, 2);
  p->variable("I", {"d", "b"});
  p->variable("Io", {"b"});
  p->coefficient("Sx", {0.6, -0.8, 0.2}, {"d"});
  p->coefficient("Sy", {0.4, 0.3, -0.9}, {"d"});
  p->coefficient("k", 0.7);
  p->coefficient("vg", 1.3);
  p->initial("I", [](int32_t c, std::span<const int32_t> idx) {
    return 0.05 * (c + 1) + 0.3 * idx[0] - 0.17 * idx[1];
  });
  p->initial("Io", [](int32_t c, std::span<const int32_t> idx) {
    return 0.4 + 0.01 * c + 0.2 * idx[0];
  });
  p->boundary("I", 1, dsl::BcType::Flux, "toy_flux",
              [](const fvm::BoundaryContext& ctx, std::span<double> out) {
                for (int32_t dof = 0; dof < static_cast<int32_t>(out.size()); ++dof) {
                  const int32_t dir = dof % ctx.extent[0], band = dof / ctx.extent[0];
                  out[static_cast<size_t>(dof)] =
                      0.1 * (ctx.cell + 1) + 0.01 * dof + 0.02 * dir - 0.005 * band;
                }
              });
  if (value_bc) {
    p->boundary("I", 2, dsl::BcType::Value, "toy_value",
                [](const fvm::BoundaryContext& ctx, std::span<double> out) {
                  for (int32_t dof = 0; dof < static_cast<int32_t>(out.size()); ++dof)
                    out[static_cast<size_t>(dof)] = 0.2 + 0.03 * dof + 0.001 * ctx.cell;
                });
  }
  p->conservation_form("I", eq);
  return p;
}

constexpr const char* kToySurfaceEq =
    "(Io[b] - I[d,b]) * k - surface(vg * upwind([Sx[d];Sy[d]], I[d,b]))";

class NativeBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    codegen::reset_jit_config_from_env();
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    cache_dir_ = ::testing::TempDir() + "finch_jit_" + info->name();
    fs::remove_all(cache_dir_);
    codegen::jit_config().cache_dir = cache_dir_;
    codegen::reset_native_memory_cache();
  }
  void TearDown() override {
    codegen::reset_jit_config_from_env();
    fs::remove_all(cache_dir_);
  }

  // Compiles the same toy problem under both backends, runs `steps`, and
  // requires bit-identical I fields with the JIT actually engaged.
  void expect_differential_identity(const std::string& eq,
                                    fvm::Layout layout = fvm::Layout::CellMajor,
                                    sym::TimeScheme scheme = sym::TimeScheme::ForwardEuler,
                                    bool value_bc = false, int steps = 3) {
    auto pv = toy_problem(eq, dsl::Backend::Vm, layout, scheme, value_bc);
    auto pn = toy_problem(eq, dsl::Backend::Native, layout, scheme, value_bc);
    auto sv = pv->compile(dsl::Target::CpuSerial);
    const double fb0 = counter("jit.fallback");
    const double mismatch0 = counter("jit.verify.mismatch");  // the planted-kernel test adds one
    auto sn = pn->compile(dsl::Target::CpuSerial);
    ASSERT_EQ(counter("jit.fallback"), fb0) << "JIT fell back instead of compiling: " << eq;
    sv->run(steps);
    sn->run(steps);
    EXPECT_EQ(counter("jit.verify.mismatch"), mismatch0);
    EXPECT_TRUE(bits_equal(pv->fields().get("I"), pn->fields().get("I"))) << "eq: " << eq;
  }

  std::string cache_dir_;
};

// ---- differential matrix ---------------------------------------------------

TEST_F(NativeBackendTest, ToyUpwindSurfaceBitIdentical) {
  expect_differential_identity(kToySurfaceEq);
}

TEST_F(NativeBackendTest, VolumeOnlyBitIdentical) {
  expect_differential_identity("(Io[b] - I[d,b]) * k");
}

// Nothing caps a program's size: 400 distinct products lower to a volume
// program of more than 1,000 nodes, one kernel statement each, and the kernel
// still matches the VM bit for bit.
TEST_F(NativeBackendTest, ThousandNodeProgramBitIdentical) {
  std::string eq = "(Io[b] - I[d,b]) * k";
  for (int i = 1; i <= 400; ++i) eq += " + I[d,b] * Io[b]^" + std::to_string(1.0 + i / 1024.0);
  auto p = toy_problem(eq, dsl::Backend::Vm);
  const std::string src = p->generated_native_source();
  size_t statements = 0;
  for (size_t at = src.find("const double v"); at != std::string::npos; at = src.find("const double v", at + 1))
    ++statements;
  EXPECT_GT(statements, 1000u);
  expect_differential_identity(eq);
}

TEST_F(NativeBackendTest, ValueBcBitIdentical) {
  expect_differential_identity(kToySurfaceEq, fvm::Layout::CellMajor,
                               sym::TimeScheme::ForwardEuler, /*value_bc=*/true);
}

TEST_F(NativeBackendTest, CoupledEquationsSeeSwappedStorageAndTheirOwnBcField) {
  finch::test_support::FieldProbe vm, native;
  auto pv = finch::test_support::coupled_problem(dsl::Backend::Vm, vm);
  auto pn = finch::test_support::coupled_problem(dsl::Backend::Native, native);
  auto sv = pv->compile(dsl::Target::CpuSerial);
  const double fb0 = counter("jit.fallback");
  const double batches0 = counter("jit.exec.batches");
  auto sn = pn->compile(dsl::Target::CpuSerial);
  ASSERT_EQ(counter("jit.fallback"), fb0) << "JIT fell back instead of compiling";
  sv->run(4);
  sn->run(4);
  // Two kernels per step; the first sweep of each is the verified one.
  EXPECT_GE(counter("jit.exec.batches") - batches0, 8.0);
  for (int t = 0; t < 2; ++t) {
    EXPECT_GT(native.calls[t], 0) << "type " << t;
    EXPECT_EQ(native.wrong[t], 0) << "type " << t;
    EXPECT_EQ(vm.wrong[t], 0) << "type " << t;
  }
  EXPECT_TRUE(bits_equal(pv->fields().get("u"), pn->fields().get("u")));
  EXPECT_TRUE(bits_equal(pv->fields().get("v"), pn->fields().get("v")));
}

TEST_F(NativeBackendTest, Rk2MidpointBitIdentical) {
  expect_differential_identity(kToySurfaceEq, fvm::Layout::CellMajor,
                               sym::TimeScheme::RK2Midpoint, /*value_bc=*/true);
}

TEST_F(NativeBackendTest, DofMajorLayoutBitIdentical) {
  expect_differential_identity(kToySurfaceEq, fvm::Layout::DofMajor);
}

TEST_F(NativeBackendTest, ThreadedNativeMatchesSerialVm) {
  auto pv = toy_problem(kToySurfaceEq, dsl::Backend::Vm);
  auto pn = toy_problem(kToySurfaceEq, dsl::Backend::Native);
  rt::ThreadPool pool(3);
  pn->use_threads(&pool);
  auto sv = pv->compile(dsl::Target::CpuSerial);
  const double fb0 = counter("jit.fallback");
  auto sn = pn->compile(dsl::Target::CpuThreads);
  ASSERT_EQ(counter("jit.fallback"), fb0);
  sv->run(3);
  sn->run(3);
  EXPECT_TRUE(bits_equal(pv->fields().get("I"), pn->fields().get("I")));
}

// The threaded native solve, verify replay included, calls every boundary
// callback on the thread that steps it; the kernel and the replay only read
// the filled values. CI's TSan job runs this test (its name has "Threaded").
TEST_F(NativeBackendTest, ThreadedNativeRunsBoundaryCallbacksOnTheCallingThread) {
  finch::test_support::FieldProbe probe;
  auto p = finch::test_support::coupled_problem(dsl::Backend::Native, probe);
  rt::ThreadPool pool(4);
  p->use_threads(&pool);
  const double fb0 = counter("jit.fallback"), verified0 = counter("jit.verify.sweeps");
  auto s = p->compile(dsl::Target::CpuThreads);
  ASSERT_EQ(counter("jit.fallback"), fb0);
  s->run(3);
  EXPECT_EQ(counter("jit.verify.sweeps") - verified0, 2.0);  // the first sweep of u and of v
  EXPECT_GT(probe.calls[0] + probe.calls[1], 0);
  EXPECT_EQ(probe.threads, std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST_F(NativeBackendTest, GrayModelBitIdentical) {
  bte::GrayScenario scen;
  scen.nx = scen.ny = 8;
  scen.ndirs = 4;
  scen.nsteps = 3;
  bte::GrayBteProblem gv(scen), gn(scen);
  gv.problem().execution_backend(dsl::Backend::Vm);
  gn.problem().execution_backend(dsl::Backend::Native);
  auto sv = gv.compile(dsl::Target::CpuSerial);
  const double fb0 = counter("jit.fallback");
  auto sn = gn.compile(dsl::Target::CpuSerial);
  ASSERT_EQ(counter("jit.fallback"), fb0);
  sv->run(scen.nsteps);
  sn->run(scen.nsteps);
  EXPECT_TRUE(bits_equal(gv.problem().fields().get("I"), gn.problem().fields().get("I")));
  EXPECT_TRUE(bits_equal(gv.problem().fields().get("T"), gn.problem().fields().get("T")));
}

TEST_F(NativeBackendTest, SpectralBteBitIdentical) {
  bte::BteScenario scen = bte::BteScenario::small();
  scen.nx = scen.ny = 8;
  scen.ndirs = 4;
  scen.nbands = 2;
  scen.nsteps = 2;
  auto phys = std::make_shared<const bte::BtePhysics>(scen.nbands, scen.ndirs);
  scen.backend = "vm";
  bte::BteProblem bv(scen, phys);
  scen.backend = "native";
  bte::BteProblem bn(scen, phys);
  auto sv = bv.compile(dsl::Target::CpuSerial);
  const double fb0 = counter("jit.fallback");
  auto sn = bn.compile(dsl::Target::CpuSerial);
  ASSERT_EQ(counter("jit.fallback"), fb0);
  sv->run(scen.nsteps);
  sn->run(scen.nsteps);
  EXPECT_TRUE(bits_equal(bv.problem().fields().get("I"), bn.problem().fields().get("I")));
  EXPECT_TRUE(bits_equal(bv.problem().fields().get("T"), bn.problem().fields().get("T")));
}

// ---- fuzz-generated conservation forms --------------------------------------

std::string fuzz_volume_expr(std::mt19937& rng, int depth) {
  static const char* leaves[] = {"I[d,b]", "Io[b]", "Sx[d]", "k", "0.5", "1.25", "2"};
  if (depth <= 0) return leaves[rng() % (sizeof(leaves) / sizeof(leaves[0]))];
  static const char* ops[] = {" + ", " - ", " * "};
  return "(" + fuzz_volume_expr(rng, depth - 1) + ops[rng() % 3] +
         fuzz_volume_expr(rng, depth - 1) + ")";
}

class NativeBackendFuzz : public NativeBackendTest,
                          public ::testing::WithParamInterface<uint32_t> {};

TEST_P(NativeBackendFuzz, FuzzedProgramsBitIdentical) {
  std::mt19937 rng(GetParam());
  std::string eq = fuzz_volume_expr(rng, 3);
  if (rng() % 2 == 0) eq += " - surface(vg * upwind([Sx[d];Sy[d]], I[d,b]))";
  expect_differential_identity(eq, fvm::Layout::CellMajor, sym::TimeScheme::ForwardEuler,
                               /*value_bc=*/rng() % 2 == 0, /*steps=*/2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NativeBackendFuzz, ::testing::Values(1u, 2u, 3u, 5u, 8u));

// ---- kernel cache -----------------------------------------------------------

TEST_F(NativeBackendTest, CacheMissThenDiskHitThenMemoryHit) {
  const double miss0 = counter("jit.cache.miss");
  const double hit0 = counter("jit.cache.hit");
  {
    auto p = toy_problem(kToySurfaceEq, dsl::Backend::Native);
    auto s = p->compile(dsl::Target::CpuSerial);
  }
  EXPECT_EQ(counter("jit.cache.miss"), miss0 + 1);
  EXPECT_EQ(counter("jit.cache.hit"), hit0);

  // Same IR again, but with the in-process handle cache dropped: the kernel
  // must come back from disk, not a recompile.
  codegen::reset_native_memory_cache();
  const double disk0 = counter("jit.cache.hit_disk");
  {
    auto p = toy_problem(kToySurfaceEq, dsl::Backend::Native);
    auto s = p->compile(dsl::Target::CpuSerial);
  }
  EXPECT_EQ(counter("jit.cache.miss"), miss0 + 1);
  EXPECT_EQ(counter("jit.cache.hit_disk"), disk0 + 1);

  // Third solve: served from process memory.
  const double mem0 = counter("jit.cache.hit_mem");
  {
    auto p = toy_problem(kToySurfaceEq, dsl::Backend::Native);
    auto s = p->compile(dsl::Target::CpuSerial);
  }
  EXPECT_EQ(counter("jit.cache.miss"), miss0 + 1);
  EXPECT_EQ(counter("jit.cache.hit_mem"), mem0 + 1);
}

TEST_F(NativeBackendTest, CorruptedCacheEntryIsEvictedAndRecompiled) {
  {
    auto p = toy_problem(kToySurfaceEq, dsl::Backend::Native);
    auto s = p->compile(dsl::Target::CpuSerial);
  }
  // Replace every cached shared object with garbage, atomically (a new inode
  // renamed over the entry — the way a crashed writer would leave one). The
  // first solve's mapping of the old inode stays intact; only the cache entry
  // is corrupt.
  int corrupted = 0;
  for (const auto& ent : fs::directory_iterator(cache_dir_)) {
    if (ent.path().extension() == ".so") {
      const fs::path garbage = ent.path().string() + ".garbage";
      std::ofstream(garbage, std::ios::trunc) << "not an elf object";
      fs::rename(garbage, ent.path());
      ++corrupted;
    }
  }
  ASSERT_GT(corrupted, 0);
  codegen::reset_native_memory_cache();
  const double corrupt0 = counter("jit.cache.corrupt");
  const double fb0 = counter("jit.fallback");
  auto pv = toy_problem(kToySurfaceEq, dsl::Backend::Vm);
  auto pn = toy_problem(kToySurfaceEq, dsl::Backend::Native);
  auto sv = pv->compile(dsl::Target::CpuSerial);
  auto sn = pn->compile(dsl::Target::CpuSerial);
  EXPECT_GE(counter("jit.cache.corrupt"), corrupt0 + 1);
  EXPECT_EQ(counter("jit.fallback"), fb0) << "recompile after eviction should succeed";
  sv->run(2);
  sn->run(2);
  EXPECT_TRUE(bits_equal(pv->fields().get("I"), pn->fields().get("I")));
}

// ---- negative paths: always the VM's answer, never a wrong one --------------

void expect_clean_fallback(const std::string& why) {
  const double fb0 = counter("jit.fallback");
  auto pv = toy_problem(kToySurfaceEq, dsl::Backend::Vm);
  auto pn = toy_problem(kToySurfaceEq, dsl::Backend::Native);
  auto sv = pv->compile(dsl::Target::CpuSerial);
  auto sn = pn->compile(dsl::Target::CpuSerial);
  EXPECT_GE(counter("jit.fallback"), fb0 + 1) << why;
  sv->run(3);
  sn->run(3);
  EXPECT_TRUE(bits_equal(pv->fields().get("I"), pn->fields().get("I"))) << why;
}

TEST_F(NativeBackendTest, MissingCompilerFallsBackToVm) {
  codegen::jit_config().compiler = "/nonexistent/finch-test-cxx";
  expect_clean_fallback("missing compiler");
}

TEST_F(NativeBackendTest, CompileErrorFallsBackToVm) {
  codegen::jit_config().extra_cflags = "--finch-definitely-not-a-flag";
  expect_clean_fallback("compile error");
}

TEST_F(NativeBackendTest, DisabledJitFallsBackToVm) {
  codegen::jit_config().disable = true;
  EXPECT_FALSE(codegen::native_backend_available());
  expect_clean_fallback("jit disabled");
}

TEST_F(NativeBackendTest, LoadReportsDiagnosticOnFailure) {
  codegen::jit_config().compiler = "/nonexistent/finch-test-cxx";
  codegen::NativePlan plan;
  plan.source = "int broken(";
  std::string err;
  EXPECT_FALSE(codegen::load_native_plan(plan, &err));
  EXPECT_NE(err.find("compile failed"), std::string::npos);
  EXPECT_NE(err.find("/nonexistent/finch-test-cxx"), std::string::npos);
  EXPECT_EQ(plan.fn, nullptr);
}

// ---- backend selection ------------------------------------------------------

TEST_F(NativeBackendTest, BackendStringsRoundTrip) {
  EXPECT_EQ(dsl::backend_from_string("vm"), dsl::Backend::Vm);
  EXPECT_EQ(dsl::backend_from_string("native"), dsl::Backend::Native);
  EXPECT_EQ(dsl::backend_from_string("auto"), dsl::Backend::Auto);
  EXPECT_STREQ(dsl::backend_to_string(dsl::Backend::Native), "native");
  EXPECT_THROW(dsl::backend_from_string("cuda"), std::invalid_argument);
}

TEST_F(NativeBackendTest, EnvSeedsDefaultBackend) {
  ::setenv("FINCH_BACKEND", "native", 1);
  EXPECT_EQ(dsl::default_backend_from_env(), dsl::Backend::Native);
  ::setenv("FINCH_BACKEND", "bogus", 1);
  EXPECT_EQ(dsl::default_backend_from_env(), dsl::Backend::Vm);
  ::unsetenv("FINCH_BACKEND");
  EXPECT_EQ(dsl::default_backend_from_env(), dsl::Backend::Vm);
}

TEST_F(NativeBackendTest, ExplicitVmBackendNeverTouchesTheJit) {
  const double miss0 = counter("jit.cache.miss");
  const double hit0 = counter("jit.cache.hit");
  auto p = toy_problem(kToySurfaceEq, dsl::Backend::Vm);
  auto s = p->compile(dsl::Target::CpuSerial);
  s->run(2);
  EXPECT_EQ(counter("jit.cache.miss"), miss0);
  EXPECT_EQ(counter("jit.cache.hit"), hit0);
}

TEST_F(NativeBackendTest, AutoUsesNativeWhenAvailableElseVm) {
  if (codegen::native_backend_available()) {
    const double batches0 = counter("jit.exec.batches");
    auto p = toy_problem(kToySurfaceEq, dsl::Backend::Auto);
    auto s = p->compile(dsl::Target::CpuSerial);
    s->run(1);
    EXPECT_GT(counter("jit.exec.batches"), batches0);
  }
  codegen::jit_config().disable = true;
  const double miss0 = counter("jit.cache.miss");
  auto p = toy_problem(kToySurfaceEq, dsl::Backend::Auto);
  auto s = p->compile(dsl::Target::CpuSerial);
  s->run(1);  // must run fine on the VM without counting a fallback attempt
  EXPECT_EQ(counter("jit.cache.miss"), miss0);
}

// On the CPU target and on the GPU target, which runs the same kernel in its
// launch and on its boundary cells.
TEST_F(NativeBackendTest, GuardedSolverStaysOnVm) {
  rt::SimGpu gpu(rt::GpuSpec::a6000());
  for (const dsl::Target target : {dsl::Target::CpuSerial, dsl::Target::Gpu}) {
    SCOPED_TRACE(target == dsl::Target::Gpu ? "gpu" : "cpu");
    const double batches0 = counter("jit.exec.batches");
    auto p = toy_problem(kToySurfaceEq, dsl::Backend::Native);
    p->use_cuda(&gpu);
    auto s = p->compile(target);
    s->enable_nonfinite_guard();
    s->run(2);
    EXPECT_EQ(counter("jit.exec.batches"), batches0);
    EXPECT_GT(s->nonfinite_report().evals, 0);
    EXPECT_TRUE(s->nonfinite_report().clean());
  }
}

// The guard through a real VM sweep: the volume term divides by Io[b], which
// is zero for band 1 of cell 4 and band 0 of cell 23. The report must name the
// offender a serial walk of the declared assembly loops reaches first (cell 4
// when cells are outermost, cell 23 when bands are), the dividing
// instruction, and count every evaluation the sweep made (one volume eval per
// DOF plus one surface eval per interior face visit; the flux-BC and BC-less
// walls never run the surface program) — the same on a pool as serially.
dsl::NonFiniteReport expect_guard_report(rt::ThreadPool* pool, std::vector<std::string> order,
                                         int32_t first_cell) {
  auto p = toy_problem("(Io[b] - I[d,b]) * k / Io[b] - surface(vg * upwind([Sx[d];Sy[d]], I[d,b]))",
                       dsl::Backend::Vm);
  p->initial("Io", [](int32_t c, std::span<const int32_t> idx) {
    return (c == 4 && idx[0] == 1) || (c == 23 && idx[0] == 0) ? 0.0 : 0.4 + 0.2 * idx[0];
  });
  if (!order.empty()) p->assembly_loops(std::move(order));
  if (pool != nullptr) p->use_threads(pool);
  auto s = p->compile(pool != nullptr ? dsl::Target::CpuThreads : dsl::Target::CpuSerial);
  s->enable_nonfinite_guard();
  s->run(1);

  const mesh::Mesh& m = p->mesh();
  int64_t interior_visits = 0;
  for (int32_t c = 0; c < m.num_cells(); ++c)
    for (int32_t f : m.cell_faces(c)) interior_visits += m.face(f).is_boundary() ? 0 : 1;
  const int64_t ndof = p->fields().get("I").dof_per_cell();
  const dsl::NonFiniteReport& r = s->nonfinite_report();
  EXPECT_EQ(r.evals, ndof * (m.num_cells() + interior_visits));
  EXPECT_EQ(r.nonfinite_results, 2 * 3);  // the volume evals of 3 directions in two (cell, band)s
  EXPECT_EQ(r.first_cell, first_cell);
  const std::string div = "(op " + std::to_string(static_cast<int>(codegen::Op::Div)) + ")";
  EXPECT_EQ(r.detail.rfind("I kernel, instr ", 0), 0u) << r.detail;
  EXPECT_EQ(r.detail.substr(r.detail.size() - div.size()), div) << r.detail;
  return r;
}

TEST_F(NativeBackendTest, GuardReportsFirstNonFiniteCellSerially) {
  expect_guard_report(nullptr, {}, 4);
  expect_guard_report(nullptr, {"b", "cells", "d"}, 23);
}

TEST_F(NativeBackendTest, ThreadedGuardReportsTheSerialFirstCell) {
  rt::ThreadPool pool(2);
  EXPECT_EQ(expect_guard_report(&pool, {}, 4).detail, expect_guard_report(nullptr, {}, 4).detail);
  EXPECT_EQ(expect_guard_report(&pool, {"b", "cells", "d"}, 23).detail,
            expect_guard_report(nullptr, {"b", "cells", "d"}, 23).detail);
}

// ---- emission ---------------------------------------------------------------

TEST_F(NativeBackendTest, EmittedSourceIsDeterministicAndStructured) {
  bte::GrayScenario scen;
  scen.nx = scen.ny = 8;
  scen.ndirs = 4;
  bte::GrayBteProblem g1(scen), g2(scen);
  const std::string s1 = g1.problem().generated_native_source();
  const std::string s2 = g2.problem().generated_native_source();
  EXPECT_EQ(s1, s2);
  EXPECT_NE(s1.find("extern \"C\" void finch_kernel_v1"), std::string::npos);
  EXPECT_NE(s1.find("finch_kernel_abi_version"), std::string::npos);
  EXPECT_NE(s1.find("-ffp-contract=off"), std::string::npos);
}

namespace {

// Nodes of a symbolic tree, an entity reference counting as one leaf.
size_t tree_size(const sym::Expr& e) {
  auto sum = [](const std::vector<sym::Expr>& parts) {
    size_t n = 1;
    for (const sym::Expr& part : parts) n += tree_size(part);
    return n;
  };
  switch (e->kind()) {
    case sym::Kind::Add: return sum(sym::as<sym::AddNode>(e)->terms);
    case sym::Kind::Mul: return sum(sym::as<sym::MulNode>(e)->factors);
    case sym::Kind::Pow: return sum({sym::as<sym::PowNode>(e)->base, sym::as<sym::PowNode>(e)->expo});
    case sym::Kind::Compare:
      return sum({sym::as<sym::CompareNode>(e)->lhs, sym::as<sym::CompareNode>(e)->rhs});
    case sym::Kind::Call: return sum(sym::as<sym::CallNode>(e)->args);
    case sym::Kind::Vector: return sum(sym::as<sym::VectorNode>(e)->elems);
    default: return 1;
  }
}

}  // namespace

// The toy equation's upwind surface term, compiled as every executor receives
// it. The upwind select evaluates s·n for its condition and for both branches;
// the compiler's value numbering must leave no two structurally equal nodes or
// bindings, so the program is smaller than the tree it came from.
TEST_F(NativeBackendTest, CompiledUpwindSurfaceHasNoRepeatedNode) {
  auto p = toy_problem(kToySurfaceEq, dsl::Backend::Vm);
  (void)p->generated_native_source();  // runs the symbolic pipeline
  codegen::CompileEnv env;
  env.table = &p->entities();
  for (const auto& [name, info] : p->entities().indices()) {
    env.index_order.push_back(name);
    env.index_extent.push_back(info.extent());
  }
  env.fields = &p->fields();
  env.coefficients = &p->indexed_coefficients();
  env.scalar_coefficients = &p->scalar_coefficients();
  const sym::Expr tree = sym::simplify(sym::add(p->equations().front().classified.rhs_surface));
  const codegen::Program prog = codegen::compile(tree, env);

  std::set<std::tuple<codegen::Op, int32_t, int32_t, int32_t, int32_t, uint64_t>> nodes;
  for (const codegen::Node& n : prog.nodes) {
    uint64_t bits = 0;
    std::memcpy(&bits, &n.imm, sizeof bits);
    EXPECT_TRUE(nodes.insert({n.op, n.a, n.b, n.c, n.slot, bits}).second) << codegen::disassemble(prog);
  }
  std::set<std::string> bindings;
  for (const codegen::Binding& b : prog.bindings) EXPECT_TRUE(bindings.insert(b.signature()).second);
  EXPECT_LT(prog.nodes.size(), tree_size(tree)) << codegen::disassemble(prog);
}

// The first-sweep verify against a kernel that does not compute what its
// cache key names: a kernel compiled from the toy equation with one extra
// constant (same array and scalar manifest, so the ABI call is well formed) is
// planted under the toy equation's key. The solve must load it from disk,
// catch the disagreement on the first sweep, demote the equation to the VM and
// end bit-identical to a VM-only solve.
TEST_F(NativeBackendTest, VerifyDemotesAPlantedWrongKernel) {
  constexpr const char* kWrongEq =
      "(Io[b] - I[d,b]) * k * 1.5 - surface(vg * upwind([Sx[d];Sy[d]], I[d,b]))";
  auto manifest = [](const std::string& src) {
    std::string m;
    std::istringstream lines(src);
    for (std::string line; std::getline(lines, line);)
      if (line.rfind("// arrays[", 0) == 0 || line.rfind("// scalars[", 0) == 0) m += line + "\n";
    return m;
  };
  auto shared_object_in = [](const std::string& dir) {
    std::vector<fs::path> found;
    for (const auto& ent : fs::directory_iterator(dir))
      if (ent.path().extension() == ".so") found.push_back(ent.path());
    EXPECT_EQ(found.size(), 1u) << dir;
    return found.empty() ? fs::path() : found.front();
  };
  auto source = [](const std::string& eq) {
    return toy_problem(eq, dsl::Backend::Native)->generated_native_source();
  };
  const std::string right_src = source(kToySurfaceEq);
  const std::string wrong_src = source(kWrongEq);
  ASSERT_NE(right_src, wrong_src);
  ASSERT_EQ(manifest(right_src), manifest(wrong_src));
  ASSERT_FALSE(manifest(right_src).empty());

  auto compile_native = [](const std::string& eq) {
    auto p = toy_problem(eq, dsl::Backend::Native);
    auto s = p->compile(dsl::Target::CpuSerial);
  };
  compile_native(kToySurfaceEq);
  const std::string wrong_dir = cache_dir_ + "_wrong";
  fs::remove_all(wrong_dir);
  codegen::jit_config().cache_dir = wrong_dir;
  compile_native(kWrongEq);
  codegen::jit_config().cache_dir = cache_dir_;
  // Copy, then rename over the entry: a new inode, so the dynamic linker
  // cannot hand back the mapping of the kernel compiled above.
  const fs::path entry = shared_object_in(cache_dir_);
  const fs::path planted = entry.string() + ".planted";
  fs::copy_file(shared_object_in(wrong_dir), planted);
  fs::rename(planted, entry);
  fs::remove_all(wrong_dir);
  codegen::reset_native_memory_cache();

  const double disk0 = counter("jit.cache.hit_disk");
  const double mismatch0 = counter("jit.verify.mismatch");
  const double fb0 = counter("jit.fallback");
  const double sweeps0 = counter("jit.verify.sweeps");
  auto pv = toy_problem(kToySurfaceEq, dsl::Backend::Vm);
  auto pn = toy_problem(kToySurfaceEq, dsl::Backend::Native);
  auto sv = pv->compile(dsl::Target::CpuSerial);
  auto sn = pn->compile(dsl::Target::CpuSerial);
  sv->run(3);
  sn->run(3);
  EXPECT_EQ(counter("jit.cache.hit_disk"), disk0 + 1);
  EXPECT_EQ(counter("jit.verify.mismatch"), mismatch0 + 1);
  EXPECT_EQ(counter("jit.fallback"), fb0 + 1);
  EXPECT_EQ(counter("jit.verify.sweeps"), sweeps0 + 1);
  EXPECT_TRUE(bits_equal(pv->fields().get("I"), pn->fields().get("I")));
}

// ---- one value, one evaluation -------------------------------------------------

// In the two-index toy TU, s·n and the upwind test depend on the face and the
// direction only: they sit in the per-face direction loop of the face table's
// CSR walk, ahead of both bodies' band loops, which read them from the table's
// per-(face, direction) arrays. The kernel stays bitwise equal to the VM in
// the interior and ghost regions.
TEST_F(NativeBackendTest, DirectionOnlyValuesLeaveTheBandLoop) {
  const std::string src = toy_problem(kToySurfaceEq, dsl::Backend::Vm)->generated_native_source();
  const size_t face_loop = src.find("for (int64_t fs");
  const size_t branch = src.find("if (nbr >= 0)");
  const size_t upwind_test = src.find("? 1.0 : 0.0");
  ASSERT_NE(face_loop, std::string::npos);
  ASSERT_NE(branch, std::string::npos);
  EXPECT_LT(face_loop, upwind_test);
  EXPECT_LT(upwind_test, branch) << src;
  EXPECT_EQ(src.find("? 1.0 : 0.0", upwind_test + 1), std::string::npos) << "upwind test emitted twice";
  EXPECT_EQ(src.find("nx", branch), std::string::npos) << "normal read inside a band loop";
  const size_t table = src.find("double S");
  EXPECT_LT(table, face_loop) << "per-direction arrays are declared with the face table";
  EXPECT_NE(src.find("[k][i", face_loop), std::string::npos) << "and filled per face in the CSR walk";
  // One index: no loop outside the direction loop to hoist out of.
  bte::GrayScenario gray;
  gray.ndirs = 4;
  EXPECT_EQ(bte::GrayBteProblem(gray).problem().generated_native_source().find("double S"),
            std::string::npos);
  expect_differential_identity(kToySurfaceEq, fvm::Layout::CellMajor, sym::TimeScheme::ForwardEuler,
                               /*value_bc=*/true);
  expect_differential_identity(kToySurfaceEq, fvm::Layout::DofMajor, sym::TimeScheme::ForwardEuler,
                               /*value_bc=*/true);
}

namespace {

bte::BteScenario small_hot_spot(const char* backend) {
  bte::BteScenario s = bte::BteScenario::small();
  s.nx = 6;
  s.ny = 5;
  s.ndirs = 4;
  s.nbands = 3;
  s.backend = backend;
  return s;
}

std::shared_ptr<const bte::BtePhysics> small_physics() {
  static auto phys = std::make_shared<const bte::BtePhysics>(3, 4);
  return phys;
}

// The angular sums of the committed intensities, by DirectionSet::band_sums,
// laid out like the problem's G field.
std::vector<double> band_sums_of(bte::BteProblem& bp) {
  const fvm::CellField& I = bp.problem().fields().get("I");
  const fvm::CellField& G = bp.problem().fields().get("G");
  const size_t nc = static_cast<size_t>(I.num_cells()), nb = static_cast<size_t>(G.dof_per_cell());
  const bool cell_major = I.layout() == fvm::Layout::CellMajor;
  std::vector<double> sums(G.size()), row(nb);
  for (size_t c = 0; c < nc; ++c) {
    const double* first = I.data().data() + (cell_major ? c * static_cast<size_t>(I.dof_per_cell()) : c);
    bp.physics().directions.band_sums(first, cell_major ? 1 : nc, nb, row.data());
    for (size_t b = 0; b < nb; ++b) sums[cell_major ? c * nb + b : b * nc + c] = row[b];
  }
  return sums;
}

}  // namespace

// After five steps G is bitwise the band_sums of the committed field on every
// target: the VM (serial, guarded), the native kernel (serial, two threads),
// the GPU target on either backend, in both layouts, and under RK2, whose
// stage sweeps are not the committed value.
TEST_F(NativeBackendTest, DeclaredSumsEqualBandSumsOfTheCommittedField) {
  rt::ThreadPool pool(2);
  rt::SimGpu gpu(rt::GpuSpec::a6000());
  struct Case {
    const char* name;
    const char* backend;
    dsl::Target target;
    sym::TimeScheme scheme = sym::TimeScheme::ForwardEuler;
    bool guard = false;
  };
  const Case cases[] = {
      {"vm", "vm", dsl::Target::CpuSerial},
      {"native", "native", dsl::Target::CpuSerial},
      {"native x2", "native", dsl::Target::CpuThreads},
      {"guarded", "native", dsl::Target::CpuSerial, sym::TimeScheme::ForwardEuler, true},
      {"gpu", "vm", dsl::Target::Gpu},
      {"gpu native", "native", dsl::Target::Gpu},
      {"vm rk2", "vm", dsl::Target::CpuSerial, sym::TimeScheme::RK2Midpoint},
      {"native rk2", "native", dsl::Target::CpuSerial, sym::TimeScheme::RK2Midpoint},
  };
  for (const Case& c : cases) {
    for (const fvm::Layout layout : {fvm::Layout::CellMajor, fvm::Layout::DofMajor}) {
      SCOPED_TRACE(std::string(c.name) + (layout == fvm::Layout::CellMajor ? " cell-major" : " dof-major"));
      bte::BteProblem bp(small_hot_spot(c.backend), small_physics());
      bp.problem().layout(layout).time_stepper(c.scheme).use_threads(&pool).use_cuda(&gpu);
      const double fb0 = counter("jit.fallback"), mismatch0 = counter("jit.verify.mismatch");
      auto solver = bp.compile(c.target);
      solver->enable_nonfinite_guard(c.guard);
      solver->run(5);
      EXPECT_EQ(counter("jit.fallback"), fb0);
      EXPECT_EQ(counter("jit.verify.mismatch"), mismatch0);
      const std::vector<double> expect = band_sums_of(bp);
      const fvm::CellField& G = bp.problem().fields().get("G");
      ASSERT_EQ(G.size(), expect.size());
      EXPECT_EQ(std::memcmp(G.data().data(), expect.data(), expect.size() * sizeof(double)), 0);
    }
  }
}

// A sum over the first of three indices leaves a two-index target: the
// kernel's per-(b, p) store and the VM's post-pass agree bitwise, in both
// layouts.
TEST_F(NativeBackendTest, ThreeIndexSumMatchesThePostPass) {
  auto problem = [](dsl::Backend backend, fvm::Layout layout) {
    auto p = std::make_unique<dsl::Problem>("three");
    p->domain(2).set_steps(0.01, 3);
    p->set_mesh(mesh::Mesh::structured_quad(5, 4, 1.0, 1.0));
    p->layout(layout).execution_backend(backend);
    p->index("d", 1, 3).index("b", 1, 2).index("p", 1, 2);
    p->variable("I", {"d", "b", "p"}).variable("G", {"b", "p"});
    p->coefficient("Sx", {0.6, -0.8, 0.2}, {"d"}).coefficient("Sy", {0.4, 0.3, -0.9}, {"d"});
    p->coefficient("W", {0.5, 1.25, 2.0}, {"d"}).coefficient("vb", {1.0, 1.5}, {"b"});
    p->coefficient("k", 0.7);
    p->initial("I", [](int32_t c, std::span<const int32_t> i) {
      return 0.05 * (c + 1) + 0.3 * i[0] - 0.17 * i[1] + 0.11 * i[2];
    });
    p->boundary("I", 1, dsl::BcType::Flux, "three_flux",
                [](const fvm::BoundaryContext& ctx, std::span<double> out) {
                  for (size_t k = 0; k < out.size(); ++k) out[k] = 0.1 * (ctx.cell + 1) + 0.01 * k;
                });
    p->conservation_form("I", "-k*I[d,b,p] - surface(vb[b] * upwind([Sx[d];Sy[d]], I[d,b,p]))");
    p->reduction("G", "I", "d", "W");
    return p;
  };
  for (const fvm::Layout layout : {fvm::Layout::CellMajor, fvm::Layout::DofMajor}) {
    auto pv = problem(dsl::Backend::Vm, layout);
    auto pn = problem(dsl::Backend::Native, layout);
    const double fb0 = counter("jit.fallback"), mismatch0 = counter("jit.verify.mismatch");
    auto sv = pv->compile(dsl::Target::CpuSerial);
    auto sn = pn->compile(dsl::Target::CpuSerial);
    sv->run(4);
    sn->run(4);
    EXPECT_EQ(counter("jit.fallback"), fb0);
    EXPECT_EQ(counter("jit.verify.mismatch"), mismatch0);
    EXPECT_TRUE(bits_equal(pv->fields().get("I"), pn->fields().get("I")));
    EXPECT_TRUE(bits_equal(pv->fields().get("G"), pn->fields().get("G")));
  }
}

// Two equations where the later one's boundary callback reads the earlier
// one's declared sum: u[d] with G = sum_d W[d] u[d], then v[d] with a value
// condition built from G. Every equation's boundary values are filled before
// any sweep of a stage, so on both executors v's callback sees the G of the
// state the stage starts from — not, on the kernel, the sum u's sweep has
// just written. The GPU target sweeps u's interior launch and boundary cells
// before v's, through the same stage loop, and must agree too.
TEST_F(NativeBackendTest, LaterBoundaryReadsTheSameDeclaredSumOnBothExecutors) {
  auto problem = [](dsl::Backend backend, sym::TimeScheme scheme) {
    auto p = std::make_unique<dsl::Problem>("sum_bc");
    p->domain(2).time_stepper(scheme).set_steps(0.01, 3);
    p->set_mesh(mesh::Mesh::structured_quad(5, 4, 1.0, 1.0));
    p->execution_backend(backend);
    p->index("d", 1, 3);
    p->variable("u", {"d"}).variable("G").variable("v", {"d"});
    p->coefficient("Sx", {0.6, -0.8, 0.2}, {"d"}).coefficient("Sy", {0.4, 0.3, -0.9}, {"d"});
    p->coefficient("W", {0.5, 1.25, 2.0}, {"d"}).coefficient("k", 0.7);
    p->initial("u", [](int32_t c, std::span<const int32_t> i) {
      return 0.05 * (c + 1) + 0.3 * i[0];
    });
    p->initial("v", [](int32_t c, std::span<const int32_t> i) {
      return 1.0 - 0.02 * c + 0.1 * i[0];
    });
    p->conservation_form("u", "-k*u[d] - surface(upwind([Sx[d];Sy[d]], u[d]))");
    p->reduction("G", "u", "d", "W");
    p->conservation_form("v", "-k*v[d] - surface(upwind([Sx[d];Sy[d]], v[d]))");
    p->boundary("v", 1, dsl::BcType::Value, "v_from_G",
                [](const fvm::BoundaryContext& ctx, std::span<double> out) {
                  const double g = ctx.fields->get("G").at(ctx.cell, 0);
                  for (size_t k = 0; k < out.size(); ++k) out[k] = g + 0.1 * static_cast<double>(k);
                });
    return p;
  };
  rt::SimGpu gpu(rt::GpuSpec::a6000());
  struct Case {
    const char* name;
    sym::TimeScheme scheme;
    dsl::Target target;
  };
  const Case cases[] = {
      {"Euler", sym::TimeScheme::ForwardEuler, dsl::Target::CpuSerial},
      {"RK2", sym::TimeScheme::RK2Midpoint, dsl::Target::CpuSerial},
      {"gpu", sym::TimeScheme::ForwardEuler, dsl::Target::Gpu},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto pv = problem(dsl::Backend::Vm, c.scheme);
    auto pn = problem(dsl::Backend::Native, c.scheme);
    pn->use_cuda(&gpu);
    auto sv = pv->compile(dsl::Target::CpuSerial);
    const double fb0 = counter("jit.fallback"), mismatch0 = counter("jit.verify.mismatch");
    auto sn = pn->compile(c.target);
    ASSERT_EQ(counter("jit.fallback"), fb0) << "JIT fell back instead of compiling";
    sv->run(3);
    sn->run(3);
    EXPECT_EQ(counter("jit.fallback"), fb0);
    EXPECT_EQ(counter("jit.verify.mismatch"), mismatch0);
    for (const char* name : {"u", "G", "v"})
      EXPECT_TRUE(bits_equal(pv->fields().get(name), pn->fields().get(name))) << name;
  }
}

// One sweep calls each boundary callback once per (cell, boundary face) on
// every target, whatever the number of DOFs per cell.
TEST_F(NativeBackendTest, OneBoundaryCallPerFacePerSweep) {
  rt::SimGpu gpu(rt::GpuSpec::a6000());
  bte::BteProblem vm(small_hot_spot("vm"), small_physics());
  const mesh::Mesh& m = vm.problem().mesh();
  int64_t bc_faces = 0;  // every wall region has a condition
  for (int32_t c = 0; c < m.num_cells(); ++c)
    for (int32_t f : m.cell_faces(c)) bc_faces += m.face(f).is_boundary() ? 1 : 0;
  ASSERT_EQ(bc_faces, 2 * (6 + 5));
  auto calls_in_step = [](dsl::Solver& s) {
    const double before = counter("bc.calls");
    s.step();
    return static_cast<int64_t>(counter("bc.calls") - before);
  };
  EXPECT_EQ(calls_in_step(*vm.compile(dsl::Target::CpuSerial)), bc_faces);
  bte::BteProblem dev(small_hot_spot("vm"), small_physics());
  dev.problem().use_cuda(&gpu);
  EXPECT_EQ(calls_in_step(*dev.compile(dsl::Target::Gpu)), bc_faces);
  for (const dsl::Target target : {dsl::Target::CpuSerial, dsl::Target::Gpu}) {
    SCOPED_TRACE(target == dsl::Target::Gpu ? "gpu native" : "native");
    bte::BteProblem native(small_hot_spot("native"), small_physics());
    native.problem().use_cuda(&gpu);
    auto sn = native.compile(target);
    // The first sweep's verify replays the VM sweep on the values the kernel
    // read: no second call.
    EXPECT_EQ(calls_in_step(*sn), bc_faces);
    EXPECT_EQ(calls_in_step(*sn), bc_faces);
  }
}

// An equation without surface terms has no boundary slots: a condition
// registered for its variable is never called, on the VM or the native path.
TEST_F(NativeBackendTest, VolumeOnlyEquationCallsNoBoundaryCallback) {
  for (const dsl::Backend backend : {dsl::Backend::Vm, dsl::Backend::Native}) {
    auto p = toy_problem("(Io[b] - I[d,b]) * k", backend);
    ASSERT_EQ(p->boundaries().regions("I"), std::vector<int>{1});
    const double fb0 = counter("jit.fallback");
    auto s = p->compile(dsl::Target::CpuSerial);
    ASSERT_EQ(counter("jit.fallback"), fb0);
    const double calls0 = counter("bc.calls");
    s->run(2);
    EXPECT_EQ(counter("bc.calls"), calls0) << dsl::backend_to_string(backend);
  }
}

// The toy with its value BC: the x walls have no BC and y-min is a flux BC,
// so those cells run the general body, while y-max cells (a value-BC face)
// and the interior run the fused one — both bodies in one solve, bitwise the
// VM's, and the counter names exactly the general cells.
TEST_F(NativeBackendTest, ToyRunsBothKernelBodiesBitIdentical) {
  auto pv = toy_problem(kToySurfaceEq, dsl::Backend::Vm, fvm::Layout::CellMajor,
                        sym::TimeScheme::ForwardEuler, /*value_bc=*/true);
  auto pn = toy_problem(kToySurfaceEq, dsl::Backend::Native, fvm::Layout::CellMajor,
                        sym::TimeScheme::ForwardEuler, /*value_bc=*/true);
  const int64_t general = general_cells_of(pn->mesh(), {2});
  ASSERT_GT(general, 0);
  ASSERT_LT(general, pn->mesh().num_cells());
  auto sv = pv->compile(dsl::Target::CpuSerial);
  const double fb0 = counter("jit.fallback"), mismatch0 = counter("jit.verify.mismatch");
  auto sn = pn->compile(dsl::Target::CpuSerial);
  ASSERT_EQ(counter("jit.fallback"), fb0);
  const GeneralCellsPerSweep per_sweep;
  sv->run(4);
  sn->run(4);
  EXPECT_EQ(counter("jit.verify.mismatch"), mismatch0);
  EXPECT_EQ(per_sweep.value(), static_cast<double>(general));
  EXPECT_TRUE(bits_equal(pv->fields().get("I"), pn->fields().get("I")));
}

// The spectral BTE on a 3-D hex mesh (K = 6) with a flux BC on every wall:
// the boundary shell runs the general body, the interior the fused one, and
// every field matches the VM's bitwise.
TEST_F(NativeBackendTest, Bte3dHexMeshBitIdentical) {
  auto phys = std::make_shared<const bte::BtePhysics>(4, 2, 4);
  bte::Bte3dScenario s;
  s.nx = s.ny = s.nz = 5;
  s.lx = s.ly = s.lz = 25e-6;
  s.hot_w = 10e-6;
  s.n_polar = 2;
  s.n_azimuth = 4;
  s.nbands = 4;
  bte::BteProblem3d bv(s, phys), bn(s, phys);
  bv.problem().execution_backend(dsl::Backend::Vm);
  bn.problem().execution_backend(dsl::Backend::Native);
  const mesh::Mesh& m = bn.problem().mesh();
  ASSERT_EQ(m.cell_faces(0).size(), 6u);
  const int64_t general = general_cells_of(m, {});
  ASSERT_EQ(general, 5 * 5 * 5 - 3 * 3 * 3);
  auto sv = bv.compile(dsl::Target::CpuSerial);
  const double fb0 = counter("jit.fallback"), mismatch0 = counter("jit.verify.mismatch");
  auto sn = bn.compile(dsl::Target::CpuSerial);
  ASSERT_EQ(counter("jit.fallback"), fb0);
  const GeneralCellsPerSweep per_sweep;
  sv->run(3);
  sn->run(3);
  EXPECT_EQ(counter("jit.verify.mismatch"), mismatch0);
  EXPECT_EQ(per_sweep.value(), static_cast<double>(general));
  for (const char* f : {"I", "G", "T", "Io", "beta"})
    EXPECT_TRUE(bits_equal(bv.problem().fields().get(f), bn.problem().fields().get(f))) << f;
}

// The general body stages vol[NDOF] and flux[NDOF] on the stack, so the
// emitter lowers up to 16384 DOFs per cell. One past the cap, the equation
// runs on the VM (counted in jit.fallback) with the VM's exact answer.
TEST_F(NativeBackendTest, DofsPerCellPastTheStagingCapRunOnTheVm) {
  auto wide = [](int ndirs, dsl::Backend backend) {
    auto p = std::make_unique<dsl::Problem>("wide");
    p->domain(2).set_steps(0.01, 2);
    p->set_mesh(mesh::Mesh::structured_quad(2, 1, 1.0, 1.0));
    p->execution_backend(backend);
    p->index("d", 1, ndirs);
    p->variable("I", {"d"});
    std::vector<double> sx(static_cast<size_t>(ndirs)), sy(sx.size());
    for (size_t d = 0; d < sx.size(); ++d) {
      sx[d] = std::cos(1e-3 * static_cast<double>(d));
      sy[d] = std::sin(1e-3 * static_cast<double>(d));
    }
    p->coefficient("Sx", sx, {"d"}).coefficient("Sy", sy, {"d"});
    p->coefficient("k", 0.7).coefficient("vg", 1.3);
    p->initial("I", [](int32_t c, std::span<const int32_t> idx) { return 0.1 * (c + 1) + 1e-4 * idx[0]; });
    p->conservation_form("I", "-k * I[d] - surface(vg * upwind([Sx[d];Sy[d]], I[d]))");
    return p;
  };
  for (const int ndofs : {16384, 16385}) {
    SCOPED_TRACE(ndofs);
    const bool lowered = ndofs <= 16384;
    auto pv = wide(ndofs, dsl::Backend::Vm);
    auto pn = wide(ndofs, dsl::Backend::Native);
    auto sv = pv->compile(dsl::Target::CpuSerial);
    const double fb0 = counter("jit.fallback"), batches0 = counter("jit.exec.batches");
    auto sn = pn->compile(dsl::Target::CpuSerial);
    EXPECT_EQ(counter("jit.fallback"), fb0 + (lowered ? 0.0 : 1.0));
    sv->run(2);
    sn->run(2);
    EXPECT_EQ(counter("jit.exec.batches") > batches0, lowered);
    EXPECT_TRUE(bits_equal(pv->fields().get("I"), pn->fields().get("I")));
  }
}

// A kernel whose field is right but whose fused sum is not: the first-sweep
// verify compares the sum too, demotes the equation and keeps the post-pass's
// sums, so the solve ends bit-identical to a VM-only one.
TEST_F(NativeBackendTest, VerifyDemotesAKernelWithAWrongFusedSum) {
  auto hot_spot = [](const char* backend) {
    return std::make_unique<bte::BteProblem>(small_hot_spot(backend), small_physics());
  };
  const std::string right_src = hot_spot("native")->problem().generated_native_source();
  const std::string accumulate = "red += ";
  const size_t at = right_src.find(accumulate);
  ASSERT_NE(at, std::string::npos);
  std::string wrong_src = right_src;
  wrong_src.replace(at, accumulate.size(), "red += 0.5 * ");
  (void)hot_spot("native")->compile(dsl::Target::CpuSerial);  // publishes the right kernel
  fs::path entry;
  for (const auto& ent : fs::directory_iterator(cache_dir_))
    if (ent.path().extension() == ".so") entry = ent.path();
  ASSERT_FALSE(entry.empty());
  codegen::NativePlan wrong;
  wrong.source = wrong_src;
  const std::string wrong_dir = cache_dir_ + "_wrong";
  fs::remove_all(wrong_dir);
  codegen::jit_config().cache_dir = wrong_dir;
  std::string err;
  ASSERT_TRUE(codegen::load_native_plan(wrong, &err)) << err;
  codegen::jit_config().cache_dir = cache_dir_;
  fs::path wrong_so;
  for (const auto& ent : fs::directory_iterator(wrong_dir))
    if (ent.path().extension() == ".so") wrong_so = ent.path();
  const fs::path planted = entry.string() + ".planted";
  fs::copy_file(wrong_so, planted);
  fs::rename(planted, entry);
  fs::remove_all(wrong_dir);
  codegen::reset_native_memory_cache();

  const double mismatch0 = counter("jit.verify.mismatch");
  auto bv = hot_spot("vm");
  auto bn = hot_spot("native");
  bv->compile(dsl::Target::CpuSerial)->run(3);
  bn->compile(dsl::Target::CpuSerial)->run(3);
  EXPECT_EQ(counter("jit.verify.mismatch"), mismatch0 + 1);
  for (const char* f : {"I", "G", "T", "Io", "beta"})
    EXPECT_TRUE(bits_equal(bv->problem().fields().get(f), bn->problem().fields().get(f))) << f;
}

}  // namespace
