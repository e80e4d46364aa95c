// Pinned fields: FNV-1a-64 hashes of the fields after a few steps of small
// problems, on every execution path, against values committed together with
// the toolchain that produced them.
//
// The other numerical tests compare paths with each other (bit identity
// between executors) or with DirectSolver at 1e-10, so a last-bit change in
// the shared program moves every path together and passes them. These hashes
// do not move with it: a change that is meant to alter the numerics updates
// them in its own commit, and any other change must leave them alone.
//
// The bits depend on the compiler, on the C library (glibc picks its FMA
// variants of exp/pow by CPU) and on the CPU's FMA support, so the test
// records all three. On any other toolchain it skips, naming both; on a
// mismatch it prints every hash of the failing family, ready to commit.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include "bte/bte_problem.hpp"
#include "bte/direct_solver.hpp"
#include "bte/gray.hpp"
#include "bte/multi_gpu_solver.hpp"
#include "bte/partitioned_solver.hpp"
#include "core/codegen/native_backend.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/metrics.hpp"
#include "runtime/simgpu.hpp"
#include "runtime/thread_pool.hpp"

using namespace finch;
namespace fs = std::filesystem;

namespace {

// The toolchain the hashes below were produced with.
constexpr const char* kPinnedToolchain = "gcc 12.2.0, glibc 2.36, fma";

std::string toolchain() {
#if defined(__clang__)
  std::string s = "clang " __clang_version__;
#elif defined(__GNUC__)
  std::string s = "gcc " __VERSION__;
#else
  std::string s = "unknown compiler";
#endif
#if defined(__GLIBC__)
  s += ", glibc " + std::string(gnu_get_libc_version());
#else
  s += ", no glibc";
#endif
#if defined(__x86_64__) || defined(__i386__)
  s += __builtin_cpu_supports("fma") ? ", fma" : ", no fma";
#endif
  return s;
}

uint64_t hash(std::span<const double> v) { return rt::fnv1a64(std::as_bytes(v)); }
uint64_t hash(const fvm::CellField& f) { return hash(f.data()); }

// One path's hashes, in the family's field order.
struct PathHashes {
  std::string path;
  std::vector<uint64_t> got;
};

// Checks every path of a family against its pinned hashes; on a mismatch
// prints the family's hashes so a deliberate numeric change can commit them.
void expect_pinned(const char* family, const std::vector<std::string>& fields,
                   const std::vector<uint64_t>& pinned, const std::vector<PathHashes>& runs) {
  bool ok = true;
  for (const PathHashes& r : runs) {
    ASSERT_EQ(r.got.size(), pinned.size()) << r.path;
    for (size_t i = 0; i < pinned.size(); ++i) {
      EXPECT_EQ(r.got[i], pinned[i]) << family << " on " << r.path << ": field " << fields[i];
      ok = ok && r.got[i] == pinned[i];
    }
  }
  if (ok) return;
  std::printf("new hashes of %s (toolchain %s):\n", family, toolchain().c_str());
  for (const PathHashes& r : runs) {
    std::printf("  %-12s", r.path.c_str());
    for (size_t i = 0; i < r.got.size(); ++i)
      std::printf(" %s 0x%016" PRIx64 "ull", fields[i].c_str(), r.got[i]);
    std::printf("\n");
  }
}

// The small hot spot every family of the 2-D spectral BTE runs.
bte::BteScenario hot_spot(const char* backend) {
  bte::BteScenario s;
  s.nx = 12;
  s.ny = 10;
  s.lx = s.ly = 50e-6;
  s.hot_w = 20e-6;
  s.ndirs = 8;
  s.nbands = 6;
  s.dt = 1e-12;
  s.backend = backend;
  return s;
}

std::shared_ptr<const bte::BtePhysics> physics() {
  static auto phys = std::make_shared<const bte::BtePhysics>(6, 8);
  return phys;
}

constexpr int kSteps = 5;

double counter(const char* name) { return rt::MetricsRegistry::global().counter(name).value(); }

class PinnedFields : public ::testing::Test {
 protected:
  void SetUp() override {
    if (toolchain() != kPinnedToolchain)
      GTEST_SKIP() << "hashes pinned with " << kPinnedToolchain << "; this build: " << toolchain();
    codegen::reset_jit_config_from_env();
    codegen::jit_config().cache_dir = cache_dir_;
    fallback0_ = counter("jit.fallback");
  }
  void TearDown() override {
    if (IsSkipped()) return;
    // A native path that fell back to the VM would pass on the VM's bits.
    if (codegen::native_backend_available()) {
      EXPECT_EQ(counter("jit.fallback"), fallback0_);
    }
    codegen::reset_jit_config_from_env();
  }
  static void TearDownTestSuite() { fs::remove_all(cache_dir_); }

  // I, T and G after a DSL solve of `bp` on `target`.
  template <class P>
  static PathHashes dsl_run(const std::string& path, P& bp, dsl::Target target) {
    bp.compile(target)->run(kSteps);
    const fvm::FieldSet& f = bp.problem().fields();
    return {path, {hash(f.get("I")), hash(f.get("T")), hash(f.get("G"))}};
  }

  static inline const std::string cache_dir_ = ::testing::TempDir() + "finch_jit_pinned_fields";
  double fallback0_ = 0.0;
};

TEST_F(PinnedFields, SpectralHotSpotOnEveryDslPath) {
  rt::ThreadPool pool(2);
  rt::SimGpu gpu(rt::GpuSpec::a6000());
  std::vector<PathHashes> runs;
  {
    bte::BteProblem bp(hot_spot("vm"), physics());
    runs.push_back(dsl_run("vm", bp, dsl::Target::CpuSerial));
  }
  {
    bte::BteProblem bp(hot_spot("native"), physics());
    runs.push_back(dsl_run("native", bp, dsl::Target::CpuSerial));
  }
  {
    bte::BteProblem bp(hot_spot("native"), physics());
    bp.problem().use_threads(&pool);
    runs.push_back(dsl_run("native x2", bp, dsl::Target::CpuThreads));
  }
  {
    bte::BteProblem bp(hot_spot("vm"), physics());
    bp.problem().use_cuda(&gpu);
    runs.push_back(dsl_run("gpu vm", bp, dsl::Target::Gpu));
  }
  {
    bte::BteProblem bp(hot_spot("native"), physics());
    bp.problem().use_cuda(&gpu);
    runs.push_back(dsl_run("gpu native", bp, dsl::Target::Gpu));
  }
  expect_pinned("the spectral hot spot", {"I", "T", "G"},
                {0x6d48bb7f4b51429aull, 0x1512c729e6329ba0ull, 0x0183e17614c1cde3ull}, runs);
}

TEST_F(PinnedFields, GrayModelOnVmAndNative) {
  std::vector<PathHashes> runs;
  for (const auto backend : {dsl::Backend::Vm, dsl::Backend::Native}) {
    bte::GrayScenario s;
    s.nx = s.ny = 8;
    s.ndirs = 4;
    bte::GrayBteProblem g(s);
    g.problem().execution_backend(backend);
    runs.push_back(dsl_run(dsl::backend_to_string(backend), g, dsl::Target::CpuSerial));
  }
  expect_pinned("the gray model", {"I", "T", "G"},
                {0x85691963adcb7a95ull, 0xb40f175e01b4a205ull, 0x4aed10df167be495ull}, runs);
}

TEST_F(PinnedFields, Bte3dOnVmAndNative) {
  auto phys = std::make_shared<const bte::BtePhysics>(4, 2, 4);
  std::vector<PathHashes> runs;
  for (const auto backend : {dsl::Backend::Vm, dsl::Backend::Native}) {
    bte::Bte3dScenario s;
    s.nx = s.ny = s.nz = 5;
    s.lx = s.ly = s.lz = 25e-6;
    s.hot_w = 10e-6;
    s.n_polar = 2;
    s.n_azimuth = 4;
    s.nbands = 4;
    bte::BteProblem3d b(s, phys);
    b.problem().execution_backend(backend);
    runs.push_back(dsl_run(dsl::backend_to_string(backend), b, dsl::Target::CpuSerial));
  }
  expect_pinned("the 3-D hex BTE", {"I", "T", "G"},
                {0xbc0e9c208c38be47ull, 0xd809117e9fde1a2full, 0x78547fb1c56a8749ull}, runs);
}

// The hand-written upwind update: DirectSolver and the distributed
// strategies, which match it bitwise.
TEST_F(PinnedFields, UpwindFamilyOnEveryStrategy) {
  const bte::BteScenario s = hot_spot("");
  std::vector<PathHashes> runs;
  {
    bte::DirectSolver direct(s, physics());
    direct.run(kSteps);
    runs.push_back({"direct", {hash(direct.intensity()), hash(direct.temperature())}});
  }
  auto distributed = [&](const std::string& path, bte::DistributedEngine& e) {
    e.run(kSteps);
    runs.push_back({path, {hash(e.gather_intensity()), hash(e.gather_temperature())}});
  };
  bte::CellPartitionedSolver cell(s, physics(), 3);
  distributed("cellpart", cell);
  bte::BandPartitionedSolver band(s, physics(), 2);
  distributed("bandpart", band);
  bte::MultiGpuSolver mgpu(s, physics(), 2);
  distributed("mgpu", mgpu);
  expect_pinned("the upwind family", {"I", "T"}, {0x9b15933885f2c863ull, 0x666cd0e8c8a56dcdull}, runs);
}

}  // namespace
