// Tests for the printed artifacts: the IR pseudocode (assembly order, comment
// nodes) and the CUDA rendering — the native kernel in its CUDA dialect plus
// the §II.B host driver. The CUDA kernel is checked by execution: built
// exactly as printed through a test-only shim, it must match the VM bitwise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "bte/bte_problem.hpp"
#include "core/codegen/native_backend.hpp"
#include "core/dsl/problem.hpp"
#include "mesh/mesh.hpp"
#include "runtime/metrics.hpp"

using namespace finch;
namespace fs = std::filesystem;

namespace {

dsl::Problem bte_like_problem() {
  dsl::Problem p("srcgen");
  p.set_mesh(mesh::Mesh::structured_quad(4, 4, 1.0, 1.0));
  p.set_steps(1e-12, 1);
  p.index("d", 1, 4);
  p.index("b", 1, 3);
  p.variable("I", {"d", "b"});
  p.variable("Io", {"b"});
  p.variable("beta", {"b"});
  p.coefficient("Sx", {1, -1, 0.5, -0.5}, {"d"});
  p.coefficient("Sy", {0.5, 0.5, -1, 1}, {"d"});
  p.coefficient("vg", {1, 2, 3}, {"b"});
  p.conservation_form("I", "(Io[b]-I[d,b])*beta[b] - surface(vg[b]*upwind([Sx[d];Sy[d]], I[d,b]))");
  p.initial("I", [](int32_t, std::span<const int32_t>) { return 1.0; });
  p.boundary("I", 1, dsl::BcType::Flux, "isothermal_cold",
             [](const fvm::BoundaryContext&, std::span<double> out) { std::ranges::fill(out, 0.0); });
  p.boundary("I", 3, dsl::BcType::Flux, "symmetry",
             [](const fvm::BoundaryContext&, std::span<double> out) { std::ranges::fill(out, 0.0); });
  return p;
}

}  // namespace

TEST(CudaEmitter, HostDriverFollowsFig6) {
  auto p = bte_like_problem();
  std::string src = p.generated_cuda_source();
  // The §II.B host-step structure, in order, launching the dialect's kernel.
  const size_t launch = src.find("step_I<<<grid, block, 0, stream>>>");
  const size_t boundary = src.find("compute_boundary_region");
  const size_t sync = src.find("cudaStreamSynchronize(stream)");
  const size_t combine = src.find("combine_interior_and_boundary");
  const size_t post = src.find("run_post_step_callbacks");
  const size_t upload = src.find("upload_step_variables");
  ASSERT_NE(launch, std::string::npos);
  ASSERT_NE(boundary, std::string::npos);
  ASSERT_NE(sync, std::string::npos);
  ASSERT_NE(combine, std::string::npos);
  ASSERT_NE(post, std::string::npos);
  ASSERT_NE(upload, std::string::npos);
  EXPECT_LT(src.find("__global__ void step_I("), launch);
  EXPECT_LT(launch, boundary);
  EXPECT_LT(boundary, sync);
  EXPECT_LT(sync, combine);
  EXPECT_LT(combine, post);
  EXPECT_LT(post, upload);
}

TEST(CudaEmitter, RegisteredCallbacksAreNamed) {
  auto p = bte_like_problem();
  std::string src = p.generated_cuda_source();
  EXPECT_NE(src.find("callback_isothermal_cold"), std::string::npos);
  EXPECT_NE(src.find("callback_symmetry"), std::string::npos);
}

TEST(CudaEmitter, EveryRegisteredBoundaryRegionIsDriven) {
  // gmsh physical tags become region ids unchanged, so a condition may sit on
  // any region number; the host driver runs each one, in ascending order.
  auto p = bte_like_problem();
  p.boundary("I", 12, dsl::BcType::Flux, "far_wall",
             [](const fvm::BoundaryContext&, std::span<double> out) { std::ranges::fill(out, 0.0); });
  std::string src = p.generated_cuda_source();
  const size_t r1 = src.find("compute_boundary_region(h, /*region=*/1, callback_isothermal_cold);");
  const size_t r3 = src.find("compute_boundary_region(h, /*region=*/3, callback_symmetry);");
  const size_t r12 = src.find("compute_boundary_region(h, /*region=*/12, callback_far_wall);");
  ASSERT_NE(r1, std::string::npos);
  ASSERT_NE(r3, std::string::npos);
  ASSERT_NE(r12, std::string::npos);
  EXPECT_LT(r1, r3);
  EXPECT_LT(r3, r12);
  EXPECT_EQ(src.find("compute_boundary_contribution(h)"), std::string::npos);
}

// The CUDA kernel is the native TU with two changes: a __global__ entry that
// takes the argument block by value, and the cell loop turned into one thread
// per cell of the launch. Undoing both gives back the C++ TU byte for byte.
TEST(CudaEmitter, KernelIsTheNativeTuWithAThreadPerCell) {
  auto p = bte_like_problem();
  const std::string cpp = p.generated_native_source();
  std::string cuda = p.generated_cuda_source();
  cuda.resize(cuda.find("// step_I: interior bulk on device"));
  auto undo = [&cuda](const std::string& from, const std::string& to) {
    const size_t at = cuda.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    cuda.replace(at, from.size(), to);
  };
  undo("__global__ void step_I(const finch_kernel_args_v1 args) {\n"
       "  const finch_kernel_args_v1* A = &args;\n",
       "extern \"C\" void finch_kernel_v1(const finch_kernel_args_v1* A) {\n");
  undo("  {  // one thread per cell of the launch\n"
       "    const int64_t cell = A->cell_begin + (int64_t)blockIdx.x * blockDim.x + threadIdx.x;\n"
       "    if (cell >= A->cell_end) return;\n",
       "  for (int64_t cell = A->cell_begin; cell < A->cell_end; ++cell) {\n");
  EXPECT_EQ(cuda, cpp + "\n");
}

TEST(IrPseudocode, ShowsLoopsTermsAndComments) {
  auto p = bte_like_problem();
  std::string ir = p.ir_pseudocode();
  EXPECT_NE(ir.find("# update of I via explicit FV step"), std::string::npos);
  EXPECT_NE(ir.find("for cell = 1:Ncells"), std::string::npos);
  EXPECT_NE(ir.find("for d = 1:4"), std::string::npos);
  EXPECT_NE(ir.find("for b = 1:3"), std::string::npos);
  EXPECT_NE(ir.find("source ="), std::string::npos);
  EXPECT_NE(ir.find("flux += "), std::string::npos);
  EXPECT_NE(ir.find("I_new = source + flux"), std::string::npos);
}

TEST(IrPseudocode, NestedLoopsFollowAssemblyOrder) {
  auto p = bte_like_problem();
  std::string ir = p.ir_pseudocode();
  // Default order: cells outermost, then declared indices.
  const size_t cells_pos = ir.find("for cell = 1:Ncells");
  const size_t d_pos = ir.find("for d = 1:4");
  const size_t b_pos = ir.find("for b = 1:3");
  ASSERT_NE(cells_pos, std::string::npos);
  ASSERT_NE(d_pos, std::string::npos);
  ASSERT_NE(b_pos, std::string::npos);
  EXPECT_LT(cells_pos, d_pos);
  EXPECT_LT(d_pos, b_pos);
}

TEST(IrPseudocode, PermutedLoopOrderIsHonored) {
  auto p = bte_like_problem();
  p.assembly_loops({"b", "cells", "d"});
  std::string ir = p.ir_pseudocode();
  const size_t b_pos = ir.find("for b = 1:3");
  const size_t cells_pos = ir.find("for cell = 1:Ncells");
  const size_t d_pos = ir.find("for d = 1:4");
  ASSERT_NE(b_pos, std::string::npos);
  ASSERT_NE(cells_pos, std::string::npos);
  ASSERT_NE(d_pos, std::string::npos);
  EXPECT_LT(b_pos, cells_pos);
  EXPECT_LT(cells_pos, d_pos);
}

// "Comment nodes to facilitate generation of easily readable code" (§II.A):
// all four, at their anchors.
TEST(IrPseudocode, CommentNodesAppearInOutput) {
  auto p = bte_like_problem();
  std::string ir = p.ir_pseudocode();
  const size_t prologue = ir.find("# update of I via explicit FV step");
  const size_t volume = ir.find("# RHS volume integrand");
  const size_t surface = ir.find("# RHS surface integrand");
  const size_t update = ir.find("# combine: u_new = rhs_volume");
  ASSERT_NE(prologue, std::string::npos);
  ASSERT_NE(volume, std::string::npos);
  ASSERT_NE(surface, std::string::npos);
  ASSERT_NE(update, std::string::npos);
  EXPECT_LT(prologue, volume);
  EXPECT_LT(volume, ir.find("source ="));
  EXPECT_LT(surface, ir.find("flux = 0"));
  EXPECT_LT(update, ir.find("I_new ="));
}

TEST(IrPseudocode, VolumeOnlyEquationHasNoFluxLoop) {
  dsl::Problem p("noflux");
  p.set_mesh(mesh::Mesh::structured_quad(2, 2, 1.0, 1.0));
  p.variable("u");
  p.coefficient("k", 1.0);
  p.conservation_form("u", "-k*u");
  p.initial("u", [](int32_t, std::span<const int32_t>) { return 1.0; });
  std::string ir = p.ir_pseudocode();
  EXPECT_EQ(ir.find("flux"), std::string::npos);
  EXPECT_NE(ir.find("u_new = source"), std::string::npos);
}

// ---- the printed CUDA kernel, run ---------------------------------------------

namespace {

double counter(const char* name) { return rt::MetricsRegistry::global().counter(name).value(); }

bool bits_equal(const fvm::CellField& a, const fvm::CellField& b) {
  return a.data().size() == b.data().size() &&
         std::memcmp(a.data().data(), b.data().data(), a.data().size() * sizeof(double)) == 0;
}

fs::path shared_object_in(const std::string& dir) {
  fs::path found;
  for (const auto& ent : fs::directory_iterator(dir))
    if (ent.path().extension() == ".so") found = ent.path();
  return found;
}

// What lets the system compiler build the printed CUDA kernel: __global__
// goes, and the launch's block and thread indices are thread-local variables
// that the launcher drives.
constexpr const char* kShimHead =
    "#define __global__\n"
    "struct finch_uint3 { unsigned x; };\n"
    "static thread_local finch_uint3 blockIdx, blockDim, threadIdx;\n";

// The v1 entry the JIT loads: one launch of `kernel` over [cell_begin,
// cell_end), 32 threads a block, the last block partly past the end.
std::string launcher(const std::string& kernel) {
  return "extern \"C\" void finch_kernel_v1(const finch_kernel_args_v1* A) {\n"
         "  blockDim.x = 32;\n"
         "  for (blockIdx.x = 0; A->cell_begin + (int64_t)blockIdx.x * blockDim.x < A->cell_end; ++blockIdx.x)\n"
         "    for (threadIdx.x = 0; threadIdx.x < blockDim.x; ++threadIdx.x) " +
         kernel + "(*A);\n}\n";
}

class CudaDialect : public ::testing::Test {
 protected:
  void SetUp() override {
    codegen::reset_jit_config_from_env();
    if (!codegen::native_backend_available()) GTEST_SKIP() << "no JIT compiler";
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    cache_dir_ = ::testing::TempDir() + "finch_jit_" + info->name();
    fs::remove_all(cache_dir_);
    fs::remove_all(cache_dir_ + "_cuda");
    codegen::jit_config().cache_dir = cache_dir_;
    codegen::reset_native_memory_cache();
  }
  void TearDown() override {
    codegen::reset_jit_config_from_env();
    fs::remove_all(cache_dir_);
    fs::remove_all(cache_dir_ + "_cuda");
  }

  // Builds `problem(backend)`'s printed CUDA kernel with the shim through
  // load_native_plan and plants it in the kernel cache under the C++ TU's
  // entry. Then a native solve loads and runs it on every sweep, and must
  // end bitwise equal to a VM solve with its first-sweep verify clean.
  template <class MakeProblem>
  void expect_printed_cuda_matches_the_vm(MakeProblem problem, int steps) {
    const std::string printed = problem("native")->problem().generated_cuda_source();
    const size_t driver = printed.find("// step_I: interior bulk on device");
    ASSERT_NE(driver, std::string::npos);
    codegen::NativePlan cuda;
    cuda.source = kShimHead + printed.substr(0, driver) + launcher("step_I");
    codegen::jit_config().cache_dir = cache_dir_ + "_cuda";
    std::string err;
    ASSERT_TRUE(codegen::load_native_plan(cuda, &err)) << err;
    codegen::jit_config().cache_dir = cache_dir_;

    (void)problem("native")->compile(dsl::Target::CpuSerial);  // publishes the C++ TU's entry
    const fs::path entry = shared_object_in(cache_dir_);
    ASSERT_FALSE(entry.empty());
    // Copy, then rename over the entry: a new inode, so the dynamic linker
    // cannot hand back the mapping of the kernel compiled above.
    const fs::path planted = entry.string() + ".planted";
    fs::copy_file(shared_object_in(cache_dir_ + "_cuda"), planted);
    fs::rename(planted, entry);
    codegen::reset_native_memory_cache();

    const double disk0 = counter("jit.cache.hit_disk"), mismatch0 = counter("jit.verify.mismatch");
    const double fb0 = counter("jit.fallback"), sweeps0 = counter("jit.verify.sweeps");
    const double batches0 = counter("jit.exec.batches"), general0 = counter("jit.exec.general_cells");
    auto pv = problem("vm");
    auto pn = problem("native");
    pv->compile(dsl::Target::CpuSerial)->run(steps);
    auto sn = pn->compile(dsl::Target::CpuSerial);
    EXPECT_EQ(counter("jit.cache.hit_disk"), disk0 + 1);
    sn->run(steps);
    EXPECT_EQ(counter("jit.fallback"), fb0);
    EXPECT_EQ(counter("jit.verify.sweeps"), sweeps0 + 1);
    EXPECT_EQ(counter("jit.verify.mismatch"), mismatch0);
    EXPECT_EQ(counter("jit.exec.batches"), batches0 + steps);
    // Both bodies ran: some cells are general, not all.
    const double general = (counter("jit.exec.general_cells") - general0) / steps;
    EXPECT_GT(general, 0.0);
    EXPECT_LT(general, pn->problem().mesh().num_cells());
    for (const char* f : {"I", "G", "T", "Io", "beta"})
      EXPECT_TRUE(bits_equal(pv->problem().fields().get(f), pn->problem().fields().get(f))) << f;
  }

  std::string cache_dir_;
};

// The spectral hot spot with a value BC on the cold wall: interior cells and
// the cold wall's inner cells run the fused body, the rest (flux walls, and
// corners with a value and a flux face) the general one.
TEST_F(CudaDialect, PrintedKernelMatchesTheVmOnTheHotSpot) {
  auto phys = std::make_shared<const bte::BtePhysics>(6, 8);
  expect_printed_cuda_matches_the_vm(
      [phys](const char* backend) {
        bte::BteScenario s;
        s.nx = 12;
        s.ny = 10;
        s.lx = s.ly = 50e-6;
        s.hot_w = 20e-6;
        s.ndirs = 8;
        s.nbands = 6;
        s.backend = backend;
        auto bp = std::make_unique<bte::BteProblem>(s, phys);
        bp->problem().boundary("I", 1, dsl::BcType::Value, "half_of_the_cell",
                               [](const fvm::BoundaryContext& ctx, std::span<double> out) {
                                 for (size_t k = 0; k < out.size(); ++k)
                                   out[k] = 0.5 * ctx.field->at(ctx.cell, static_cast<int32_t>(k));
                               });
        return bp;
      },
      3);
}

// The 3-D hex BTE (K = 6) with a flux BC on every wall.
TEST_F(CudaDialect, PrintedKernelMatchesTheVmOnThe3dHexBte) {
  auto phys = std::make_shared<const bte::BtePhysics>(4, 2, 4);
  expect_printed_cuda_matches_the_vm(
      [phys](const char* backend) {
        bte::Bte3dScenario s;
        s.nx = s.ny = s.nz = 5;
        s.lx = s.ly = s.lz = 25e-6;
        s.hot_w = 10e-6;
        s.n_polar = 2;
        s.n_azimuth = 4;
        s.nbands = 4;
        auto bp = std::make_unique<bte::BteProblem3d>(s, phys);
        bp->problem().execution_backend(dsl::backend_from_string(backend));
        return bp;
      },
      3);
}

}  // namespace
