// Golden tests for the source-text targets: the generated C++ (nested loops,
// assembly order, comment nodes) and CUDA (flattened one-thread-per-DOF
// kernel + the §II.B host driver) renderings of the IR.
#include <gtest/gtest.h>
#include <algorithm>


#include "core/dsl/problem.hpp"
#include "mesh/mesh.hpp"

using namespace finch;

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

TEST(CppEmitter, NestedLoopsFollowAssemblyOrder) {
  auto p = bte_like_problem();
  std::string src = p.generated_cpp_source();
  // Default order: cells outermost, then declared indices.
  const size_t cells_pos = src.find("for (int cell = 0; cell < Ncells; ++cell)");
  const size_t d_pos = src.find("for (int d = 0; d < 4; ++d)");
  const size_t b_pos = src.find("for (int b = 0; b < 3; ++b)");
  ASSERT_NE(cells_pos, std::string::npos);
  ASSERT_NE(d_pos, std::string::npos);
  ASSERT_NE(b_pos, std::string::npos);
  EXPECT_LT(cells_pos, d_pos);
  EXPECT_LT(d_pos, b_pos);
}

TEST(CppEmitter, PermutedLoopOrderIsHonored) {
  auto p = bte_like_problem();
  p.assembly_loops({"b", "cells", "d"});
  std::string src = p.generated_cpp_source();
  const size_t b_pos = src.find("for (int b = 0");
  const size_t cells_pos = src.find("for (int cell = 0");
  const size_t d_pos = src.find("for (int d = 0");
  EXPECT_LT(b_pos, cells_pos);
  EXPECT_LT(cells_pos, d_pos);
}

TEST(CppEmitter, CommentNodesAppearInOutput) {
  auto p = bte_like_problem();
  std::string src = p.generated_cpp_source();
  EXPECT_NE(src.find("// update of I via explicit FV step"), std::string::npos);
  EXPECT_NE(src.find("// RHS volume integrand"), std::string::npos);
  EXPECT_NE(src.find("// RHS surface integrand"), std::string::npos);
  EXPECT_NE(src.find("// combine: u_new = rhs_volume"), std::string::npos);
}

TEST(CppEmitter, ExpressionsRenderAsIndexedArrays) {
  auto p = bte_like_problem();
  std::string src = p.generated_cpp_source();
  EXPECT_NE(src.find("Io[cell*dof_per_cell + b]"), std::string::npos);
  EXPECT_NE(src.find("I[cell*dof_per_cell + d + Nd*b]"), std::string::npos);
  // Upwind conditional survives as a ternary against the face normal.
  EXPECT_NE(src.find("normal_x"), std::string::npos);
  EXPECT_NE(src.find("?"), std::string::npos);
  EXPECT_NE(src.find("neighbor"), std::string::npos);
}

TEST(CudaEmitter, FlattenedThreadIndexing) {
  auto p = bte_like_problem();
  std::string src = p.generated_cuda_source();
  EXPECT_NE(src.find("__global__ void step_I_interior"), std::string::npos);
  EXPECT_NE(src.find("blockIdx.x * blockDim.x + threadIdx.x"), std::string::npos);
  EXPECT_NE(src.find("if (tid >= s.n_interior_dofs) return;"), std::string::npos);
  // Index recovery from the flattened thread id.
  EXPECT_NE(src.find("const int d = dof % Nd;"), std::string::npos);
  EXPECT_NE(src.find("const int b = (dof / Nd) % Nb;"), std::string::npos);
}

TEST(CudaEmitter, HostDriverFollowsFig6) {
  auto p = bte_like_problem();
  std::string src = p.generated_cuda_source();
  // The §II.B host-step structure, in order.
  const size_t launch = src.find("step_I_interior<<<grid, block, 0, stream>>>");
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
