// Tests for the DSL/mesh extensions: 1-D meshes through the full pipeline,
// VTK export, and space-time (per-step re-materialized) coefficients.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/dsl/problem.hpp"
#include "mesh/mesh.hpp"
#include "mesh/vtk_io.hpp"

using namespace finch;

// ---- 1-D meshes -----------------------------------------------------------

TEST(Mesh1D, ConnectivityAndGeometry) {
  mesh::Mesh m = mesh::Mesh::structured_line(10, 2.0);
  EXPECT_EQ(m.dimension(), 1);
  EXPECT_EQ(m.num_cells(), 10);
  EXPECT_EQ(m.num_faces(), 11);
  for (int32_t c = 0; c < 10; ++c) {
    EXPECT_DOUBLE_EQ(m.cell_volume(c), 0.2);
    EXPECT_EQ(m.cell_faces(c).size(), 2);
  }
  int boundary = 0;
  for (int32_t f = 0; f < m.num_faces(); ++f)
    if (m.face(f).is_boundary()) ++boundary;
  EXPECT_EQ(boundary, 2);
  EXPECT_EQ(m.region_name(1), "xmin");
  EXPECT_EQ(m.region_name(2), "xmax");
}

TEST(Mesh1D, AdvectionThroughTheDslPipeline) {
  // 1-D transport at speed 1 with inflow 1: the front fills the domain.
  const int n = 25;
  dsl::Problem p("adv1d");
  p.set_mesh(mesh::Mesh::structured_line(n, 1.0));
  p.set_steps(0.5 / n, 1);
  p.variable("u");
  p.coefficient("bx", 1.0);
  p.conservation_form("u", "-surface(upwind([bx], u))");
  p.initial("u", [](int32_t, std::span<const int32_t>) { return 0.0; });
  p.boundary("u", 1, dsl::BcType::Value, "inflow",
             [](const fvm::BoundaryContext&, std::span<double> out) { std::ranges::fill(out, 1.0); });
  // Outflow: the upwinded flux bx * u(cell) leaves through the x-max end.
  p.boundary("u", 2, dsl::BcType::Flux, "outflow",
             [](const fvm::BoundaryContext& ctx, std::span<double> out) {
               out[0] = ctx.fields->get("u").at(ctx.cell, 0);
             });
  auto solver = p.compile(dsl::Target::CpuSerial);
  solver->run(3 * n);  // t = 1.5: front has crossed the whole domain
  for (int32_t c = 0; c < n; ++c) EXPECT_NEAR(p.fields().get("u").at(c, 0), 1.0, 0.05) << c;
}

TEST(Mesh1D, DiffusionFreeUpwindIsMonotone1D) {
  const int n = 30;
  dsl::Problem p("mono1d");
  p.set_mesh(mesh::Mesh::structured_line(n, 1.0));
  p.set_steps(0.4 / n, 1);
  p.variable("u");
  p.coefficient("bx", 1.0);
  p.conservation_form("u", "-surface(upwind([bx], u))");
  p.initial("u", [n](int32_t c, std::span<const int32_t>) { return c < n / 3 ? 1.0 : 0.0; });
  p.boundary("u", 1, dsl::BcType::Value, "inflow",
             [](const fvm::BoundaryContext&, std::span<double> out) { std::ranges::fill(out, 1.0); });
  auto solver = p.compile(dsl::Target::CpuSerial);
  solver->run(10);
  const auto& u = p.fields().get("u");
  for (int32_t c = 0; c + 1 < n; ++c) EXPECT_GE(u.at(c, 0) + 1e-12, u.at(c + 1, 0));
}

// ---- VTK export --------------------------------------------------------------

TEST(VtkIo, StructuredGridHeaderAndValues) {
  mesh::Mesh m = mesh::Mesh::structured_quad(3, 2, 3.0, 2.0);
  std::vector<double> vals = {1, 2, 3, 4, 5, 6};
  std::stringstream ss;
  mesh::write_vtk_cells(ss, m, 3, 2, 1, "temperature", vals);
  const std::string text = ss.str();
  EXPECT_NE(text.find("# vtk DataFile Version 3.0"), std::string::npos);
  EXPECT_NE(text.find("DATASET STRUCTURED_GRID"), std::string::npos);
  EXPECT_NE(text.find("DIMENSIONS 4 3 1"), std::string::npos);
  EXPECT_NE(text.find("POINTS 12 double"), std::string::npos);
  EXPECT_NE(text.find("CELL_DATA 6"), std::string::npos);
  EXPECT_NE(text.find("SCALARS temperature double 1"), std::string::npos);
}

TEST(VtkIo, Rejects3dMismatch) {
  mesh::Mesh m = mesh::Mesh::structured_quad(3, 2, 1.0, 1.0);
  std::vector<double> vals(5, 0.0);  // wrong count
  std::stringstream ss;
  EXPECT_THROW(mesh::write_vtk_cells(ss, m, 3, 2, 1, "x", vals), std::invalid_argument);
}

TEST(VtkIo, HexGrid) {
  mesh::Mesh m = mesh::Mesh::structured_hex(2, 2, 2, 1.0, 1.0, 1.0);
  std::vector<double> vals(8, 1.5);
  std::stringstream ss;
  mesh::write_vtk_cells(ss, m, 2, 2, 2, "T", vals);
  EXPECT_NE(ss.str().find("DIMENSIONS 3 3 3"), std::string::npos);
  EXPECT_NE(ss.str().find("CELL_DATA 8"), std::string::npos);
}

// ---- space-time coefficients ---------------------------------------------------

TEST(SpacetimeCoefficient, RefreshedEveryStep) {
  // du/dt = -k(t) u with k(t) = 2 for t < T/2 then 0: the decay stops halfway.
  dsl::Problem p("kt");
  p.set_mesh(mesh::Mesh::structured_quad(2, 2, 1.0, 1.0));
  const double dt = 0.01;
  p.set_steps(dt, 1);
  p.variable("u");
  p.coefficient_spacetime("k", [dt](mesh::Vec3, double t) { return t < 10 * dt - 1e-12 ? 2.0 : 0.0; });
  p.conservation_form("u", "-k*u");
  p.initial("u", [](int32_t, std::span<const int32_t>) { return 1.0; });
  auto solver = p.compile(dsl::Target::CpuSerial);
  solver->run(10);
  const double after_decay = p.fields().get("u").at(0, 0);
  EXPECT_NEAR(after_decay, std::pow(1.0 - 2.0 * dt, 10), 1e-12);
  solver->run(10);  // k switched off: value frozen
  EXPECT_DOUBLE_EQ(p.fields().get("u").at(0, 0), after_decay);
}

TEST(SpacetimeCoefficient, SpatialProfileApplies) {
  // k = 4 on the left half, 0 on the right: only the left half decays.
  dsl::Problem p("kx");
  p.set_mesh(mesh::Mesh::structured_quad(4, 1, 1.0, 0.25));
  p.set_steps(0.01, 1);
  p.variable("u");
  p.coefficient_spacetime("k", [](mesh::Vec3 x, double) { return x.x < 0.5 ? 4.0 : 0.0; });
  p.conservation_form("u", "-k*u");
  p.initial("u", [](int32_t, std::span<const int32_t>) { return 1.0; });
  auto solver = p.compile(dsl::Target::CpuSerial);
  solver->run(5);
  const auto& u = p.fields().get("u");
  EXPECT_LT(u.at(0, 0), 0.9);
  EXPECT_LT(u.at(1, 0), 0.9);
  EXPECT_DOUBLE_EQ(u.at(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(u.at(3, 0), 1.0);
}
