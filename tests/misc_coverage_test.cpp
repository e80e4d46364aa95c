// Coverage for the remaining public surfaces: the fvm stepper helpers, DSL
// custom-operator registration end to end, SimMpi gather, and parameterized
// conservation sweeps across grid shapes and velocity fields.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "bte/bte_problem.hpp"
#include "core/dsl/problem.hpp"
#include "fvm/stepper.hpp"
#include "mesh/mesh.hpp"
#include "runtime/simmpi.hpp"

using namespace finch;

// ---- fvm stepper helpers -----------------------------------------------------

TEST(FvmStepper, ForwardEulerMatchesClosedForm) {
  std::vector<double> u = {1.0, 2.0};
  std::vector<double> scratch;
  auto rhs = [](std::span<const double> s, std::span<double> out) {
    for (size_t i = 0; i < s.size(); ++i) out[i] = -2.0 * s[i];
  };
  fvm::step_forward_euler(u, 0.1, rhs, scratch);
  EXPECT_DOUBLE_EQ(u[0], 1.0 * (1 - 0.2));
  EXPECT_DOUBLE_EQ(u[1], 2.0 * (1 - 0.2));
}

TEST(FvmStepper, Rk2MatchesMidpointFormula) {
  std::vector<double> u = {1.0};
  std::vector<double> k1, mid;
  auto rhs = [](std::span<const double> s, std::span<double> out) {
    for (size_t i = 0; i < s.size(); ++i) out[i] = -s[i];
  };
  fvm::step_rk2_midpoint(u, 0.2, rhs, k1, mid);
  // u1 = u0 (1 - dt + dt^2/2)
  EXPECT_NEAR(u[0], 1.0 - 0.2 + 0.02, 1e-15);
}

TEST(FvmStepper, Rk2IsSecondOrderOnNonlinearOde) {
  // du/dt = u^2, u0 = 1, exact u(t) = 1/(1-t).
  auto rhs = [](std::span<const double> s, std::span<double> out) {
    for (size_t i = 0; i < s.size(); ++i) out[i] = s[i] * s[i];
  };
  auto err_with_steps = [&](int n) {
    std::vector<double> u = {1.0};
    std::vector<double> k1, mid;
    const double dt = 0.5 / n;
    for (int i = 0; i < n; ++i) fvm::step_rk2_midpoint(u, dt, rhs, k1, mid);
    return std::abs(u[0] - 2.0);
  };
  EXPECT_NEAR(err_with_steps(20) / err_with_steps(40), 4.0, 0.5);
}

// ---- DSL custom operator end to end --------------------------------------------

TEST(DslCustomOperator, LaxFriedrichsFluxRunsThroughTheSolver) {
  // Register a Lax-Friedrichs-style flux (central + dissipation) and verify a
  // constant state remains a fixed point under it.
  dsl::Problem p("lax");
  p.set_mesh(mesh::Mesh::structured_quad(6, 6, 1.0, 1.0));
  p.set_steps(0.001, 1);
  p.variable("u");
  p.coefficient("bx", 1.0);
  p.coefficient("by", 0.5);
  p.register_operator("laxf", [](std::span<const sym::Expr> args, const sym::ExpandContext& ctx) {
    auto v = sym::vector_components(args[0], *ctx.table);
    auto n = sym::normal_vector(ctx.dimension);
    std::vector<sym::Expr> terms;
    for (size_t i = 0; i < v.size(); ++i) terms.push_back(sym::mul({v[i], n[i]}));
    sym::Expr vdotn = sym::add(std::move(terms));
    sym::Expr avg = sym::mul({sym::num(0.5), sym::add({sym::with_cell_side(args[1], sym::CellSide::Cell1),
                                                       sym::with_cell_side(args[1], sym::CellSide::Cell2)})});
    sym::Expr diss = sym::mul({sym::num(0.5), sym::sub(sym::with_cell_side(args[1], sym::CellSide::Cell1),
                                                       sym::with_cell_side(args[1], sym::CellSide::Cell2))});
    return sym::add({sym::mul({vdotn, avg}), diss});
  });
  p.conservation_form("u", "-surface(laxf([bx; by], u))");
  p.initial("u", [](int32_t, std::span<const int32_t>) { return 2.5; });
  for (int region = 1; region <= 4; ++region)
    p.boundary("u", region, dsl::BcType::Value, "const",
               [](const fvm::BoundaryContext&, std::span<double> out) { std::ranges::fill(out, 2.5); });
  auto solver = p.compile(dsl::Target::CpuSerial);
  solver->run(15);
  for (int32_t c = 0; c < 36; ++c) EXPECT_NEAR(p.fields().get("u").at(c, 0), 2.5, 1e-12);
}

// ---- SimMpi gather -----------------------------------------------------------

TEST(BspSimGather, TreeCostModel) {
  rt::CommModel model{1e-6, 1e9};
  rt::BspSimulator sim(8, model);
  sim.gather(1000);
  // 3 rounds of latency + 7000 bytes through the root.
  EXPECT_NEAR(sim.elapsed(), 3e-6 + 7000.0 / 1e9, 1e-12);
  EXPECT_GT(sim.phases().communication, 0.0);
}

// ---- conservation property sweeps ----------------------------------------------

struct SweepCase {
  int nx, ny;
  double bx, by;
};

class ConservationSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ConservationSweep, ZeroFluxWallsConserveMass) {
  const SweepCase c = GetParam();
  dsl::Problem p("sweep");
  p.set_mesh(mesh::Mesh::structured_quad(c.nx, c.ny, 1.0, 1.0));
  p.set_steps(0.3 / (std::max(std::abs(c.bx), std::abs(c.by)) * std::max(c.nx, c.ny)), 1);
  p.variable("u");
  p.coefficient("bx", c.bx);
  p.coefficient("by", c.by);
  p.conservation_form("u", "-surface(upwind([bx; by], u))");
  p.initial("u", [](int32_t cell, std::span<const int32_t>) {
    return 0.3 + 0.7 * std::fmod(static_cast<double>(cell) * 0.618, 1.0);
  });
  auto solver = p.compile(dsl::Target::CpuSerial);
  double before = 0;
  const auto& u = p.fields().get("u");
  for (int32_t cell = 0; cell < u.num_cells(); ++cell)
    before += u.at(cell, 0) * p.mesh().cell_volume(cell);
  solver->run(25);
  double after = 0;
  for (int32_t cell = 0; cell < u.num_cells(); ++cell)
    after += u.at(cell, 0) * p.mesh().cell_volume(cell);
  EXPECT_NEAR(after, before, 1e-12 * std::abs(before) + 1e-14);
  // Upwind advection preserves positivity under CFL (mass may legitimately
  // pile up against the zero-flux downstream wall, so no upper bound).
  for (int32_t cell = 0; cell < u.num_cells(); ++cell) EXPECT_GE(u.at(cell, 0), -1e-12);
}

INSTANTIATE_TEST_SUITE_P(Grids, ConservationSweep,
                         ::testing::Values(SweepCase{4, 4, 1.0, 0.0}, SweepCase{9, 5, 0.0, -1.0},
                                           SweepCase{7, 7, 0.8, 0.6}, SweepCase{16, 3, -1.2, 0.4},
                                           SweepCase{5, 16, -0.3, -0.9}));

// ---- BTE equilibrium steadiness across discretizations ---------------------------

class BteEquilibriumSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BteEquilibriumSweep, UniformTemperatureIsSteady) {
  const auto [ndirs, nbands] = GetParam();
  bte::BteScenario s;
  s.nx = s.ny = 6;
  s.lx = s.ly = 50e-6;
  s.T_hot = s.T_cold;  // no hot spot
  s.ndirs = ndirs;
  s.nbands = nbands;
  s.dt = 1e-12;
  auto phys = std::make_shared<const bte::BtePhysics>(nbands, ndirs);
  bte::BteProblem bp(s, phys);
  bp.compile(dsl::Target::CpuSerial)->run(15);
  for (double T : bp.temperature()) EXPECT_NEAR(T, s.T_init, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Discretizations, BteEquilibriumSweep,
                         ::testing::Values(std::make_pair(4, 4), std::make_pair(8, 6),
                                           std::make_pair(12, 10), std::make_pair(16, 12)));
