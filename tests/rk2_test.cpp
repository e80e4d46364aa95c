// RK2 (midpoint) time-stepping tests: exactness on the linear decay model,
// second-order convergence vs forward Euler's first order, and behaviour on
// the advective system.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/dsl/problem.hpp"
#include "mesh/mesh.hpp"

using namespace finch;
using dsl::Problem;
using dsl::Target;
using dsl::TimeScheme;

namespace {

// Solves du/dt = -k u for time T with n steps under the given scheme and
// returns the value at one cell (all cells identical).
double decay_value(TimeScheme scheme, double k, double T, int n) {
  Problem p("decay");
  p.set_mesh(mesh::Mesh::structured_quad(2, 2, 1.0, 1.0));
  p.time_stepper(scheme);
  p.set_steps(T / n, 1);
  p.variable("u");
  p.coefficient("k", k);
  p.conservation_form("u", "-k*u");
  p.initial("u", [](int32_t, std::span<const int32_t>) { return 1.0; });
  auto solver = p.compile(Target::CpuSerial);
  solver->run(n);
  return p.fields().get("u").at(0, 0);
}

}  // namespace

TEST(Rk2, MatchesMidpointUpdateExactly) {
  // One RK2 step of du/dt = -k u gives u1 = u0 (1 - k dt + (k dt)^2 / 2).
  const double k = 3.0, dt = 0.01;
  const double got = decay_value(TimeScheme::RK2Midpoint, k, dt, 1);
  const double kd = k * dt;
  EXPECT_NEAR(got, 1.0 - kd + 0.5 * kd * kd, 1e-15);
}

TEST(Rk2, SecondOrderConvergence) {
  const double k = 2.0, T = 0.5;
  const double exact = std::exp(-k * T);
  const double e_rk_10 = std::abs(decay_value(TimeScheme::RK2Midpoint, k, T, 10) - exact);
  const double e_rk_20 = std::abs(decay_value(TimeScheme::RK2Midpoint, k, T, 20) - exact);
  const double e_eu_10 = std::abs(decay_value(TimeScheme::ForwardEuler, k, T, 10) - exact);
  const double e_eu_20 = std::abs(decay_value(TimeScheme::ForwardEuler, k, T, 20) - exact);
  // Orders: Euler halves the error, RK2 quarters it.
  EXPECT_NEAR(e_eu_10 / e_eu_20, 2.0, 0.3);
  EXPECT_NEAR(e_rk_10 / e_rk_20, 4.0, 0.6);
  // And RK2 is far more accurate at equal step count.
  EXPECT_LT(e_rk_10, e_eu_10 / 5.0);
}

TEST(Rk2, ConservesMassWithZeroFluxWalls) {
  Problem p("rk2-conserve");
  p.set_mesh(mesh::Mesh::structured_quad(8, 8, 1.0, 1.0));
  p.time_stepper(TimeScheme::RK2Midpoint);
  p.set_steps(0.002, 1);
  p.variable("u");
  p.coefficient("bx", 0.6);
  p.coefficient("by", -0.4);
  p.conservation_form("u", "-surface(upwind([bx; by], u))");
  p.initial("u", [](int32_t c, std::span<const int32_t>) { return c % 3 == 0 ? 2.0 : 0.25; });
  auto solver = p.compile(Target::CpuSerial);
  double before = 0;
  const auto& u0 = p.fields().get("u");
  for (int32_t c = 0; c < u0.num_cells(); ++c) before += u0.at(c, 0);
  solver->run(40);
  double after = 0;
  for (int32_t c = 0; c < u0.num_cells(); ++c) after += u0.at(c, 0);
  EXPECT_NEAR(after, before, 1e-10 * std::abs(before));
}

TEST(Rk2, UniformAdvectionFixedPointWithValueBc) {
  Problem p("rk2-const");
  p.set_mesh(mesh::Mesh::structured_quad(5, 5, 1.0, 1.0));
  p.time_stepper(TimeScheme::RK2Midpoint);
  p.set_steps(0.001, 1);
  p.variable("u");
  p.coefficient("bx", 1.0);
  p.coefficient("by", 0.0);
  p.conservation_form("u", "-surface(upwind([bx; by], u))");
  p.initial("u", [](int32_t, std::span<const int32_t>) { return 4.0; });
  for (int region = 1; region <= 4; ++region)
    p.boundary("u", region, dsl::BcType::Value, "const4",
               [](const fvm::BoundaryContext&, std::span<double> out) { std::ranges::fill(out, 4.0); });
  auto solver = p.compile(Target::CpuSerial);
  solver->run(25);
  for (int32_t c = 0; c < 25; ++c) EXPECT_NEAR(p.fields().get("u").at(c, 0), 4.0, 1e-12);
}

TEST(Rk2, GpuTargetStillRejectsNonEuler) {
  // The hybrid GPU target lowers ForwardEuler only for now; requesting RK2
  // must fail loudly rather than silently integrate wrong.
  Problem p("rk2-gpu");
  p.set_mesh(mesh::Mesh::structured_quad(2, 2, 1.0, 1.0));
  p.time_stepper(TimeScheme::RK2Midpoint);
  p.variable("u");
  p.coefficient("k", 1.0);
  p.conservation_form("u", "-k*u");
  p.initial("u", [](int32_t, std::span<const int32_t>) { return 1.0; });
  rt::SimGpu gpu(rt::GpuSpec::a6000());
  p.use_cuda(&gpu);
  EXPECT_THROW(p.compile(dsl::Target::Gpu), std::invalid_argument);
}
