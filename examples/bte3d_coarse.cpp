// "Some very coarse-grained 3-dimensional runs were also performed
// successfully" (§III.A). This example reproduces that capability: a gray
// 3-D BTE on a coarse hexahedral mesh, built directly against the DSL with a
// 3-component upwind flux, 3-D direction quadrature and reflective side
// walls — demonstrating that nothing in the pipeline is 2-D specific.
#include <cstdio>

#include "bte/bte_problem.hpp"
#include "bte/directions.hpp"
#include "core/dsl/problem.hpp"
#include "mesh/mesh.hpp"

using namespace finch;
using namespace finch::bte;

int main(int argc, char** argv) {
  const int n = 10;                 // coarse 10^3 grid
  const double L = 50e-6;
  const int nsteps = argc > 1 ? std::atoi(argv[1]) : 150;
  const double vg = 6400.0, tau = 40e-12, cv = 1.66e6;
  const double T0 = 300.0, T_hot = 350.0, hot_w = 20e-6;
  const double dt = 2e-12;

  DirectionSet dirs = make_directions_3d(4, 8);  // 32 ordinates
  const int nd = dirs.size();
  std::printf("3-D gray BTE: %d^3 cells, %d ordinates, %d steps (%.1f ns)\n", n, nd, nsteps,
              nsteps * dt * 1e9);

  dsl::Problem p("bte3d");
  p.domain(3).time_stepper(dsl::TimeScheme::ForwardEuler);
  p.set_steps(dt, nsteps);
  p.set_mesh(mesh::Mesh::structured_hex(n, n, n, L, L, L));
  p.index("d", 1, nd);
  p.variable("I", {"d"});
  p.variable("Io");
  p.variable("T");
  p.variable("G");
  std::vector<double> sx(static_cast<size_t>(nd)), sy(static_cast<size_t>(nd)), sz(static_cast<size_t>(nd));
  for (int d = 0; d < nd; ++d) {
    sx[static_cast<size_t>(d)] = dirs.s[static_cast<size_t>(d)].x;
    sy[static_cast<size_t>(d)] = dirs.s[static_cast<size_t>(d)].y;
    sz[static_cast<size_t>(d)] = dirs.s[static_cast<size_t>(d)].z;
  }
  p.coefficient("Sx", sx, {"d"});
  p.coefficient("Sy", sy, {"d"});
  p.coefficient("Sz", sz, {"d"});
  p.coefficient("vg", vg);
  p.coefficient("invtau", 1.0 / tau);
  p.coefficient("W", dirs.weight, {"d"});
  p.conservation_form("I", "(Io - I[d]) * invtau - surface(vg * upwind([Sx[d];Sy[d];Sz[d]], I[d]))");
  // The energy sum G = sum_d W[d] I[d], formed with every step.
  p.reduction("G", "I", "d", "W");

  const double c_over = cv * vg / (4.0 * M_PI);
  p.initial("I", [=](int32_t, std::span<const int32_t>) { return c_over * T0; });
  p.initial("Io", [=](int32_t, std::span<const int32_t>) { return c_over * T0; });
  p.initial("T", [=](int32_t, std::span<const int32_t>) { return T0; });

  // Boundary callbacks fill one face's ordinates at a time: outgoing ones
  // carry the cell's intensity, incoming ones the wall's.
  auto isothermal = [&dirs, vg, c_over](const fvm::BoundaryContext& ctx, std::span<double> out,
                                        double T_wall) {
    for (int d = 0; d < dirs.size(); ++d) {
      const double sdotn = dirs.s[static_cast<size_t>(d)].dot(ctx.normal);
      out[static_cast<size_t>(d)] =
          sdotn > 0 ? vg * sdotn * ctx.field->at(ctx.cell, d) : vg * sdotn * c_over * T_wall;
    }
  };
  auto symmetric = [&dirs, vg](const fvm::BoundaryContext& ctx, std::span<double> out) {
    const fvm::CellField& I = *ctx.field;
    for (int d = 0; d < dirs.size(); ++d) {
      const double sdotn = dirs.s[static_cast<size_t>(d)].dot(ctx.normal);
      out[static_cast<size_t>(d)] = sdotn > 0 ? vg * sdotn * I.at(ctx.cell, d)
                                              : vg * sdotn * I.at(ctx.cell, dirs.reflect(d, ctx.normal));
    }
  };
  // z-min (region 5) cold, z-max (region 6) hot spot, side walls symmetric.
  p.boundary("I", 5, dsl::BcType::Flux, "iso_cold",
             [=](const fvm::BoundaryContext& ctx, std::span<double> out) { isothermal(ctx, out, T0); });
  p.boundary("I", 6, dsl::BcType::Flux, "iso_hot",
             [=](const fvm::BoundaryContext& ctx, std::span<double> out) {
               const auto& f = ctx.mesh->face(ctx.face).centroid;
               const double dx = f.x - 0.5 * L, dy = f.y - 0.5 * L;
               isothermal(ctx, out, bte::hot_spot_temperature(T0, T_hot, hot_w, dx * dx + dy * dy));
             });
  for (int region : {1, 2, 3, 4}) p.boundary("I", region, dsl::BcType::Flux, "symmetry", symmetric);

  p.post_step([cv, vg, c_over](dsl::Problem& prob, double) {
    const auto& G = prob.fields().get("G");
    auto& Io = prob.fields().get("Io");
    auto& T = prob.fields().get("T");
    for (int32_t c = 0; c < G.num_cells(); ++c) {
      const double Tc = G.at(c, 0) / (cv * vg);
      T.at(c, 0) = Tc;
      Io.at(c, 0) = c_over * Tc;
    }
  });
  p.post_step_touches({"I"}, {"Io"});

  auto solver = p.compile();
  solver->run(nsteps);

  const auto& T = p.fields().get("T");
  // Column under the hot spot, top to bottom.
  std::printf("temperature along the column under the spot (top z -> bottom z):\n");
  for (int k = n - 1; k >= 0; k -= 2) {
    const int32_t c = (k * n + n / 2) * n + n / 2;
    std::printf("  z=%5.1f um  T=%7.3f K\n", (k + 0.5) * L / n * 1e6, T.at(c, 0));
  }
  double hi = 0;
  for (int32_t c = 0; c < T.num_cells(); ++c) hi = std::max(hi, T.at(c, 0));
  std::printf("max temperature %.3f K after %.2f ns\n", hi, solver->time() * 1e9);
  return 0;
}
