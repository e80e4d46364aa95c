#include "gray.hpp"

#include <cmath>

#include "bte_problem.hpp"

namespace finch::bte {

GrayBteProblem::GrayBteProblem(const GrayScenario& scenario)
    : scen_(scenario), dirs_(make_directions_2d(scenario.ndirs)) {
  problem_ = std::make_unique<dsl::Problem>("bte-gray");
  dsl::Problem& p = *problem_;
  p.domain(2).time_stepper(dsl::TimeScheme::ForwardEuler);
  p.set_steps(scen_.dt, scen_.nsteps);
  p.set_mesh(mesh::Mesh::structured_quad(scen_.nx, scen_.ny, scen_.lx, scen_.ly));

  const int nd = dirs_.size();
  p.index("d", 1, nd);
  p.variable("I", {"d"});
  p.variable("Io");
  p.variable("T");
  p.variable("G");
  std::vector<double> sx(static_cast<size_t>(nd)), sy(static_cast<size_t>(nd));
  for (int d = 0; d < nd; ++d) {
    sx[static_cast<size_t>(d)] = dirs_.s[static_cast<size_t>(d)].x;
    sy[static_cast<size_t>(d)] = dirs_.s[static_cast<size_t>(d)].y;
  }
  p.coefficient("Sx", sx, {"d"});
  p.coefficient("Sy", sy, {"d"});
  p.coefficient("vg", scen_.vg);
  p.coefficient("invtau", 1.0 / scen_.tau);
  p.coefficient("W", dirs_.weight, {"d"});

  p.conservation_form("I", "(Io - I[d]) * invtau - surface(vg * upwind([Sx[d];Sy[d]], I[d]))");
  // The energy sum G = sum_d W[d] I[d], formed with the step.
  p.reduction("G", "I", "d", "W");

  const double I_init = equilibrium_intensity(scen_.T_init);
  p.initial("I", [I_init](int32_t, std::span<const int32_t>) { return I_init; });
  p.initial("Io", [I_init](int32_t, std::span<const int32_t>) { return I_init; });
  p.initial("T", [this](int32_t, std::span<const int32_t>) { return scen_.T_init; });

  const GrayScenario scen = scen_;
  const DirectionSet* dirs = &dirs_;
  const double c_over = scen.cv * scen.vg / (4.0 * M_PI);

  // Face fill vg (s.n) I with the face value upwinded (Eq. 6): the cell's own
  // intensity on outgoing directions, incoming(d) on the others.
  auto fill = [dirs, scen](const fvm::BoundaryContext& ctx, std::span<double> out, auto incoming) {
    const fvm::CellField& I = *ctx.field;
    for (int d = 0; d < dirs->size(); ++d) {
      const double sdotn = dirs->s[static_cast<size_t>(d)].dot(ctx.normal);
      out[static_cast<size_t>(d)] =
          sdotn > 0 ? scen.vg * sdotn * I.at(ctx.cell, d) : scen.vg * sdotn * incoming(d);
    }
  };
  auto isothermal = [fill, c_over](double T_wall) {
    return [fill, c_over, T_wall](const fvm::BoundaryContext& ctx, std::span<double> out) {
      fill(ctx, out, [&](int) { return c_over * T_wall; });
    };
  };
  auto symmetric = [fill, dirs](const fvm::BoundaryContext& ctx, std::span<double> out) {
    fill(ctx, out, [&](int d) { return ctx.field->at(ctx.cell, dirs->reflect(d, ctx.normal)); });
  };

  p.boundary("I", 1, dsl::BcType::Flux, "gray_isothermal_cold", isothermal(scen.T_cold));
  p.boundary("I", 2, dsl::BcType::Flux, "gray_isothermal_hot",
             [isothermal, scen](const fvm::BoundaryContext& ctx, std::span<double> out) {
               const double r = ctx.mesh->face(ctx.face).centroid.x - 0.5 * scen.lx;
               isothermal(hot_spot_temperature(scen.T_cold, scen.T_hot, scen.hot_w, r * r))(ctx, out);
             });
  p.boundary("I", 3, dsl::BcType::Flux, "gray_symmetry", symmetric);
  p.boundary("I", 4, dsl::BcType::Flux, "gray_symmetry", symmetric);

  // Gray temperature update: T = G / (cv vg), Io = cv vg T / 4pi.
  p.post_step([c_over, scen](dsl::Problem& prob, double) {
    const auto& G = prob.fields().get("G");
    auto& Io = prob.fields().get("Io");
    auto& T = prob.fields().get("T");
    for (int32_t c = 0; c < G.num_cells(); ++c) {
      const double Tc = G.at(c, 0) / (scen.cv * scen.vg);
      T.at(c, 0) = Tc;
      Io.at(c, 0) = c_over * Tc;
    }
  });
  p.post_step_touches({"I"}, {"Io"});
}

std::vector<double> GrayBteProblem::temperature() const {
  const auto& T = problem_->fields().get("T");
  std::vector<double> out(static_cast<size_t>(T.num_cells()));
  for (int32_t c = 0; c < T.num_cells(); ++c) out[static_cast<size_t>(c)] = T.at(c, 0);
  return out;
}

}  // namespace finch::bte
