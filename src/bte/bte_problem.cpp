#include "bte_problem.hpp"

#include <cmath>
#include <fstream>

#include "boundary_models.hpp"

namespace finch::bte {

double hot_spot_temperature(double T_cold, double T_hot, double hot_w, double r2) {
  return T_cold + (T_hot - T_cold) * std::exp(-2.0 * r2 / (hot_w * hot_w));
}

double BteScenario::wall_temperature(double x) const {
  const double r = x - hot_center_frac * lx;
  return hot_spot_temperature(T_cold, T_hot, hot_w, r * r);
}

BteScenario BteScenario::paper_hotspot() {
  BteScenario s;
  s.nx = s.ny = 120;
  s.ndirs = 20;
  s.nbands = 40;
  s.nsteps = 100;
  return s;
}

BteScenario BteScenario::small() {
  // Scaled-down hot-spot scenario: a 150um domain at the paper's spatial
  // resolution (~4.7um cells) with a resolved 10um spot — runnable in seconds
  // on one core while exhibiting the same qualitative transient as Fig. 2.
  BteScenario s;
  s.nx = s.ny = 32;
  s.lx = s.ly = 150e-6;
  s.ndirs = 8;
  s.nbands = 8;
  s.nsteps = 200;
  return s;
}

BteScenario BteScenario::corner() {
  BteScenario s;
  s.nx = 48;
  s.ny = 16;
  s.lx = 300e-6;
  s.ly = 100e-6;
  s.ndirs = 8;
  s.nbands = 8;
  s.hot_center_frac = 0.0;  // spot in the corner of the hot wall
  s.T_init = 100.0;
  s.T_cold = 100.0;
  s.T_hot = 150.0;
  s.kind = Kind::CornerSource;
  s.nsteps = 100;
  return s;
}

BtePhysics::BtePhysics(int nbands_spectral, int ndirs)
    : dispersion(Dispersion::silicon()),
      bands(make_bands(dispersion, nbands_spectral)),
      directions(make_directions_2d(ndirs)),
      relaxation(RelaxationModel::silicon(dispersion)),
      table(bands, relaxation) {}

BtePhysics::BtePhysics(int nbands_spectral, int n_polar, int n_azimuth)
    : dispersion(Dispersion::silicon()),
      bands(make_bands(dispersion, nbands_spectral)),
      directions(make_directions_3d(n_polar, n_azimuth)),
      relaxation(RelaxationModel::silicon(dispersion)),
      table(bands, relaxation) {}

std::vector<double> BtePhysics::vg() const {
  std::vector<double> v(static_cast<size_t>(bands.size()));
  for (int b = 0; b < bands.size(); ++b) v[static_cast<size_t>(b)] = bands[b].vg;
  return v;
}

std::vector<double> BtePhysics::sx() const {
  std::vector<double> v(static_cast<size_t>(directions.size()));
  for (int d = 0; d < directions.size(); ++d) v[static_cast<size_t>(d)] = directions.s[static_cast<size_t>(d)].x;
  return v;
}

std::vector<double> BtePhysics::sy() const {
  std::vector<double> v(static_cast<size_t>(directions.size()));
  for (int d = 0; d < directions.size(); ++d) v[static_cast<size_t>(d)] = directions.s[static_cast<size_t>(d)].y;
  return v;
}

std::vector<double> BtePhysics::sz() const {
  std::vector<double> v(static_cast<size_t>(directions.size()));
  for (int d = 0; d < directions.size(); ++d) v[static_cast<size_t>(d)] = directions.s[static_cast<size_t>(d)].z;
  return v;
}

namespace {

// What the 2-D and 3-D problems share beyond the mesh: the equation's
// variables and coefficients, the angular sums G = sum_d W[d] I[d,b] their
// step declares, the initial equilibrium at T_init, and the post-step
// temperature update from G (per cell: T, then the Io/beta rows, in
// whichever layout the problem stores its fields).
void declare_spectral_problem(dsl::Problem& p, const std::shared_ptr<const BtePhysics>& physics,
                              double T_init) {
  const BtePhysics& ph = *physics;
  const int nb = ph.num_bands();
  p.index("d", 1, ph.num_dirs());
  p.index("b", 1, nb);
  p.variable("I", {"d", "b"});
  p.variable("Io", {"b"});
  p.variable("beta", {"b"});
  p.variable("T");
  p.variable("G", {"b"});
  p.coefficient("Sx", ph.sx(), {"d"});
  p.coefficient("Sy", ph.sy(), {"d"});
  if (p.dimension() == 3) p.coefficient("Sz", ph.sz(), {"d"});
  p.coefficient("vg", ph.vg(), {"b"});
  p.coefficient("W", ph.directions.weight, {"d"});
  p.reduction("G", "I", "d", "W");

  std::vector<double> I0_init(static_cast<size_t>(nb)), beta_init(static_cast<size_t>(nb));
  for (int b = 0; b < nb; ++b) {
    I0_init[static_cast<size_t>(b)] = ph.table.I0(b, T_init);
    beta_init[static_cast<size_t>(b)] = ph.table.beta(b, T_init);
  }
  p.initial("I", [I0_init](int32_t, std::span<const int32_t> idx) {
    return I0_init[static_cast<size_t>(idx[1])];  // idx = (d, b)
  });
  p.initial("Io", [I0_init](int32_t, std::span<const int32_t> idx) {
    return I0_init[static_cast<size_t>(idx[0])];
  });
  p.initial("beta", [beta_init](int32_t, std::span<const int32_t> idx) {
    return beta_init[static_cast<size_t>(idx[0])];
  });
  p.initial("T", [T_init](int32_t, std::span<const int32_t>) { return T_init; });

  p.post_step([phys = physics.get()](dsl::Problem& prob, double) {
    fvm::FieldSet& fields = prob.fields();
    const fvm::CellField& G = fields.get("G");
    fvm::CellField& Io = fields.get("Io");
    auto rows = [](const fvm::CellField& f) {
      return f.layout() == fvm::Layout::CellMajor
                 ? RowStrides{static_cast<size_t>(f.dof_per_cell()), 1}
                 : RowStrides{1, static_cast<size_t>(f.num_cells())};
    };
    phys->table.update_temperature(static_cast<size_t>(G.num_cells()), G.data().data(), rows(G),
                                   fields.get("T").data().data(), Io.data().data(),
                                   fields.get("beta").data().data(), rows(Io));
  });
  // Movement annotations for the GPU target: the host forms G from I after
  // the step and produces Io/beta (T remains host-only, the kernel never
  // touches it).
  p.post_step_touches({"I"}, {"Io", "beta"});
}

}  // namespace

BteProblem::BteProblem(const BteScenario& scenario, std::shared_ptr<const BtePhysics> physics)
    : scenario_(scenario), physics_(std::move(physics)) {
  build();
}

void BteProblem::build() {
  problem_ = std::make_unique<dsl::Problem>("bte2d");
  dsl::Problem& p = *problem_;
  p.domain(2).solver_type(dsl::SolverType::FV).time_stepper(dsl::TimeScheme::ForwardEuler);
  p.set_steps(scenario_.dt, scenario_.nsteps);
  p.set_mesh(mesh::Mesh::structured_quad(scenario_.nx, scenario_.ny, scenario_.lx, scenario_.ly));
  if (!scenario_.backend.empty())
    p.execution_backend(dsl::backend_from_string(scenario_.backend));

  declare_spectral_problem(p, physics_, scenario_.T_init);
  p.conservation_form(
      "I", "(Io[b] - I[d,b]) * beta[b] - surface(vg[b] * upwind([Sx[d];Sy[d]], I[d,b]))");

  // ---- boundary callbacks (CPU, as in the paper) ----------------------------
  // The physical outward flux integrand f = vg (s.n) I_face with the face
  // value upwinded: outgoing directions take the cell value, incoming take
  // the ghost (wall-equilibrium or reflected) value — Eq. (6).
  // Region 1 (y-min): cold isothermal wall at T_cold.
  p.boundary("I", 1, dsl::BcType::Flux, "isothermal_cold", make_isothermal_wall(physics_, scenario_.T_cold));
  // Region 2 (y-max): isothermal with the centered Gaussian hot spot.
  p.boundary("I", 2, dsl::BcType::Flux, "isothermal_hot",
             make_isothermal_wall(physics_, [s = scenario_](const fvm::BoundaryContext& ctx) {
               return s.wall_temperature(ctx.mesh->face(ctx.face).centroid.x);
             }));
  // Regions 3/4 (x-min/x-max): symmetry (specular reflection).
  p.boundary("I", 3, dsl::BcType::Flux, "symmetry", make_specular_wall(physics_));
  p.boundary("I", 4, dsl::BcType::Flux, "symmetry", make_specular_wall(physics_));
}

std::vector<double> BteProblem::temperature() const {
  const auto& T = problem_->fields().get("T");
  std::vector<double> out(static_cast<size_t>(T.num_cells()));
  for (int32_t c = 0; c < T.num_cells(); ++c) out[static_cast<size_t>(c)] = T.at(c, 0);
  return out;
}

void BteProblem::write_temperature_csv(const std::string& path) const {
  std::ofstream os(path);
  os << "x,y,T\n";
  const auto& mesh = problem_->mesh();
  const auto& T = problem_->fields().get("T");
  for (int32_t c = 0; c < mesh.num_cells(); ++c) {
    const double t = T.at(c, 0);
    // Corrupted state must not leak into result files unnoticed.
    if (!std::isfinite(t))
      throw std::runtime_error("write_temperature_csv: non-finite T at cell " + std::to_string(c));
    const auto& p = mesh.cell_centroid(c);
    os << p.x << "," << p.y << "," << t << "\n";
  }
}


// ---- spectral 3-D problem -----------------------------------------------------

BteProblem3d::BteProblem3d(const Bte3dScenario& scenario, std::shared_ptr<const BtePhysics> physics)
    : scenario_(scenario), physics_(std::move(physics)) {
  build();
}

void BteProblem3d::build() {
  problem_ = std::make_unique<dsl::Problem>("bte3d");
  dsl::Problem& p = *problem_;
  p.domain(3).solver_type(dsl::SolverType::FV).time_stepper(dsl::TimeScheme::ForwardEuler);
  p.set_steps(scenario_.dt, scenario_.nsteps);
  p.set_mesh(mesh::Mesh::structured_hex(scenario_.nx, scenario_.ny, scenario_.nz, scenario_.lx,
                                        scenario_.ly, scenario_.lz));
  declare_spectral_problem(p, physics_, scenario_.T_init);
  p.conservation_form(
      "I", "(Io[b] - I[d,b]) * beta[b] - surface(vg[b] * upwind([Sx[d];Sy[d];Sz[d]], I[d,b]))");

  // z-min cold, z-max hot spot (regions 5/6), sides symmetric (1-4).
  p.boundary("I", 5, dsl::BcType::Flux, "isothermal_cold", make_isothermal_wall(physics_, scenario_.T_cold));
  p.boundary("I", 6, dsl::BcType::Flux, "isothermal_hot",
             make_isothermal_wall(physics_, [s = scenario_](const fvm::BoundaryContext& ctx) {
               const auto& f = ctx.mesh->face(ctx.face).centroid;
               const double dx = f.x - 0.5 * s.lx, dy = f.y - 0.5 * s.ly;
               return hot_spot_temperature(s.T_cold, s.T_hot, s.hot_w, dx * dx + dy * dy);
             }));
  for (int region : {1, 2, 3, 4})
    p.boundary("I", region, dsl::BcType::Flux, "symmetry", make_specular_wall(physics_));
}

std::vector<double> BteProblem3d::temperature() const {
  const auto& T = problem_->fields().get("T");
  std::vector<double> out(static_cast<size_t>(T.num_cells()));
  for (int32_t c = 0; c < T.num_cells(); ++c) out[static_cast<size_t>(c)] = T.at(c, 0);
  return out;
}

}  // namespace finch::bte