#pragma once
// The paper's demonstration application: 2-D phonon BTE with a Gaussian hot
// spot (Fig. 1) or a corner heat source (Fig. 10), encoded in the DSL.
//
// Equation (per direction d and polarization-resolved band b):
//   dI/dt = (Io[b] - I[d,b]) * beta[b] - div( vg_b s_d I[d,b] )
// entered as
//   conservationForm(I, "(Io[b] - I[d,b]) * beta[b]
//                        - surface(vg[b] * upwind([Sx[d];Sy[d]], I[d,b]))")
// (the paper's §III.B listing shows '+ surface(...)'; with this library's
// literal input convention the outward advective flux enters with '-').
//
// Boundary conditions are CPU callbacks exactly as in the paper: isothermal
// walls inject the wall-temperature equilibrium intensity on incoming
// directions; symmetry walls specularly reflect (Eq. 6). The temperature
// update is a post-step callback that solves the per-cell nonlinear energy
// balance and refreshes Io and beta.

#include <memory>

#include "core/dsl/problem.hpp"
#include "directions.hpp"
#include "equilibrium.hpp"

namespace finch::bte {

// The hot spot's Gaussian wall temperature at squared distance r2 from the
// spot's center: T_cold + (T_hot - T_cold) * exp(-2 r2 / w^2), w being the
// spot's 1/e^2 radius. Every hot wall evaluates this one function, so the
// solvers that cross-check each other share its bits.
double hot_spot_temperature(double T_cold, double T_hot, double hot_w, double r2);

struct BteScenario {
  int nx = 40, ny = 40;
  double lx = 525e-6, ly = 525e-6;       // paper: 525um x 525um
  int ndirs = 20;                         // paper: 20 directions (2D)
  int nbands = 40;                        // spectral bands (paper: 40 -> 55 resolved)
  double T_init = 300.0;
  double T_cold = 300.0;
  double T_hot = 350.0;                   // hot-spot peak
  double hot_w = 10e-6;                   // 1/e^2 radius of the Gaussian spot
  double hot_center_frac = 0.5;           // spot center along the hot wall (0..1)
  double dt = 1e-12;
  int nsteps = 100;
  enum class Kind { HotSpotTop, CornerSource } kind = Kind::HotSpotTop;
  // Kernel backend: "" = process default (FINCH_BACKEND else vm), or one of
  // "vm" / "native" / "auto" (see CODEGEN.md §6). Validated at build time.
  std::string backend;

  // Paper-exact configuration of §III.A (1100 DOF/cell on a 120x120 grid).
  static BteScenario paper_hotspot();
  // Scaled-down default suitable for tests and examples on one core.
  static BteScenario small();
  // Fig. 10: smaller elongated domain, source in one corner.
  static BteScenario corner();

  // Temperature of the hot (y-max) wall at position x along it.
  double wall_temperature(double x) const;
};

// Immutable shared physics tables for a discretization choice.
class BtePhysics {
 public:
  BtePhysics(int nbands_spectral, int ndirs);
  // 3-D variant: product direction quadrature (n_polar x n_azimuth).
  BtePhysics(int nbands_spectral, int n_polar, int n_azimuth);

  Dispersion dispersion;
  BandSet bands;
  DirectionSet directions;
  RelaxationModel relaxation;
  EquilibriumTable table;

  int num_bands() const { return bands.size(); }
  int num_dirs() const { return directions.size(); }
  std::vector<double> vg() const;  // per resolved band
  std::vector<double> sx() const;  // per direction
  std::vector<double> sy() const;
  std::vector<double> sz() const;
};

// Owns the DSL Problem wired for a scenario. Compile with the target of your
// choice (CPU serial/threads or simulated GPU via use_cuda()).
class BteProblem {
 public:
  BteProblem(const BteScenario& scenario, std::shared_ptr<const BtePhysics> physics);

  dsl::Problem& problem() { return *problem_; }
  const BteScenario& scenario() const { return scenario_; }
  const BtePhysics& physics() const { return *physics_; }

  std::unique_ptr<dsl::Solver> compile() { return problem_->compile(); }
  std::unique_ptr<dsl::Solver> compile(dsl::Target t) { return problem_->compile(t); }

  // Per-cell temperature (after at least one post-step).
  std::vector<double> temperature() const;

  // Writes "x,y,T" CSV rows for the temperature field (Fig. 2 / Fig. 10).
  void write_temperature_csv(const std::string& path) const;

 private:
  void build();

  BteScenario scenario_;
  std::shared_ptr<const BtePhysics> physics_;
  std::unique_ptr<dsl::Problem> problem_;
};

// Spectral 3-D BTE scenario — the paper's "very coarse-grained
// 3-dimensional runs" with the full band structure: hex mesh, 3-D product
// ordinates, isothermal z-walls (hot spot on z-max), symmetric side walls.
struct Bte3dScenario {
  int nx = 8, ny = 8, nz = 8;
  double lx = 50e-6, ly = 50e-6, lz = 50e-6;
  int n_polar = 4, n_azimuth = 8;
  int nbands = 6;
  double T_init = 300.0, T_cold = 300.0, T_hot = 350.0;
  double hot_w = 20e-6;
  double dt = 1e-12;
  int nsteps = 50;
};

class BteProblem3d {
 public:
  BteProblem3d(const Bte3dScenario& scenario, std::shared_ptr<const BtePhysics> physics);

  dsl::Problem& problem() { return *problem_; }
  std::unique_ptr<dsl::Solver> compile() { return problem_->compile(); }
  std::unique_ptr<dsl::Solver> compile(dsl::Target t) { return problem_->compile(t); }
  std::vector<double> temperature() const;

 private:
  void build();
  Bte3dScenario scenario_;
  std::shared_ptr<const BtePhysics> physics_;
  std::unique_ptr<dsl::Problem> problem_;
};

}  // namespace finch::bte
