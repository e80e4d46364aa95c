#pragma once
// Hand-written reference solver — the stand-in for the paper's "previously
// developed Fortran code that was hand-written and optimized for band-based
// parallelism" (Fig. 9). It implements the exact same model (same bands,
// directions, relaxation, boundary conditions and explicit FV update) as the
// DSL-generated solver, but with hard-coded structured-grid loops, flat
// arrays and precomputed per-direction upwind tables — no symbolic layer, no
// bytecode. Cross-validating the two is the repo's equivalent of the paper's
// "our solutions matched theirs".

#include <memory>
#include <vector>

#include "bte_problem.hpp"

namespace finch::bte {

class DirectSolver {
 public:
  DirectSolver(const BteScenario& scenario, std::shared_ptr<const BtePhysics> physics);

  void step();
  void run(int nsteps) {
    for (int i = 0; i < nsteps; ++i) step();
  }

  double time() const { return time_; }
  const std::vector<double>& temperature() const { return T_; }
  // I indexed as [cell * dofs + (d + nd*b)] — the same dof layout the DSL
  // solver uses, so fields can be compared element-wise.
  const std::vector<double>& intensity() const { return I_; }
  int dofs_per_cell() const { return nd_ * nb_; }
  int num_cells() const { return nx_ * ny_; }

  // Phase timers (seconds) for the breakdown comparisons, in dsl::Solver's
  // vocabulary: compute is the intensity sweep, post_process the
  // temperature update.
  const rt::PhaseTimes& phases() const { return phases_; }

 private:
  int cell_id(int i, int j) const { return j * nx_ + i; }
  void sweep_intensity();
  void update_temperature();

  BteScenario scen_;
  std::shared_ptr<const BtePhysics> phys_;
  int nx_, ny_, nd_, nb_;
  double hx_, hy_, dt_;
  std::vector<double> I_, I_new_, Io_, beta_, T_;
  std::vector<double> vg_, sx_, sy_, wdir_;
  std::vector<int> reflect_x_, reflect_y_;
  double time_ = 0.0;
  rt::PhaseTimes phases_;
  std::vector<double> g_scratch_;
};

}  // namespace finch::bte
