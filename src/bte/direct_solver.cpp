#include "direct_solver.hpp"

#include <cmath>

#include "runtime/metrics.hpp"

namespace finch::bte {

DirectSolver::DirectSolver(const BteScenario& scenario, std::shared_ptr<const BtePhysics> physics)
    : scen_(scenario), phys_(std::move(physics)) {
  nx_ = scen_.nx;
  ny_ = scen_.ny;
  nd_ = phys_->num_dirs();
  nb_ = phys_->num_bands();
  hx_ = scen_.lx / nx_;
  hy_ = scen_.ly / ny_;
  dt_ = scen_.dt;

  const int ncell = nx_ * ny_;
  const int dofs = nd_ * nb_;
  I_.resize(static_cast<size_t>(ncell) * dofs);
  I_new_.resize(I_.size());
  Io_.resize(static_cast<size_t>(ncell) * nb_);
  beta_.resize(Io_.size());
  T_.assign(static_cast<size_t>(ncell), scen_.T_init);
  g_scratch_.resize(static_cast<size_t>(nb_));

  vg_.resize(static_cast<size_t>(nb_));
  for (int b = 0; b < nb_; ++b) vg_[static_cast<size_t>(b)] = phys_->bands[b].vg;
  sx_ = phys_->sx();
  sy_ = phys_->sy();
  wdir_ = phys_->directions.weight;
  reflect_x_ = phys_->directions.reflect_x;
  reflect_y_ = phys_->directions.reflect_y;

  for (int b = 0; b < nb_; ++b) {
    const double i0 = phys_->table.I0(b, scen_.T_init);
    const double be = phys_->table.beta(b, scen_.T_init);
    for (int c = 0; c < ncell; ++c) {
      Io_[static_cast<size_t>(c) * nb_ + b] = i0;
      beta_[static_cast<size_t>(c) * nb_ + b] = be;
      for (int d = 0; d < nd_; ++d) I_[static_cast<size_t>(c) * dofs + d + nd_ * b] = i0;
    }
  }
}

void DirectSolver::sweep_intensity() {
  const int dofs = nd_ * nb_;
  const double ax = dt_ / hx_, ay = dt_ / hy_;  // dt * A/V per face pair

  // Band-outermost ordering — the layout the hand-written code was
  // "optimized for band-based parallelism" with.
  for (int b = 0; b < nb_; ++b) {
    const double vg = vg_[static_cast<size_t>(b)];
    for (int d = 0; d < nd_; ++d) {
      const double vx = vg * sx_[static_cast<size_t>(d)];
      const double vy = vg * sy_[static_cast<size_t>(d)];
      const int rx = reflect_x_[static_cast<size_t>(d)];
      const int ry = reflect_y_[static_cast<size_t>(d)];
      const int dof = d + nd_ * b;
      for (int j = 0; j < ny_; ++j) {
        for (int i = 0; i < nx_; ++i) {
          const int c = cell_id(i, j);
          const size_t ci = static_cast<size_t>(c) * dofs + dof;
          const double Ic = I_[ci];
          // volume: I + dt (Io - I) beta
          const size_t cb = static_cast<size_t>(c) * nb_ + b;
          double val = Ic + dt_ * (Io_[cb] - Ic) * beta_[cb];

          // west face, outward normal (-1,0): flux = -vx * I_up
          double Iw;
          if (i > 0)
            Iw = -vx > 0 ? Ic : I_[ci - static_cast<size_t>(dofs)];
          else  // region 3, symmetry
            Iw = -vx > 0 ? Ic : I_[static_cast<size_t>(c) * dofs + rx + nd_ * b];
          val -= ax * (-vx) * Iw;
          // east face, outward (+1,0)
          double Ie;
          if (i < nx_ - 1)
            Ie = vx > 0 ? Ic : I_[ci + static_cast<size_t>(dofs)];
          else  // region 4, symmetry
            Ie = vx > 0 ? Ic : I_[static_cast<size_t>(c) * dofs + rx + nd_ * b];
          val -= ax * vx * Ie;
          // south face, outward (0,-1): region 1 isothermal cold
          double Is;
          if (j > 0)
            Is = -vy > 0 ? Ic : I_[ci - static_cast<size_t>(dofs) * nx_];
          else
            Is = -vy > 0 ? Ic : phys_->table.I0(b, scen_.T_cold);
          val -= ay * (-vy) * Is;
          // north face, outward (0,+1): region 2 isothermal hot spot
          double In;
          if (j < ny_ - 1)
            In = vy > 0 ? Ic : I_[ci + static_cast<size_t>(dofs) * nx_];
          else
            In = vy > 0 ? Ic : phys_->table.I0(b, scen_.wall_temperature((i + 0.5) * hx_));
          val -= ay * vy * In;

          I_new_[ci] = val;
          (void)ry;
        }
      }
    }
  }
  I_.swap(I_new_);
}

void DirectSolver::update_temperature() {
  const int ncell = nx_ * ny_;
  const int dofs = nd_ * nb_;
  for (int c = 0; c < ncell; ++c) {
    for (int b = 0; b < nb_; ++b) {
      double g = 0.0;
      const size_t base = static_cast<size_t>(c) * dofs + static_cast<size_t>(nd_) * b;
      for (int d = 0; d < nd_; ++d) g += wdir_[static_cast<size_t>(d)] * I_[base + d];
      g_scratch_[static_cast<size_t>(b)] = g;
    }
    const double Tc = phys_->table.solve_temperature(g_scratch_, T_[static_cast<size_t>(c)]);
    T_[static_cast<size_t>(c)] = Tc;
    for (int b = 0; b < nb_; ++b) {
      Io_[static_cast<size_t>(c) * nb_ + b] = phys_->table.I0(b, Tc);
      beta_[static_cast<size_t>(c) * nb_ + b] = phys_->table.beta(b, Tc);
    }
  }
}

void DirectSolver::step() {
  auto t0 = rt::Clock::now();
  sweep_intensity();
  phases_.compute += rt::seconds_since(t0);
  t0 = rt::Clock::now();
  update_temperature();
  phases_.post_process += rt::seconds_since(t0);
  time_ += dt_;
}

}  // namespace finch::bte
