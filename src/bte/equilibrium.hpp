#pragma once
// Equilibrium phonon intensity and the per-cell nonlinear temperature update.
//
// Band-integrated equilibrium intensity (isotropic):
//   I0_b(T) = g_b/(8 pi^3) * Integral_band  hbar w k(w)^2 f_BE(w,T) dw
// with g_b the branch degeneracy and D(w) = k^2 / (2 pi^2 vg) the density of
// states (the vg cancels against the intensity's vg factor).
//
// The temperature update ("indirect and nonlinear, computed every time step")
// enforces energy conservation of the relaxation operator in each cell:
//   F(T) = sum_b [4 pi I0_b(T) - G_b] / (vg_b tau_b(T)) = 0,
//   G_b  = sum_d w_d I_{d,b}
// solved per cell with a safeguarded Newton iteration. Both I0_b(T) and
// beta_b(T) = 1/tau_b(T) are precomputed on a fine temperature grid so the
// per-cell solve is table lookups only.

#include <cstddef>
#include <span>
#include <vector>

#include "bands.hpp"
#include "directions.hpp"
#include "relaxation.hpp"

namespace finch::bte {

// Bose-Einstein occupancy and its temperature derivative.
double bose_einstein(double omega, double T);
double d_bose_einstein_dT(double omega, double T);

// Direct (quadrature) evaluation of I0_b(T); nquad midpoint panels.
double equilibrium_intensity(const Band& band, double T, int nquad = 8);

// Where element k of cell c of a per-cell array sits: at c * cell + k * item.
// Cell-major storage of n values per cell is {n, 1}; dof-major storage over
// ncells cells is {1, ncells}.
struct RowStrides {
  size_t cell = 0;
  size_t item = 1;
};

// Tabulated physics for fast per-cell solves. I0 and beta are stored once,
// temperature-major ([T][band]), so every band's value at one temperature
// comes from one grid position and two contiguous rows.
class EquilibriumTable {
 public:
  EquilibriumTable(const BandSet& bands, const RelaxationModel& relax, double T_min = 100.0,
                   double T_max = 1000.0, double dT = 0.5);

  double I0(int band, double T) const;        // equilibrium intensity
  double beta(int band, double T) const;      // 1/tau
  double dI0_dT(int band, double T) const;    // finite-difference on the table
  double T_min() const { return T_min_; }
  double T_max() const { return T_max_; }
  int num_bands() const { return nbands_; }

  // I0_b(T) and beta_b(T) of bands [b_lo, b_hi) from one grid position, into
  // io[(b - b_lo) * stride] and beta[(b - b_lo) * stride]. Bitwise equal to
  // I0(b, T) and beta(b, T).
  void equilibrium(double T, int b_lo, int b_hi, double* io, double* beta, size_t stride = 1) const;

  // Solves F(T) = 0 given per-band directional sums G_b = sum_d w_d I_db.
  // Safeguarded Newton with bisection fallback; returns the temperature.
  double solve_temperature(std::span<const double> G, double T_guess) const;

  // "Energy temperature" used for reporting: sum_b 4 pi I0_b(T) = sum_b G_b
  // (no 1/(vg tau) weights).
  double solve_energy_temperature(std::span<const double> G, double T_guess) const;

  // The temperature update from the angular sums, over `ncells` cells. For
  // cell c: solve_temperature of its sums G (element b at G_rows) warm-started
  // from T[c], then the cell's Io/beta rows at the new T[c]. Io and beta are
  // laid out by eq_rows, and T is contiguous. The DSL problems' post-steps
  // call this with the sums their step declared (dsl::Problem::reduction).
  void update_temperature(size_t ncells, const double* G, RowStrides G_rows, double* T, double* Io,
                          double* beta, RowStrides eq_rows) const;

  // The same update from the intensities: per cell, the angular sums
  // dirs.band_sums of I (element d + nd*b at I_rows), then the sums form.
  void update_temperature(const DirectionSet& dirs, size_t ncells, const double* I,
                          RowStrides I_rows, double* T, double* Io, double* beta,
                          RowStrides eq_rows) const;

 private:
  // Grid interval i and offset f of temperature T, clamped to the table.
  struct GridPos {
    size_t i;
    double f;
  };
  GridPos position(double T) const;
  double lookup(const std::vector<double>& table, int band, double T) const;
  template <bool kRelaxationWeights>
  double residual(std::span<const double> G, double T) const;
  template <bool kRelaxationWeights>
  double solve(std::span<const double> G, double T_guess) const;

  int nbands_ = 0;
  double T_min_, T_max_, dT_;
  int nT_ = 0;
  std::vector<double> i0_;        // [Ti][band]
  std::vector<double> beta_;      // [Ti][band]
  std::vector<double> inv_vg_;    // per band
};

}  // namespace finch::bte
