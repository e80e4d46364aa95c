#include "equilibrium.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace finch::bte {

double bose_einstein(double omega, double T) {
  const double x = kHbar * omega / (kBoltzmann * T);
  if (x > 700.0) return 0.0;
  return 1.0 / std::expm1(x);
}

double d_bose_einstein_dT(double omega, double T) {
  const double x = kHbar * omega / (kBoltzmann * T);
  if (x > 350.0) return 0.0;
  const double ex = std::exp(x);
  const double em1 = ex - 1.0;
  return (x / T) * ex / (em1 * em1);
}

double equilibrium_intensity(const Band& band, double T, int nquad) {
  // Midpoint quadrature of g/(8 pi^3) * hbar w k(w)^2 f_BE(w,T) over the band.
  static const Dispersion si = Dispersion::silicon();
  // The band carries its branch geometry through k(w); re-derive k from the
  // band's own dispersion via local quadratic inversion around k_c. For
  // accuracy we re-invert with the silicon dispersion of the band's branch.
  const BranchDispersion& disp = si.branch(band.branch);
  const double dw = band.d_omega() / nquad;
  double sum = 0.0;
  for (int q = 0; q < nquad; ++q) {
    const double w = band.omega_lo + (q + 0.5) * dw;
    if (w <= 0 || w > disp.omega_max()) continue;
    const double k = disp.k_of_omega(w);
    sum += kHbar * w * k * k * bose_einstein(w, T) * dw;
  }
  return band.degeneracy / (8.0 * M_PI * M_PI * M_PI) * sum;
}

EquilibriumTable::EquilibriumTable(const BandSet& bands, const RelaxationModel& relax, double T_min,
                                   double T_max, double dT)
    : nbands_(bands.size()), T_min_(T_min), T_max_(T_max), dT_(dT) {
  if (T_max <= T_min || dT <= 0) throw std::invalid_argument("EquilibriumTable: bad temperature grid");
  nT_ = static_cast<int>(std::ceil((T_max - T_min) / dT)) + 1;
  const size_t nb = static_cast<size_t>(nbands_);
  i0_.resize(nb * static_cast<size_t>(nT_));
  beta_.resize(nb * static_cast<size_t>(nT_));
  inv_vg_.resize(nb);
  for (int b = 0; b < nbands_; ++b) {
    inv_vg_[static_cast<size_t>(b)] = 1.0 / bands[b].vg;
    for (int t = 0; t < nT_; ++t) {
      const double T = T_min + t * dT;
      const size_t at = static_cast<size_t>(t) * nb + static_cast<size_t>(b);
      i0_[at] = equilibrium_intensity(bands[b], T);
      beta_[at] = relax.inverse_tau(bands[b], T);
    }
  }
}

EquilibriumTable::GridPos EquilibriumTable::position(double T) const {
  double pos = (T - T_min_) / dT_;
  if (pos < 0) pos = 0;
  if (pos > nT_ - 1) pos = nT_ - 1;
  const int i = std::min(static_cast<int>(pos), nT_ - 2);
  return {static_cast<size_t>(i), pos - i};
}

double EquilibriumTable::lookup(const std::vector<double>& table, int band, double T) const {
  const GridPos p = position(T);
  const size_t nb = static_cast<size_t>(nbands_);
  const double* at = table.data() + p.i * nb + static_cast<size_t>(band);
  return at[0] * (1.0 - p.f) + at[nb] * p.f;
}

double EquilibriumTable::I0(int band, double T) const { return lookup(i0_, band, T); }
double EquilibriumTable::beta(int band, double T) const { return lookup(beta_, band, T); }

double EquilibriumTable::dI0_dT(int band, double T) const {
  const double h = dT_;
  return (I0(band, T + h) - I0(band, T - h)) / (2.0 * h);
}

void EquilibriumTable::equilibrium(double T, int b_lo, int b_hi, double* io, double* beta,
                                   size_t stride) const {
  const GridPos p = position(T);
  const size_t nb = static_cast<size_t>(nbands_);
  const double* i0 = i0_.data() + p.i * nb;  // rows i and i + 1
  const double* be = beta_.data() + p.i * nb;
  const double g = 1.0 - p.f;
  for (size_t b = static_cast<size_t>(b_lo), k = 0; b < static_cast<size_t>(b_hi); ++b, k += stride) {
    io[k] = i0[b] * g + i0[nb + b] * p.f;
    beta[k] = be[b] * g + be[nb + b] * p.f;
  }
}

// F(T) = sum_b w_b(T) * (4 pi I0_b(T) - G_b), summed in band order, with
// w_b = beta_b(T) / vg_b (relaxation weights) or 1 / vg_b (energy weights).
template <bool kRelaxationWeights>
double EquilibriumTable::residual(std::span<const double> G, double T) const {
  const GridPos p = position(T);
  const size_t nb = static_cast<size_t>(nbands_);
  const double* i0 = i0_.data() + p.i * nb;
  const double* be = beta_.data() + p.i * nb;
  const double g = 1.0 - p.f;
  double F = 0.0;
  for (size_t b = 0; b < nb; ++b) {
    const double w = kRelaxationWeights ? (be[b] * g + be[nb + b] * p.f) * inv_vg_[b] : inv_vg_[b];
    F += w * (4.0 * M_PI * (i0[b] * g + i0[nb + b] * p.f) - G[b]);
  }
  return F;
}

template <bool kRelaxationWeights>
double EquilibriumTable::solve(std::span<const double> G, double T_guess) const {
  if (static_cast<int>(G.size()) != nbands_)
    throw std::invalid_argument("solve_temperature: band count mismatch");
  auto F = [&](double T) { return residual<kRelaxationWeights>(G, T); };
  // Bracket the root: F is monotone increasing in T (I0 increases with T).
  double lo = T_min_, hi = T_max_;
  double T = std::min(std::max(T_guess, lo + 1e-6), hi - 1e-6);
  // Safeguarded Newton (numeric derivative) with bisection fallback.
  for (int it = 0; it < 60; ++it) {
    const double f = F(T);
    if (std::abs(f) < 1e-12 * (1.0 + std::abs(f))) break;
    if (f > 0)
      hi = T;
    else
      lo = T;
    const double h = 1e-3;
    const double df = (F(T + h) - F(T - h)) / (2.0 * h);
    double T_new = df != 0.0 ? T - f / df : 0.5 * (lo + hi);
    if (!(T_new > lo && T_new < hi)) T_new = 0.5 * (lo + hi);  // bisect when Newton escapes
    if (std::abs(T_new - T) < 1e-10) {
      T = T_new;
      break;
    }
    T = T_new;
  }
  return T;
}

double EquilibriumTable::solve_temperature(std::span<const double> G, double T_guess) const {
  return solve<true>(G, T_guess);
}

double EquilibriumTable::solve_energy_temperature(std::span<const double> G, double T_guess) const {
  return solve<false>(G, T_guess);  // energy density weights e_b = 4 pi I_b / vg_b
}

void EquilibriumTable::update_temperature(size_t ncells, const double* G, RowStrides G_rows, double* T,
                                          double* Io, double* beta, RowStrides eq_rows) const {
  const size_t nb = static_cast<size_t>(nbands_);
  std::vector<double> row(G_rows.item == 1 ? 0 : nb);  // strided sums, gathered
  for (size_t c = 0; c < ncells; ++c) {
    const double* g = G + c * G_rows.cell;
    if (G_rows.item != 1) {
      for (size_t b = 0; b < nb; ++b) row[b] = g[b * G_rows.item];
      g = row.data();
    }
    T[c] = solve_temperature({g, nb}, T[c]);
    equilibrium(T[c], 0, nbands_, Io + c * eq_rows.cell, beta + c * eq_rows.cell, eq_rows.item);
  }
}

void EquilibriumTable::update_temperature(const DirectionSet& dirs, size_t ncells, const double* I,
                                          RowStrides I_rows, double* T, double* Io, double* beta,
                                          RowStrides eq_rows) const {
  const size_t nb = static_cast<size_t>(nbands_);
  std::vector<double> G(nb);
  for (size_t c = 0; c < ncells; ++c) {
    dirs.band_sums(I + c * I_rows.cell, I_rows.item, nb, G.data());
    update_temperature(1, G.data(), {nb, 1}, T + c, Io + c * eq_rows.cell, beta + c * eq_rows.cell,
                       eq_rows);
  }
}

}  // namespace finch::bte
