#include "equilibrium.hpp"

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
  i0_.resize(static_cast<size_t>(nbands_) * nT_);
  beta_.resize(static_cast<size_t>(nbands_) * nT_);
  inv_vg_.resize(static_cast<size_t>(nbands_));
  for (int b = 0; b < nbands_; ++b) {
    inv_vg_[static_cast<size_t>(b)] = 1.0 / bands[b].vg;
    for (int t = 0; t < nT_; ++t) {
      const double T = T_min + t * dT;
      i0_[static_cast<size_t>(b) * nT_ + t] = equilibrium_intensity(bands[b], T);
      beta_[static_cast<size_t>(b) * nT_ + t] = relax.inverse_tau(bands[b], T);
    }
  }
}

double EquilibriumTable::lookup(const std::vector<double>& table, int band, double T) const {
  double pos = (T - T_min_) / dT_;
  if (pos < 0) pos = 0;
  if (pos > nT_ - 1) pos = nT_ - 1;
  const int i = std::min(static_cast<int>(pos), nT_ - 2);
  const double f = pos - i;
  const double* row = table.data() + static_cast<size_t>(band) * nT_;
  return row[i] * (1.0 - f) + row[i + 1] * f;
}

double EquilibriumTable::I0(int band, double T) const { return lookup(i0_, band, T); }
double EquilibriumTable::beta(int band, double T) const { return lookup(beta_, band, T); }

double EquilibriumTable::dI0_dT(int band, double T) const {
  const double h = dT_;
  return (I0(band, T + h) - I0(band, T - h)) / (2.0 * h);
}

template <typename WeightFn>
double EquilibriumTable::solve(const std::vector<double>& G, double T_guess, WeightFn weight) const {
  if (static_cast<int>(G.size()) != nbands_)
    throw std::invalid_argument("solve_temperature: band count mismatch");
  auto F = [&](double T) {
    double f = 0.0;
    for (int b = 0; b < nbands_; ++b)
      f += weight(b, T) * (4.0 * M_PI * I0(b, T) - G[static_cast<size_t>(b)]);
    return f;
  };
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

double EquilibriumTable::solve_temperature(const std::vector<double>& G, double T_guess) const {
  return solve(G, T_guess, [this](int b, double T) { return beta(b, T) * inv_vg_[static_cast<size_t>(b)]; });
}

double EquilibriumTable::solve_energy_temperature(const std::vector<double>& G, double T_guess) const {
  return solve(G, T_guess, [this](int b, double) {
    return inv_vg_[static_cast<size_t>(b)];  // energy density weights e_b = 4 pi I_b / vg_b
  });
}

}  // namespace finch::bte
