// Phonon physics substrate: dispersion, bands, relaxation, equilibrium
// intensity, and the direction sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "bte/bands.hpp"
#include "bte/directions.hpp"
#include "bte/dispersion.hpp"
#include "bte/equilibrium.hpp"
#include "bte/relaxation.hpp"

using namespace finch::bte;

// ---- dispersion ------------------------------------------------------------

TEST(Dispersion, SiliconBranchShapes) {
  Dispersion si = Dispersion::silicon();
  // Literature values: omega_max(LA) ~ 7.7e13 rad/s, omega_max(TA) ~ 3.0e13.
  EXPECT_NEAR(si.la.omega_max(), 7.75e13, 0.1e13);
  EXPECT_NEAR(si.ta.omega_max(), 3.02e13, 0.1e13);
  // Group velocity at zone center equals the sound speed; decreases with k.
  EXPECT_DOUBLE_EQ(si.la.group_velocity(0), 9.01e3);
  EXPECT_LT(si.la.group_velocity(si.la.k_max), si.la.group_velocity(0));
  // TA flattens out at the zone edge.
  EXPECT_NEAR(si.ta.group_velocity(si.ta.k_max), 0.0, 50.0);
}

TEST(Dispersion, InverseDispersionRoundTrip) {
  Dispersion si = Dispersion::silicon();
  for (const BranchDispersion* bd : {&si.la, &si.ta}) {
    for (double frac : {0.1, 0.3, 0.5, 0.7, 0.9}) {
      const double k = frac * bd->k_max;
      const double w = bd->omega(k);
      EXPECT_NEAR(bd->k_of_omega(w), k, 1e-6 * bd->k_max);
    }
  }
  EXPECT_THROW(si.la.k_of_omega(-1.0), std::domain_error);
  EXPECT_THROW(si.ta.k_of_omega(si.la.omega_max()), std::domain_error);
}

// ---- bands ------------------------------------------------------------------

TEST(Bands, PaperCountFortyGivesFiftyFive) {
  // §III.A: "40 frequency bands, which results in 40 longitudinal bands and
  // an additional 15 transverse bands" -> 55 total.
  BandSet set = make_bands(Dispersion::silicon(), 40);
  int la = 0, ta = 0;
  for (const auto& b : set.bands) (b.branch == Branch::LA ? la : ta)++;
  EXPECT_EQ(la, 40);
  EXPECT_EQ(ta, 15);
  EXPECT_EQ(set.size(), 55);
}

TEST(Bands, CoverSpectrumWithoutGaps) {
  BandSet set = make_bands(Dispersion::silicon(), 16);
  const double dw = Dispersion::silicon().la.omega_max() / 16;
  for (const auto& b : set.bands) {
    EXPECT_NEAR(b.d_omega(), dw, 1e-3 * dw);
    EXPECT_GT(b.omega_c, b.omega_lo);
    EXPECT_LT(b.omega_c, b.omega_hi);
    EXPECT_GT(b.vg, 0.0);
  }
}

TEST(Bands, TaBandsAreDoublyDegenerate) {
  BandSet set = make_bands(Dispersion::silicon(), 10);
  for (const auto& b : set.bands)
    EXPECT_DOUBLE_EQ(b.degeneracy, b.branch == Branch::TA ? 2.0 : 1.0);
}

class BandCounts : public ::testing::TestWithParam<int> {};

TEST_P(BandCounts, TaFractionTracksFrequencyRatio) {
  const int n = GetParam();
  BandSet set = make_bands(Dispersion::silicon(), n);
  int ta = 0;
  for (const auto& b : set.bands)
    if (b.branch == Branch::TA) ++ta;
  const double ratio = Dispersion::silicon().ta.omega_max() / Dispersion::silicon().la.omega_max();
  EXPECT_NEAR(static_cast<double>(ta) / n, ratio, 1.5 / n);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BandCounts, ::testing::Values(8, 16, 40, 80));

// ---- relaxation --------------------------------------------------------------

TEST(Relaxation, RatesPositiveAndTemperatureSensitive) {
  Dispersion si = Dispersion::silicon();
  BandSet set = make_bands(si, 20);
  RelaxationModel rm = RelaxationModel::silicon(si);
  for (const auto& band : set.bands) {
    const double r300 = rm.inverse_tau(band, 300.0);
    const double r400 = rm.inverse_tau(band, 400.0);
    EXPECT_GT(r300, 0.0);
    EXPECT_GT(r400, r300);  // more scattering when hotter
  }
}

TEST(Relaxation, SiliconTimescaleOrderOfMagnitude) {
  // Mid-spectrum LA phonons at 300 K relax on ~1e-11..1e-9 s scales.
  Dispersion si = Dispersion::silicon();
  BandSet set = make_bands(si, 40);
  RelaxationModel rm = RelaxationModel::silicon(si);
  const Band& mid = set.bands[20];  // LA, mid spectrum
  const double tau = rm.tau(mid, 300.0);
  EXPECT_GT(tau, 1e-12);
  EXPECT_LT(tau, 1e-8);
}

TEST(Relaxation, HigherFrequencyScattersMore) {
  Dispersion si = Dispersion::silicon();
  BandSet set = make_bands(si, 40);
  RelaxationModel rm = RelaxationModel::silicon(si);
  // Within the LA branch, rates grow with frequency.
  EXPECT_LT(rm.inverse_tau(set.bands[2], 300.0), rm.inverse_tau(set.bands[30], 300.0));
}

// ---- equilibrium intensity ----------------------------------------------------

TEST(Equilibrium, BoseEinsteinProperties) {
  EXPECT_GT(bose_einstein(1e13, 300.0), bose_einstein(5e13, 300.0));  // decreasing in w
  EXPECT_GT(bose_einstein(1e13, 400.0), bose_einstein(1e13, 300.0));  // increasing in T
  EXPECT_NEAR(bose_einstein(1e13, 300.0), 1.0 / std::expm1(kHbar * 1e13 / (kBoltzmann * 300.0)), 1e-12);
  // Derivative matches finite differences.
  const double h = 1e-3;
  const double fd = (bose_einstein(2e13, 300.0 + h) - bose_einstein(2e13, 300.0 - h)) / (2 * h);
  EXPECT_NEAR(d_bose_einstein_dT(2e13, 300.0), fd, 1e-6 * std::abs(fd));
}

TEST(Equilibrium, IntensityIncreasesWithTemperature) {
  BandSet set = make_bands(Dispersion::silicon(), 20);
  for (int b : {0, 5, 12, 19}) {
    EXPECT_GT(equilibrium_intensity(set.bands[static_cast<size_t>(b)], 350.0),
              equilibrium_intensity(set.bands[static_cast<size_t>(b)], 300.0));
  }
}

TEST(Equilibrium, TableMatchesDirectEvaluation) {
  Dispersion si = Dispersion::silicon();
  BandSet set = make_bands(si, 12);
  RelaxationModel rm = RelaxationModel::silicon(si);
  EquilibriumTable table(set, rm, 250.0, 450.0, 0.5);
  for (int b = 0; b < set.size(); ++b) {
    for (double T : {273.0, 300.0, 312.7, 380.0}) {
      EXPECT_NEAR(table.I0(b, T), equilibrium_intensity(set.bands[static_cast<size_t>(b)], T),
                  1e-4 * equilibrium_intensity(set.bands[static_cast<size_t>(b)], T) + 1e-12);
      EXPECT_NEAR(table.beta(b, T), rm.inverse_tau(set.bands[static_cast<size_t>(b)], T),
                  1e-4 * rm.inverse_tau(set.bands[static_cast<size_t>(b)], T));
    }
  }
}

TEST(Equilibrium, TemperatureSolveRecoversEquilibrium) {
  // If G_b = 4 pi I0_b(T*), the solver must return T*.
  Dispersion si = Dispersion::silicon();
  BandSet set = make_bands(si, 16);
  EquilibriumTable table(set, RelaxationModel::silicon(si), 250.0, 450.0, 0.25);
  for (double T_star : {280.0, 300.0, 333.3, 420.0}) {
    std::vector<double> G(static_cast<size_t>(set.size()));
    for (int b = 0; b < set.size(); ++b) G[static_cast<size_t>(b)] = 4.0 * M_PI * table.I0(b, T_star);
    EXPECT_NEAR(table.solve_temperature(G, 300.0), T_star, 0.02);
    EXPECT_NEAR(table.solve_energy_temperature(G, 300.0), T_star, 0.02);
  }
}

TEST(Equilibrium, TemperatureSolveMonotoneInEnergy) {
  Dispersion si = Dispersion::silicon();
  BandSet set = make_bands(si, 10);
  EquilibriumTable table(set, RelaxationModel::silicon(si));
  std::vector<double> G(static_cast<size_t>(set.size()));
  for (int b = 0; b < set.size(); ++b) G[static_cast<size_t>(b)] = 4.0 * M_PI * table.I0(b, 300.0);
  const double T1 = table.solve_temperature(G, 300.0);
  for (auto& g : G) g *= 1.05;  // add energy
  const double T2 = table.solve_temperature(G, 300.0);
  EXPECT_GT(T2, T1);
}

// ---- batched table paths vs the per-band table ----------------------------------

namespace {

// The table and Newton loop as they stood before I0/beta moved to one
// temperature-major store: [band][T] rows, one grid position per lookup, F
// summed band by band. Frozen here as the bitwise reference for the batched
// paths; do not "fix" it.
class FrozenTable {
 public:
  FrozenTable(const BandSet& bands, const RelaxationModel& relax, double T_min = 100.0,
              double T_max = 1000.0, double dT = 0.5)
      : nbands_(bands.size()), T_min_(T_min), T_max_(T_max), dT_(dT) {
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

  double I0(int band, double T) const { return lookup(i0_, band, T); }
  double beta(int band, double T) const { return lookup(beta_, band, T); }

  double solve_temperature(const std::vector<double>& G, double T_guess) const {
    return solve(G, T_guess, [this](int b, double T) { return beta(b, T) * inv_vg_[static_cast<size_t>(b)]; });
  }
  double solve_energy_temperature(const std::vector<double>& G, double T_guess) const {
    return solve(G, T_guess, [this](int b, double) { return inv_vg_[static_cast<size_t>(b)]; });
  }

 private:
  double lookup(const std::vector<double>& table, int band, double T) const {
    double pos = (T - T_min_) / dT_;
    if (pos < 0) pos = 0;
    if (pos > nT_ - 1) pos = nT_ - 1;
    const int i = std::min(static_cast<int>(pos), nT_ - 2);
    const double f = pos - i;
    const double* row = table.data() + static_cast<size_t>(band) * nT_;
    return row[i] * (1.0 - f) + row[i + 1] * f;
  }

  template <typename WeightFn>
  double solve(const std::vector<double>& G, double T_guess, WeightFn weight) const {
    auto F = [&](double T) {
      double f = 0.0;
      for (int b = 0; b < nbands_; ++b)
        f += weight(b, T) * (4.0 * M_PI * I0(b, T) - G[static_cast<size_t>(b)]);
      return f;
    };
    double lo = T_min_, hi = T_max_;
    double T = std::min(std::max(T_guess, lo + 1e-6), hi - 1e-6);
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
      if (!(T_new > lo && T_new < hi)) T_new = 0.5 * (lo + hi);
      if (std::abs(T_new - T) < 1e-10) {
        T = T_new;
        break;
      }
      T = T_new;
    }
    return T;
  }

  int nbands_ = 0;
  double T_min_, T_max_, dT_;
  int nT_ = 0;
  std::vector<double> i0_, beta_, inv_vg_;
};

uint64_t bits(double x) { return std::bit_cast<uint64_t>(x); }

// Deterministic uniform draws in [0, 1).
struct Draws {
  uint64_t state;
  double next() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return static_cast<double>((z ^ (z >> 31)) >> 11) * 0x1.0p-53;
  }
};

// Temperatures at the table's edges: below T_min, on grid points (T_min and
// T_max included), inside and at the ends of the last interval, above T_max.
std::vector<double> edge_temperatures() {
  return {-5.0,  50.0,  99.75, 100.0 - 1e-9, 100.0, 100.5, 300.0,         300.5,  717.0,
          998.5, 999.5, 999.6, 999.75,       999.9, 1000.0 - 1e-9, 1000.0, 1000.0 + 1e-9,
          1200.0};
}

struct BatchedTableTest : ::testing::Test {
  Dispersion si = Dispersion::silicon();
  BandSet set = make_bands(si, 40);  // 55 resolved bands: blocks plus a remainder
  RelaxationModel rm = RelaxationModel::silicon(si);
  EquilibriumTable table{set, rm};
  FrozenTable frozen{set, rm};
  int nb = set.size();
};

}  // namespace

TEST(BandSums, MatchTheSerialPerBandLoopBitwise) {
  Draws draw{5};
  for (const DirectionSet& dirs : {make_directions_2d(20), make_directions_3d(4, 6)}) {
    const size_t nd = static_cast<size_t>(dirs.size());
    // Band counts below, at and past one block, and the 55 of the hot spot;
    // contiguous directions and a stride of 3.
    for (size_t nb : {1u, 3u, 4u, 5u, 55u}) {
      for (size_t item : {1u, 3u}) {
        std::vector<double> I(nb * nd * item);
        for (double& x : I) x = 1e-3 * (0.5 + draw.next());
        std::vector<double> G(nb);
        dirs.band_sums(I.data(), item, nb, G.data());
        for (size_t b = 0; b < nb; ++b) {
          double g = 0.0;
          for (size_t d = 0; d < nd; ++d) g += dirs.weight[d] * I[(d + nd * b) * item];
          EXPECT_EQ(bits(G[b]), bits(g)) << "nd " << nd << " nb " << nb << " item " << item << " band " << b;
        }
      }
    }
  }
}

TEST_F(BatchedTableTest, LookupsAndRowsMatchTheFrozenTableBitwise) {
  std::vector<double> temps = edge_temperatures();
  Draws draw{17};
  for (int k = 0; k < 200; ++k) temps.push_back(90.0 + 920.0 * draw.next());
  std::vector<double> io(static_cast<size_t>(nb)), be(static_cast<size_t>(nb));
  std::vector<double> io3(3 * static_cast<size_t>(nb)), be3(3 * static_cast<size_t>(nb));
  for (double T : temps) {
    table.equilibrium(T, 0, nb, io.data(), be.data());
    table.equilibrium(T, 7, 30, io3.data(), be3.data(), 3);  // a band slice, strided
    for (int b = 0; b < nb; ++b) {
      const auto ub = static_cast<size_t>(b);
      ASSERT_EQ(bits(table.I0(b, T)), bits(frozen.I0(b, T))) << "band " << b << " T " << T;
      ASSERT_EQ(bits(table.beta(b, T)), bits(frozen.beta(b, T))) << "band " << b << " T " << T;
      ASSERT_EQ(bits(io[ub]), bits(table.I0(b, T))) << "band " << b << " T " << T;
      ASSERT_EQ(bits(be[ub]), bits(table.beta(b, T))) << "band " << b << " T " << T;
      if (b < 7 || b >= 30) continue;
      ASSERT_EQ(bits(io3[3 * (ub - 7)]), bits(io[ub])) << "band " << b << " T " << T;
      ASSERT_EQ(bits(be3[3 * (ub - 7)]), bits(be[ub])) << "band " << b << " T " << T;
    }
  }
}

TEST_F(BatchedTableTest, NewtonMatchesTheFrozenLoopBitwise) {
  Draws draw{29};
  std::vector<double> G(static_cast<size_t>(nb));
  int solves = 0;
  for (int k = 0; k < 60; ++k) {
    // Near-equilibrium per-band sums around a seeded T*, some outside the table.
    const double T_star = 60.0 + 1040.0 * draw.next();
    for (int b = 0; b < nb; ++b)
      G[static_cast<size_t>(b)] = 4.0 * M_PI * frozen.I0(b, T_star) * (0.98 + 0.04 * draw.next());
    std::vector<double> guesses = edge_temperatures();
    guesses.push_back(T_star);
    for (double guess : guesses) {
      ASSERT_EQ(bits(table.solve_temperature(G, guess)), bits(frozen.solve_temperature(G, guess)))
          << "T* " << T_star << " guess " << guess;
      ASSERT_EQ(bits(table.solve_energy_temperature(G, guess)),
                bits(frozen.solve_energy_temperature(G, guess)))
          << "T* " << T_star << " guess " << guess;
      ++solves;
    }
  }
  EXPECT_EQ(solves, 60 * 19);
}

TEST_F(BatchedTableTest, UpdateMatchesThePerCellLoopBitwise) {
  const DirectionSet dirs = make_directions_2d(20);
  const size_t nd = static_cast<size_t>(dirs.size()), ub = static_cast<size_t>(nb);
  const size_t ncells = 11, dofs = nd * ub;
  Draws draw{41};
  std::vector<double> I(ncells * dofs), T0(ncells);
  for (size_t c = 0; c < ncells; ++c) {
    // Guesses on a grid point, below T_min, above T_max, in the last interval.
    const double guesses[] = {300.0, 80.0, 1100.0, 999.7};
    T0[c] = c < 4 ? guesses[c] : 250.0 + 150.0 * draw.next();
    const double T_cell = 260.0 + 120.0 * draw.next();
    for (size_t b = 0; b < ub; ++b)
      for (size_t d = 0; d < nd; ++d)
        I[c * dofs + d + nd * b] = frozen.I0(static_cast<int>(b), T_cell) * (0.9 + 0.2 * draw.next());
  }

  // The per-cell loop the solvers ran before the batched update.
  std::vector<double> T_ref = T0, Io_ref(ncells * ub), beta_ref(ncells * ub);
  std::vector<double> G(ub);
  for (size_t c = 0; c < ncells; ++c) {
    for (size_t b = 0; b < ub; ++b) {
      double g = 0.0;
      for (size_t d = 0; d < nd; ++d) g += dirs.weight[d] * I[c * dofs + d + nd * b];
      G[b] = g;
    }
    T_ref[c] = frozen.solve_temperature(G, T_ref[c]);
    for (size_t b = 0; b < ub; ++b) {
      Io_ref[c * ub + b] = frozen.I0(static_cast<int>(b), T_ref[c]);
      beta_ref[c * ub + b] = frozen.beta(static_cast<int>(b), T_ref[c]);
    }
  }

  // Cell-major storage.
  std::vector<double> T = T0, Io(ncells * ub), beta(ncells * ub);
  table.update_temperature(dirs, ncells, I.data(), {dofs, 1}, T.data(), Io.data(),
                           beta.data(), {ub, 1});
  // Dof-major storage of the same cells.
  std::vector<double> I_dm(ncells * dofs), T_dm = T0, Io_dm(ncells * ub), beta_dm(ncells * ub);
  for (size_t c = 0; c < ncells; ++c)
    for (size_t k = 0; k < dofs; ++k) I_dm[k * ncells + c] = I[c * dofs + k];
  table.update_temperature(dirs, ncells, I_dm.data(), {1, ncells}, T_dm.data(),
                           Io_dm.data(), beta_dm.data(), {1, ncells});
  // The sums form, from dof-major sums (the DSL problems' G in that layout).
  std::vector<double> G_dm(ncells * ub), T_sums = T0, Io_sums(ncells * ub), beta_sums(ncells * ub);
  for (size_t c = 0; c < ncells; ++c) {
    dirs.band_sums(I.data() + c * dofs, 1, ub, G.data());
    for (size_t b = 0; b < ub; ++b) G_dm[b * ncells + c] = G[b];
  }
  table.update_temperature(ncells, G_dm.data(), {1, ncells}, T_sums.data(), Io_sums.data(),
                           beta_sums.data(), {1, ncells});
  EXPECT_EQ(Io_sums, Io_dm);
  EXPECT_EQ(beta_sums, beta_dm);

  for (size_t c = 0; c < ncells; ++c) {
    EXPECT_EQ(bits(T[c]), bits(T_ref[c])) << "cell " << c;
    EXPECT_EQ(bits(T_dm[c]), bits(T_ref[c])) << "cell " << c;
    EXPECT_EQ(bits(T_sums[c]), bits(T_ref[c])) << "cell " << c;
    for (size_t b = 0; b < ub; ++b) {
      EXPECT_EQ(bits(Io[c * ub + b]), bits(Io_ref[c * ub + b])) << "cell " << c << " band " << b;
      EXPECT_EQ(bits(beta[c * ub + b]), bits(beta_ref[c * ub + b])) << "cell " << c << " band " << b;
      EXPECT_EQ(bits(Io_dm[b * ncells + c]), bits(Io_ref[c * ub + b])) << "cell " << c << " band " << b;
      EXPECT_EQ(bits(beta_dm[b * ncells + c]), bits(beta_ref[c * ub + b])) << "cell " << c << " band " << b;
    }
  }
}

// ---- directions ----------------------------------------------------------------

TEST(Directions2D, UnitVectorsAndWeightSum) {
  DirectionSet set = make_directions_2d(20);
  EXPECT_EQ(set.size(), 20);
  double wsum = 0;
  for (int d = 0; d < set.size(); ++d) {
    EXPECT_NEAR(set.s[static_cast<size_t>(d)].norm(), 1.0, 1e-14);
    wsum += set.weight[static_cast<size_t>(d)];
  }
  EXPECT_NEAR(wsum, 4.0 * M_PI, 1e-12);
}

TEST(Directions2D, FirstMomentVanishes) {
  DirectionSet set = make_directions_2d(16);
  finch::mesh::Vec3 m{};
  for (int d = 0; d < set.size(); ++d) m += set.s[static_cast<size_t>(d)] * set.weight[static_cast<size_t>(d)];
  EXPECT_NEAR(m.norm(), 0.0, 1e-10);
}

TEST(Directions2D, ClosedUnderAxisReflections) {
  for (int n : {8, 12, 20}) {
    DirectionSet set = make_directions_2d(n);
    for (int d = 0; d < n; ++d) {
      const int rx = set.reflect_x[static_cast<size_t>(d)];
      const int ry = set.reflect_y[static_cast<size_t>(d)];
      ASSERT_GE(rx, 0);
      ASSERT_GE(ry, 0);
      EXPECT_NEAR(set.s[static_cast<size_t>(rx)].x, -set.s[static_cast<size_t>(d)].x, 1e-12);
      EXPECT_NEAR(set.s[static_cast<size_t>(rx)].y, set.s[static_cast<size_t>(d)].y, 1e-12);
      EXPECT_NEAR(set.s[static_cast<size_t>(ry)].y, -set.s[static_cast<size_t>(d)].y, 1e-12);
      // Reflection is an involution.
      EXPECT_EQ(set.reflect_x[static_cast<size_t>(rx)], d);
      EXPECT_EQ(set.reflect_y[static_cast<size_t>(ry)], d);
    }
  }
}

TEST(Directions2D, ReflectDispatchesOnNormalAxis) {
  DirectionSet set = make_directions_2d(8);
  const int d = 1;
  EXPECT_EQ(set.reflect(d, {1, 0, 0}), set.reflect_x[d]);
  EXPECT_EQ(set.reflect(d, {-1, 0, 0}), set.reflect_x[d]);
  EXPECT_EQ(set.reflect(d, {0, 1, 0}), set.reflect_y[d]);
}

TEST(Directions2D, RejectsOddCounts) {
  EXPECT_THROW(make_directions_2d(7), std::invalid_argument);
  EXPECT_THROW(make_directions_2d(0), std::invalid_argument);
}

TEST(Directions3D, WeightsSumToFourPiAndMomentsVanish) {
  DirectionSet set = make_directions_3d(4, 8);
  EXPECT_EQ(set.size(), 32);
  double wsum = 0;
  finch::mesh::Vec3 m{};
  for (int d = 0; d < set.size(); ++d) {
    EXPECT_NEAR(set.s[static_cast<size_t>(d)].norm(), 1.0, 1e-12);
    wsum += set.weight[static_cast<size_t>(d)];
    m += set.s[static_cast<size_t>(d)] * set.weight[static_cast<size_t>(d)];
  }
  EXPECT_NEAR(wsum, 4.0 * M_PI, 1e-10);
  EXPECT_NEAR(m.norm(), 0.0, 1e-9);
}

TEST(Directions3D, SecondMomentIsIsotropic) {
  // integral s_i s_j dOmega = (4 pi / 3) delta_ij
  DirectionSet set = make_directions_3d(6, 12);
  double xx = 0, yy = 0, zz = 0, xy = 0;
  for (int d = 0; d < set.size(); ++d) {
    const auto& s = set.s[static_cast<size_t>(d)];
    const double w = set.weight[static_cast<size_t>(d)];
    xx += w * s.x * s.x;
    yy += w * s.y * s.y;
    zz += w * s.z * s.z;
    xy += w * s.x * s.y;
  }
  const double third = 4.0 * M_PI / 3.0;
  EXPECT_NEAR(xx, third, 1e-8);
  EXPECT_NEAR(yy, third, 1e-8);
  EXPECT_NEAR(zz, third, 1e-8);
  EXPECT_NEAR(xy, 0.0, 1e-10);
}

TEST(Directions3D, ClosedUnderReflections) {
  DirectionSet set = make_directions_3d(4, 8);
  for (int d = 0; d < set.size(); ++d) {
    EXPECT_GE(set.reflect_x[static_cast<size_t>(d)], 0);
    EXPECT_GE(set.reflect_y[static_cast<size_t>(d)], 0);
    EXPECT_GE(set.reflect_z[static_cast<size_t>(d)], 0);
  }
}

// ---- integrated physics validation ---------------------------------------------

TEST(SiliconPhysics, BulkThermalConductivityOrderOfMagnitude) {
  // Kinetic-theory conductivity k = (1/3) sum_b C_b vg_b^2 tau_b with
  // C_b = 4 pi (dI0_b/dT) / vg_b. For Holland-type silicon parameters at
  // 300 K the literature value is ~150 W/(m K); the model should land within
  // a factor of ~2 (validating dispersion, DOS, occupancy and scattering
  // together).
  Dispersion si = Dispersion::silicon();
  BandSet set = make_bands(si, 40);
  RelaxationModel rm = RelaxationModel::silicon(si);
  EquilibriumTable table(set, rm, 250.0, 350.0, 0.25);
  double k = 0.0;
  for (int b = 0; b < set.size(); ++b) {
    const Band& band = set.bands[static_cast<size_t>(b)];
    const double dI0dT = table.dI0_dT(b, 300.0);
    const double C_b = 4.0 * M_PI * dI0dT / band.vg;
    k += (1.0 / 3.0) * C_b * band.vg * band.vg * rm.tau(band, 300.0);
  }
  EXPECT_GT(k, 50.0);
  EXPECT_LT(k, 500.0);
}

TEST(SiliconPhysics, HeatCapacityNearDulongPetit) {
  // Total volumetric heat capacity at 300 K: silicon's experimental value is
  // ~1.66e6 J/(m^3 K); the quadratic-dispersion model typically lands within
  // a factor ~2 (it misses optical phonons).
  Dispersion si = Dispersion::silicon();
  BandSet set = make_bands(si, 40);
  RelaxationModel rm = RelaxationModel::silicon(si);
  EquilibriumTable table(set, rm, 250.0, 350.0, 0.25);
  double cv = 0.0;
  for (int b = 0; b < set.size(); ++b)
    cv += 4.0 * M_PI * table.dI0_dT(b, 300.0) / set.bands[static_cast<size_t>(b)].vg;
  EXPECT_GT(cv, 0.4e6);
  EXPECT_LT(cv, 4.0e6);
}

TEST(SiliconPhysics, ConductivityDecreasesWithTemperature) {
  // Above the Debye peak, phonon-phonon scattering strengthens with T and
  // bulk conductivity falls (silicon: ~150 at 300 K, ~100 at 400 K).
  Dispersion si = Dispersion::silicon();
  BandSet set = make_bands(si, 40);
  RelaxationModel rm = RelaxationModel::silicon(si);
  EquilibriumTable table(set, rm, 250.0, 450.0, 0.25);
  auto conductivity = [&](double T) {
    double k = 0.0;
    for (int b = 0; b < set.size(); ++b) {
      const Band& band = set.bands[static_cast<size_t>(b)];
      k += (4.0 * M_PI / 3.0) * table.dI0_dT(b, T) * band.vg * rm.tau(band, T);
    }
    return k;
  };
  EXPECT_GT(conductivity(300.0), conductivity(400.0));
}
