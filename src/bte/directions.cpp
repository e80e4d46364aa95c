#include "directions.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace finch::bte {

namespace {

int find_direction(const DirectionSet& set, const mesh::Vec3& v) {
  for (int i = 0; i < set.size(); ++i) {
    if ((set.s[static_cast<size_t>(i)] - v).norm() < 1e-9) return i;
  }
  return -1;
}

void build_reflection_maps(DirectionSet& set) {
  const int n = set.size();
  set.reflect_x.assign(static_cast<size_t>(n), -1);
  set.reflect_y.assign(static_cast<size_t>(n), -1);
  set.reflect_z.assign(static_cast<size_t>(n), -1);
  for (int d = 0; d < n; ++d) {
    const mesh::Vec3& v = set.s[static_cast<size_t>(d)];
    set.reflect_x[static_cast<size_t>(d)] = find_direction(set, {-v.x, v.y, v.z});
    set.reflect_y[static_cast<size_t>(d)] = find_direction(set, {v.x, -v.y, v.z});
    set.reflect_z[static_cast<size_t>(d)] = find_direction(set, {v.x, v.y, -v.z});
  }
}

// Bands per block of DirectionSet::band_sums. The sums stream the intensities
// at about memory bandwidth; wider blocks measured slower.
constexpr size_t kBandBlock = 4;

}  // namespace

void DirectionSet::band_sums(const double* I, size_t item, size_t nb, double* G) const {
  const size_t nd = weight.size();
  size_t b = 0;
  for (; b + kBandBlock <= nb; b += kBandBlock) {
    std::array<double, kBandBlock> acc{};
    const double* rows = I + b * nd * item;
    for (size_t d = 0; d < nd; ++d)
      for (size_t k = 0; k < kBandBlock; ++k) acc[k] += weight[d] * rows[(k * nd + d) * item];
    std::copy(acc.begin(), acc.end(), G + b);
  }
  for (; b < nb; ++b) {
    double g = 0.0;
    for (size_t d = 0; d < nd; ++d) g += weight[d] * I[(b * nd + d) * item];
    G[b] = g;
  }
}

int DirectionSet::reflect(int d, const mesh::Vec3& n) const {
  const double ax = std::abs(n.x), ay = std::abs(n.y), az = std::abs(n.z);
  int r = -1;
  if (ax > ay && ax > az)
    r = reflect_x[static_cast<size_t>(d)];
  else if (ay > az)
    r = reflect_y[static_cast<size_t>(d)];
  else
    r = reflect_z[static_cast<size_t>(d)];
  if (r < 0) throw std::logic_error("DirectionSet: set is not closed under this reflection");
  return r;
}

DirectionSet make_directions_2d(int ndirs) {
  if (ndirs < 2 || ndirs % 2 != 0)
    throw std::invalid_argument("make_directions_2d: ndirs must be even and >= 2");
  DirectionSet set;
  set.s.reserve(static_cast<size_t>(ndirs));
  const double w = 4.0 * M_PI / ndirs;
  for (int m = 0; m < ndirs; ++m) {
    const double phi = 2.0 * M_PI * (m + 0.5) / ndirs;
    set.s.push_back({std::cos(phi), std::sin(phi), 0.0});
    set.weight.push_back(w);
  }
  build_reflection_maps(set);
  return set;
}

DirectionSet make_directions_3d(int n_polar, int n_azimuth) {
  if (n_polar < 1 || n_azimuth < 2 || n_azimuth % 2 != 0)
    throw std::invalid_argument("make_directions_3d: need n_polar >= 1, even n_azimuth >= 2");
  // Gauss-Legendre nodes/weights on [-1, 1] via Newton on Legendre P_n.
  std::vector<double> x(static_cast<size_t>(n_polar)), w(static_cast<size_t>(n_polar));
  const int n = n_polar;
  for (int i = 0; i < (n + 1) / 2; ++i) {
    double xi = std::cos(M_PI * (i + 0.75) / (n + 0.5));
    double pp = 0;
    for (int it = 0; it < 100; ++it) {
      double p0 = 1.0, p1 = 0.0;
      for (int j = 0; j < n; ++j) {
        const double p2 = p1;
        p1 = p0;
        p0 = ((2.0 * j + 1.0) * xi * p1 - j * p2) / (j + 1.0);
      }
      pp = n * (xi * p0 - p1) / (xi * xi - 1.0);
      const double dx = p0 / pp;
      xi -= dx;
      if (std::abs(dx) < 1e-15) break;
    }
    x[static_cast<size_t>(i)] = -xi;
    x[static_cast<size_t>(n - 1 - i)] = xi;
    w[static_cast<size_t>(i)] = 2.0 / ((1.0 - xi * xi) * pp * pp);
    w[static_cast<size_t>(n - 1 - i)] = w[static_cast<size_t>(i)];
  }
  DirectionSet set;
  for (int i = 0; i < n_polar; ++i) {
    const double ct = x[static_cast<size_t>(i)];
    const double st = std::sqrt(std::max(0.0, 1.0 - ct * ct));
    for (int j = 0; j < n_azimuth; ++j) {
      const double phi = 2.0 * M_PI * (j + 0.5) / n_azimuth;
      set.s.push_back({st * std::cos(phi), st * std::sin(phi), ct});
      set.weight.push_back(w[static_cast<size_t>(i)] * 2.0 * M_PI / n_azimuth);
    }
  }
  build_reflection_maps(set);
  return set;
}

}  // namespace finch::bte
