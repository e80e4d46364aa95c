#pragma once
// Discrete-ordinates direction sets.
//
// 2D: N unit vectors uniformly distributed on the circle at angles
//     phi_m = 2 pi (m + 1/2) / N, with equal weights summing to 4 pi (the
//     solid-angle normalization the equilibrium intensity uses). The
//     half-offset keeps directions off the coordinate axes and makes the set
//     exactly closed under reflections about the x- and y-axes — which is
//     what the specular/symmetry boundary condition (Eq. 6) needs.
// 3D: product quadrature, Gauss-Legendre in cos(theta) x uniform azimuth.

#include <array>
#include <cstddef>
#include <vector>

#include "mesh/geometry.hpp"

namespace finch::bte {

struct DirectionSet {
  std::vector<mesh::Vec3> s;      // unit direction vectors
  std::vector<double> weight;     // solid-angle weights, sum = 4 pi
  // reflect_x[d] = index of the direction with sx negated (and same sy,sz);
  // likewise reflect_y / reflect_z. Only meaningful when the set is closed
  // under that reflection.
  std::vector<int> reflect_x, reflect_y, reflect_z;

  int size() const { return static_cast<int>(s.size()); }

  // Direction index of the specular reflection of direction d across a wall
  // with unit outward normal n (axis-aligned normals only).
  int reflect(int d, const mesh::Vec3& n) const;

  // Angular sums of nb bands: G[b] = sum_d weight[d] * I[(d + size()*b) * item].
  // Several bands are summed at a time so their add chains overlap, but each
  // band is summed in direction order from 0.0, so every G[b] is bitwise the
  // serial per-band loop. item = 1 for directions stored contiguously.
  void band_sums(const double* I, size_t item, size_t nb, double* G) const;
};

DirectionSet make_directions_2d(int ndirs);
DirectionSet make_directions_3d(int n_polar, int n_azimuth);

}  // namespace finch::bte
