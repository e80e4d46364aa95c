#include "boundary_models.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace finch::bte {

namespace {

// s_d·n of every direction at the face, and the reflection of each incoming
// one (s_d·n <= 0); outgoing directions keep -1.
struct FaceDirections {
  std::vector<double> sdotn;
  std::vector<int> reflected;
};

FaceDirections face_directions(const DirectionSet& dirs, const mesh::Vec3& normal, bool reflect) {
  FaceDirections fd{std::vector<double>(static_cast<size_t>(dirs.size())),
                    std::vector<int>(static_cast<size_t>(dirs.size()), -1)};
  for (int d = 0; d < dirs.size(); ++d) {
    const auto k = static_cast<size_t>(d);
    fd.sdotn[k] = dirs.s[k].dot(normal);
    if (reflect && fd.sdotn[k] <= 0) fd.reflected[k] = dirs.reflect(d, normal);
  }
  return fd;
}

// The flux integrand vg_b (s_d·n) I of every DOF d + nd*b of the face: the
// cell's own intensity on outgoing directions, incoming(d, b) on the others.
template <class Incoming>
void fill_wall(const BtePhysics& ph, const fvm::BoundaryContext& ctx, const FaceDirections& fd,
               std::span<double> out, Incoming incoming) {
  const int nd = ph.num_dirs();
  const fvm::CellField& I = *ctx.field;
  for (int b = 0; b < ph.num_bands(); ++b) {
    const double vg = ph.bands[b].vg;
    for (int d = 0; d < nd; ++d) {
      const double sdotn = fd.sdotn[static_cast<size_t>(d)];
      const int32_t dof = d + nd * b;
      out[static_cast<size_t>(dof)] =
          sdotn > 0 ? vg * sdotn * I.at(ctx.cell, dof) : vg * sdotn * incoming(d, b);
    }
  }
}

}  // namespace

fvm::BoundaryCallback make_isothermal_wall(std::shared_ptr<const BtePhysics> physics, WallTemperature T_wall) {
  return [physics, T_wall](const fvm::BoundaryContext& ctx, std::span<double> out) {
    const BtePhysics& ph = *physics;
    const double T = T_wall(ctx);
    std::vector<double> I0(static_cast<size_t>(ph.num_bands()));
    for (int b = 0; b < ph.num_bands(); ++b) I0[static_cast<size_t>(b)] = ph.table.I0(b, T);
    fill_wall(ph, ctx, face_directions(ph.directions, ctx.normal, false), out,
              [&](int, int b) { return I0[static_cast<size_t>(b)]; });
  };
}

fvm::BoundaryCallback make_isothermal_wall(std::shared_ptr<const BtePhysics> physics, double T_wall) {
  return make_isothermal_wall(std::move(physics), [T_wall](const fvm::BoundaryContext&) { return T_wall; });
}

fvm::BoundaryCallback make_specular_wall(std::shared_ptr<const BtePhysics> physics) {
  return [physics](const fvm::BoundaryContext& ctx, std::span<double> out) {
    const BtePhysics& ph = *physics;
    const FaceDirections fd = face_directions(ph.directions, ctx.normal, true);
    const fvm::CellField& I = *ctx.field;
    fill_wall(ph, ctx, fd, out, [&](int d, int b) {
      return I.at(ctx.cell, fd.reflected[static_cast<size_t>(d)] + ph.num_dirs() * b);
    });
  };
}

fvm::BoundaryCallback make_diffuse_wall(std::shared_ptr<const BtePhysics> physics, double specularity) {
  if (specularity < 0.0 || specularity > 1.0)
    throw std::invalid_argument("make_diffuse_wall: specularity must be in [0,1]");
  return [physics, specularity](const fvm::BoundaryContext& ctx, std::span<double> out) {
    const BtePhysics& ph = *physics;
    const DirectionSet& dirs = ph.directions;
    const int nd = ph.num_dirs();
    const FaceDirections fd = face_directions(dirs, ctx.normal, true);
    const fvm::CellField& I = *ctx.field;
    // Diffuse part: isotropic re-emission balancing the outgoing band flux,
    //   I_diff = sum_{s.n>0} w (s.n) I / sum_{s.n>0} w (s.n),
    // summed once per band in direction order.
    std::vector<double> I_diff(static_cast<size_t>(ph.num_bands()));
    for (int b = 0; b < ph.num_bands(); ++b) {
      double out_flux = 0.0, out_weight = 0.0;
      for (int d = 0; d < nd; ++d) {
        const double dn = fd.sdotn[static_cast<size_t>(d)];
        if (dn <= 0) continue;
        const double w = dirs.weight[static_cast<size_t>(d)] * dn;
        out_flux += w * I.at(ctx.cell, d + nd * b);
        out_weight += w;
      }
      I_diff[static_cast<size_t>(b)] = out_weight > 0 ? out_flux / out_weight : 0.0;
    }
    fill_wall(ph, ctx, fd, out, [&](int d, int b) {
      const double I_spec = I.at(ctx.cell, fd.reflected[static_cast<size_t>(d)] + nd * b);
      return specularity * I_spec + (1.0 - specularity) * I_diff[static_cast<size_t>(b)];
    });
  };
}

}  // namespace finch::bte
