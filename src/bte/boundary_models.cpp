#include "boundary_models.hpp"

#include <cmath>
#include <stdexcept>

namespace finch::bte {

fvm::BoundaryCallback make_isothermal_wall(std::shared_ptr<const BtePhysics> physics, double T_wall) {
  return [physics, T_wall](const fvm::BoundaryContext& ctx) {
    const mesh::Vec3& s = physics->directions.s[static_cast<size_t>(ctx.dir)];
    const double sdotn = s.dot(ctx.normal);
    const double vg = physics->bands[ctx.band].vg;
    if (sdotn > 0) return vg * sdotn * ctx.field->at(ctx.cell, ctx.dof);
    return vg * sdotn * physics->table.I0(ctx.band, T_wall);
  };
}

fvm::BoundaryCallback make_specular_wall(std::shared_ptr<const BtePhysics> physics) {
  return [physics](const fvm::BoundaryContext& ctx) {
    const mesh::Vec3& s = physics->directions.s[static_cast<size_t>(ctx.dir)];
    const double sdotn = s.dot(ctx.normal);
    const double vg = physics->bands[ctx.band].vg;
    const fvm::CellField& I = *ctx.field;
    if (sdotn > 0) return vg * sdotn * I.at(ctx.cell, ctx.dof);
    const int r = physics->directions.reflect(ctx.dir, ctx.normal);
    return vg * sdotn * I.at(ctx.cell, r + physics->num_dirs() * ctx.band);
  };
}

fvm::BoundaryCallback make_diffuse_wall(std::shared_ptr<const BtePhysics> physics, double specularity) {
  if (specularity < 0.0 || specularity > 1.0)
    throw std::invalid_argument("make_diffuse_wall: specularity must be in [0,1]");
  return [physics, specularity](const fvm::BoundaryContext& ctx) {
    const DirectionSet& dirs = physics->directions;
    const mesh::Vec3& s = dirs.s[static_cast<size_t>(ctx.dir)];
    const double sdotn = s.dot(ctx.normal);
    const double vg = physics->bands[ctx.band].vg;
    const fvm::CellField& I = *ctx.field;
    if (sdotn > 0) return vg * sdotn * I.at(ctx.cell, ctx.dof);

    // Specular part.
    const int r = dirs.reflect(ctx.dir, ctx.normal);
    const double I_spec = I.at(ctx.cell, r + physics->num_dirs() * ctx.band);

    // Diffuse part: isotropic re-emission balancing the outgoing band flux,
    //   I_diff = sum_{s.n>0} w (s.n) I / sum_{s.n>0} w (s.n).
    double out_flux = 0.0, out_weight = 0.0;
    for (int d = 0; d < dirs.size(); ++d) {
      const double dn = dirs.s[static_cast<size_t>(d)].dot(ctx.normal);
      if (dn <= 0) continue;
      const double w = dirs.weight[static_cast<size_t>(d)] * dn;
      out_flux += w * I.at(ctx.cell, d + physics->num_dirs() * ctx.band);
      out_weight += w;
    }
    const double I_diff = out_weight > 0 ? out_flux / out_weight : 0.0;
    return vg * sdotn * (specularity * I_spec + (1.0 - specularity) * I_diff);
  };
}

}  // namespace finch::bte
