#pragma once
// Reusable boundary-condition callback builders for the BTE.
//
// The paper's demonstrations use isothermal and symmetry (specular) walls;
// real device studies also need diffuse (thermalizing-reflective) walls where
// incoming phonons are re-emitted isotropically with the energy of the
// outgoing flux. All three are provided here as the face fills the DSL's
// boundary(...) hook expects, and BteProblem/BteProblem3d wire their walls
// from them. Each fill computes s·n and the reflection once per direction
// and band-only values once per band, then writes every DOF of the face as
// vg_b (s_d·n) I with the operations of a per-DOF evaluation.

#include <functional>
#include <memory>

#include "bte_problem.hpp"
#include "fvm/boundary.hpp"

namespace finch::bte {

// The temperature of the wall at the face in ctx; evaluated once per face.
using WallTemperature = std::function<double(const fvm::BoundaryContext&)>;

// Isothermal wall: incoming directions carry the wall's equilibrium intensity
// (Eq. 6, first case).
fvm::BoundaryCallback make_isothermal_wall(std::shared_ptr<const BtePhysics> physics, WallTemperature T_wall);
fvm::BoundaryCallback make_isothermal_wall(std::shared_ptr<const BtePhysics> physics, double T_wall);

// Specular (symmetry) wall: incoming directions mirror the outgoing ones
// (Eq. 6, second case). Requires a direction set closed under reflection.
fvm::BoundaryCallback make_specular_wall(std::shared_ptr<const BtePhysics> physics);

// Diffuse wall with specularity p in [0,1]: fraction p reflects specularly,
// fraction (1-p) is re-emitted isotropically so that the net wall flux in
// each band vanishes (adiabatic diffuse wall). p = 1 reduces to specular.
fvm::BoundaryCallback make_diffuse_wall(std::shared_ptr<const BtePhysics> physics, double specularity);

}  // namespace finch::bte
