#pragma once
// User-callback boundary conditions.
//
// The paper keeps complex boundary conditions as user-supplied CPU callbacks
// ("@callbackFunction ... boundary(I, 1, FLUX, \"isothermal(...)\")"). A
// BoundaryTable maps (variable, region) -> condition. A callback fills one
// boundary face of one cell: every DOF of the variable at once, so a value
// that varies only per face, direction or band is computed once, not once per
// DOF. FLUX conditions write the *outward surface flux integrand* of each DOF
// and VALUE conditions the ghost value to use as the neighbor state.

#include <array>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "field.hpp"
#include "mesh/mesh.hpp"

namespace finch::fvm {

enum class BcType { Flux, Value };

// Everything a callback may inspect, mirroring the argument list the DSL
// "interprets automatically" for the callback (values, normal, indices, time).
struct BoundaryContext {
  const mesh::Mesh* mesh = nullptr;
  const FieldSet* fields = nullptr;
  // The variable the condition is registered for (fields->get(its name)), so
  // a callback reading its own variable needs no per-DOF lookup by name.
  const CellField* field = nullptr;
  int32_t cell = 0;
  int32_t face = 0;
  mesh::Vec3 normal;   // outward
  // The variable's index extents in declaration order; entries past its last
  // index are 1. The DOF of index values (i0, i1, i2) is
  // i0 + extent[0] * (i1 + extent[1] * i2): the first index is fastest.
  std::array<int32_t, 3> extent{{1, 1, 1}};
  double time = 0.0;
};

// Fills `out` (one entry per DOF of the variable, in DOF order) for the face
// ctx.face of cell ctx.cell. Called once per (cell, boundary face with a
// condition) per sweep, before the sweep, serially on the thread that steps
// the solver (never on a pool worker), whichever executor runs the sweep;
// never for a variable whose equation has no surface terms.
using BoundaryCallback = std::function<void(const BoundaryContext&, std::span<double> out)>;

struct BoundaryCondition {
  BcType type = BcType::Flux;
  BoundaryCallback fn;
  std::string callback_name;  // for generated-source rendering & movement planning
};

class BoundaryTable {
 public:
  void set(const std::string& variable, int region, BoundaryCondition bc) {
    table_[{variable, region}] = std::move(bc);
  }
  const BoundaryCondition* find(const std::string& variable, int region) const {
    auto it = table_.find({variable, region});
    return it == table_.end() ? nullptr : &it->second;
  }
  size_t size() const { return table_.size(); }
  // Regions with a condition registered for `variable`, ascending.
  std::vector<int> regions(const std::string& variable) const {
    std::vector<int> out;
    for (const auto& [key, bc] : table_)
      if (key.first == variable) out.push_back(key.second);
    return out;
  }

 private:
  std::map<std::pair<std::string, int>, BoundaryCondition> table_;
};

}  // namespace finch::fvm
