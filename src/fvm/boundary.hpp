#pragma once
// User-callback boundary conditions.
//
// The paper keeps complex boundary conditions as user-supplied CPU callbacks
// ("@callbackFunction ... boundary(I, 1, FLUX, \"isothermal(...)\")"). A
// BoundaryTable maps (variable, region) -> condition; FLUX conditions return
// the *outward surface flux integrand* for one (face, dof) pair and VALUE
// conditions return a ghost value to use as the neighbor state.

#include <functional>
#include <map>
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
  int32_t dof = 0;     // flattened dof index
  int32_t dir = 0;     // direction index (0-based)
  int32_t band = 0;    // band index (0-based)
  double time = 0.0;
};

using BoundaryCallback = std::function<double(const BoundaryContext&)>;

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
