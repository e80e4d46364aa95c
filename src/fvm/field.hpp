#pragma once
// Cell-centered field storage for indexed variables.
//
// A variable like I[d,b] holds `dof_per_cell = ndirs*nbands` values in every
// cell. The memory layout is a code-generation decision (§II.A: "Code
// generation targets for different languages need to account for different
// data layouts"):
//   CellMajor  — [cell][dof]; cache-friendly when the cell loop is outermost
//                (the CPU targets' default)
//   DofMajor   — [dof][cell]; coalesced when one GPU thread owns one DOF
//                (the flattened GPU target's default)

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace finch::fvm {

enum class Layout { CellMajor, DofMajor };

class CellField {
 public:
  CellField() = default;
  CellField(std::string name, int32_t num_cells, int32_t dof_per_cell, Layout layout = Layout::CellMajor,
            double init = 0.0)
      : name_(std::move(name)),
        num_cells_(num_cells),
        dof_per_cell_(dof_per_cell),
        layout_(layout),
        data_(static_cast<size_t>(num_cells) * static_cast<size_t>(dof_per_cell), init) {}

  const std::string& name() const { return name_; }
  int32_t num_cells() const { return num_cells_; }
  int32_t dof_per_cell() const { return dof_per_cell_; }
  Layout layout() const { return layout_; }
  size_t size() const { return data_.size(); }

  size_t flat_index(int32_t cell, int32_t dof) const {
    return layout_ == Layout::CellMajor
               ? static_cast<size_t>(cell) * static_cast<size_t>(dof_per_cell_) + static_cast<size_t>(dof)
               : static_cast<size_t>(dof) * static_cast<size_t>(num_cells_) + static_cast<size_t>(cell);
  }

  double& at(int32_t cell, int32_t dof) { return data_[flat_index(cell, dof)]; }
  double at(int32_t cell, int32_t dof) const { return data_[flat_index(cell, dof)]; }

  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

  void fill(double v) { data_.assign(data_.size(), v); }

  // Exchanges this field's values with `other`'s in O(1): the storage moves,
  // the names stay. Both fields must have the same cells, DOFs per cell and
  // layout; throws std::invalid_argument otherwise. Spans and pointers taken
  // from data() follow the storage, not the field.
  void swap_storage(CellField& other);

  // Re-layouts the data in place (used when handing arrays to a target with a
  // different preferred layout; the movement planner accounts for its cost).
  void convert_layout(Layout to);

 private:
  std::string name_;
  int32_t num_cells_ = 0;
  int32_t dof_per_cell_ = 0;
  Layout layout_ = Layout::CellMajor;
  std::vector<double> data_;
};

// Named collection of fields — the runtime state a generated program operates
// on (variables and precomputed array coefficients).
class FieldSet {
 public:
  CellField& add(std::string name, int32_t num_cells, int32_t dof_per_cell,
                 Layout layout = Layout::CellMajor, double init = 0.0) {
    auto [it, inserted] = fields_.try_emplace(name, std::move(name), num_cells, dof_per_cell, layout, init);
    if (!inserted) throw std::invalid_argument("FieldSet: duplicate field '" + it->first + "'");
    return it->second;
  }

  CellField& get(const std::string& name) {
    auto it = fields_.find(name);
    if (it == fields_.end()) throw std::out_of_range("FieldSet: no field '" + name + "'");
    return it->second;
  }
  const CellField& get(const std::string& name) const {
    auto it = fields_.find(name);
    if (it == fields_.end()) throw std::out_of_range("FieldSet: no field '" + name + "'");
    return it->second;
  }
  bool has(const std::string& name) const { return fields_.count(name) != 0; }

  std::map<std::string, CellField>& all() { return fields_; }
  const std::map<std::string, CellField>& all() const { return fields_; }

 private:
  std::map<std::string, CellField> fields_;
};

}  // namespace finch::fvm
