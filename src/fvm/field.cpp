#include "field.hpp"

namespace finch::fvm {

void CellField::convert_layout(Layout to) {
  if (to == layout_) return;
  std::vector<double> out(data_.size());
  for (int32_t c = 0; c < num_cells_; ++c) {
    for (int32_t d = 0; d < dof_per_cell_; ++d) {
      const size_t src = flat_index(c, d);
      const size_t dst = to == Layout::CellMajor
                             ? static_cast<size_t>(c) * static_cast<size_t>(dof_per_cell_) + static_cast<size_t>(d)
                             : static_cast<size_t>(d) * static_cast<size_t>(num_cells_) + static_cast<size_t>(c);
      out[dst] = data_[src];
    }
  }
  data_ = std::move(out);
  layout_ = to;
}

void CellField::swap_storage(CellField& other) {
  if (num_cells_ != other.num_cells_ || dof_per_cell_ != other.dof_per_cell_ || layout_ != other.layout_)
    throw std::invalid_argument("CellField::swap_storage: '" + name_ + "' and '" + other.name_ +
                                "' differ in shape or layout");
  data_.swap(other.data_);
}

}  // namespace finch::fvm
