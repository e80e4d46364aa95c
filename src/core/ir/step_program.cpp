#include "step_program.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/symbolic/printer.hpp"
#include "core/symbolic/simplify.hpp"

namespace finch::ir {

namespace sym = finch::sym;

int64_t StepProgram::dofs_per_cell(const sym::EntityTable& table) const {
  int64_t n = 1;
  for (const auto& idx : var_indices) {
    const sym::IndexInfo* info = table.find_index(idx);
    if (info == nullptr) throw std::logic_error("unknown index: " + idx);
    n *= info->extent();
  }
  return n;
}

const EntityUsage* StepProgram::find_usage(const std::string& entity) const {
  for (const auto& u : usage)
    if (u.name == entity) return &u;
  return nullptr;
}

namespace {

void record_usage(std::vector<EntityUsage>& usage, const sym::Expr& e, const std::string& written_var) {
  for (const sym::Expr& r : sym::collect_entity_refs(e)) {
    const auto* ref = sym::as<sym::EntityRefNode>(r);
    auto it = std::find_if(usage.begin(), usage.end(),
                           [&](const EntityUsage& u) { return u.name == ref->name; });
    if (it == usage.end()) {
      usage.push_back(EntityUsage{ref->name, ref->entity_kind, false, false, false});
      it = usage.end() - 1;
    }
    if (ref->side == sym::CellSide::Cell2)
      it->read_neighbor = true;
    else
      it->read_self = true;
    if (ref->name == written_var) it->written = true;
  }
}

}  // namespace

StepProgram build_step_program(const std::string& variable, const sym::ClassifiedTerms& terms,
                               const sym::EntityTable& table, const std::vector<std::string>& loop_order,
                               int dimension) {
  StepProgram p;
  p.name = "step_" + variable;
  p.variable = variable;
  p.dimension = dimension;
  const sym::EntityInfo* vinfo = table.find(variable);
  if (vinfo == nullptr) throw std::invalid_argument("build_step_program: unknown variable " + variable);
  p.var_indices = vinfo->indices;
  p.terms = terms;

  // Loop order: "cells" plus the variable's indices, defaulting to
  // cells-outermost then declared index order (paper's default nest).
  std::vector<std::string> order = loop_order;
  if (order.empty()) {
    order.push_back("cells");
    for (const auto& idx : p.var_indices) order.push_back(idx);
  }
  bool saw_cells = false;
  for (const auto& name : order) {
    if (name == "cells" || name == "elements") {
      if (saw_cells) throw std::invalid_argument("assemblyLoops: the cell loop is named twice");
      p.loops.push_back(LoopSpec{LoopSpec::Kind::Cells, "", 0});
      saw_cells = true;
    } else {
      const sym::IndexInfo* info = table.find_index(name);
      if (info == nullptr) throw std::invalid_argument("assemblyLoops: unknown index " + name);
      if (std::find(p.var_indices.begin(), p.var_indices.end(), name) == p.var_indices.end())
        throw std::invalid_argument("assemblyLoops: index " + name + " not used by variable " + variable);
      for (const auto& l : p.loops)
        if (l.index_name == name) throw std::invalid_argument("assemblyLoops: index " + name + " is named twice");
      p.loops.push_back(LoopSpec{LoopSpec::Kind::Index, name, info->extent()});
    }
  }
  if (!saw_cells) throw std::invalid_argument("assemblyLoops must include \"cells\"");
  if (p.loops.size() != p.var_indices.size() + 1)
    throw std::invalid_argument("assemblyLoops must name the cell loop and every variable index");

  for (const auto& t : terms.rhs_volume) record_usage(p.usage, t, variable);
  for (const auto& t : terms.rhs_surface) record_usage(p.usage, t, variable);
  // The unknown itself is written.
  auto self = std::find_if(p.usage.begin(), p.usage.end(),
                           [&](const EntityUsage& u) { return u.name == variable; });
  if (self == p.usage.end())
    p.usage.push_back(EntityUsage{variable, sym::EntityKind::Variable, false, false, true});
  else
    self->written = true;

  p.comments = {
      {CommentNode::Anchor::Prologue, "update of " + variable + " via explicit FV step"},
      {CommentNode::Anchor::VolumeTerms, "RHS volume integrand (includes old-time value and dt)"},
      {CommentNode::Anchor::SurfaceTerms, "RHS surface integrand, applied per face as (A_f/V) * term"},
      {CommentNode::Anchor::Update, "combine: u_new = rhs_volume + (1/V) * sum_f A_f * rhs_surface"},
  };
  return p;
}

std::string render_pseudocode(const StepProgram& p) {
  std::ostringstream os;
  for (const auto& c : p.comments)
    if (c.anchor == CommentNode::Anchor::Prologue) os << "# " << c.text << "\n";
  int depth = 0;
  auto indent = [&] { return std::string(static_cast<size_t>(depth) * 2, ' '); };
  for (const auto& l : p.loops) {
    if (l.kind == LoopSpec::Kind::Cells)
      os << indent() << "for cell = 1:Ncells\n";
    else
      os << indent() << "for " << l.index_name << " = 1:" << l.extent << "\n";
    ++depth;
  }
  for (const auto& c : p.comments)
    if (c.anchor == CommentNode::Anchor::VolumeTerms) os << indent() << "# " << c.text << "\n";
  os << indent() << "source = " << sym::category_string(p.terms.rhs_volume) << "\n";
  if (p.has_surface_terms()) {
    for (const auto& c : p.comments)
      if (c.anchor == CommentNode::Anchor::SurfaceTerms) os << indent() << "# " << c.text << "\n";
    os << indent() << "flux = 0\n";
    os << indent() << "for face = 1:Nfaces\n";
    os << indent() << "  flux += (A_f/V) * (" << sym::category_string(p.terms.rhs_surface) << ")\n";
    os << indent() << "end\n";
  }
  for (const auto& c : p.comments)
    if (c.anchor == CommentNode::Anchor::Update) os << indent() << "# " << c.text << "\n";
  os << indent() << p.variable << "_new = source" << (p.has_surface_terms() ? " + flux" : "") << "\n";
  while (depth > 0) {
    --depth;
    os << indent() << "end\n";
  }
  return os.str();
}

}  // namespace finch::ir
