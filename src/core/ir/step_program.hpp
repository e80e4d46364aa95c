#pragma once
// Intermediate representation of one variable's time-step update.
//
// "Once the symbolic representation is expanded, sorted, and simplified, it
// will be combined with the rest of the configuration information to create a
// more complete intermediate representation. ... Unlike other such graphs,
// this IR also includes metadata about the parts of the computation and
// comment nodes to facilitate generation of easily readable code." (§II.A)
//
// The StepProgram stays abstract — loop structure, classified integrands,
// entity usage metadata and comment nodes — so that dissimilar targets (CPU
// nested loops, flattened GPU kernels, source emitters) can each lower it in
// their own shape.

#include <optional>
#include <string>
#include <vector>

#include "core/symbolic/entities.hpp"
#include "core/symbolic/expr.hpp"
#include "core/symbolic/transform.hpp"

namespace finch::ir {

struct LoopSpec {
  enum class Kind { Cells, Index };
  Kind kind = Kind::Cells;
  std::string index_name;  // for Kind::Index
  int32_t extent = 0;
};

// Usage metadata, consumed by the data-movement planner and halo builder.
struct EntityUsage {
  std::string name;
  sym::EntityKind kind = sym::EntityKind::Variable;
  bool read_self = false;
  bool read_neighbor = false;  // needs halo / CELL2 access
  bool written = false;
};

struct CommentNode {
  enum class Anchor { Prologue, VolumeTerms, SurfaceTerms, Update, Epilogue };
  Anchor anchor = Anchor::Prologue;
  std::string text;
};

// A sum of the updated variable over its stride-1 (first) index, formed from
// the committed value every step:
//   target[rest] = sum_i weight[i] * variable[i, rest]
// summed in index order from 0.0 (the order DirectionSet::band_sums uses
// within each band). `weight` is an indexed coefficient over `index` alone;
// `target` is a variable over the remaining indices that no equation reads.
struct Reduction {
  std::string target;  // e.g. "G"
  std::string index;   // e.g. "d"
  std::string weight;  // e.g. "W"
};

struct StepProgram {
  std::string name;                       // e.g. "step_I"
  std::string variable;                   // updated variable
  std::vector<std::string> var_indices;   // its index names, e.g. {"d","b"}
  int dimension = 2;
  std::optional<Reduction> reduction;     // Problem::reduction, if declared

  std::vector<LoopSpec> loops;            // assembly-loop ordering
  sym::ClassifiedTerms terms;             // LHS volume / RHS volume / RHS surface

  std::vector<EntityUsage> usage;
  std::vector<CommentNode> comments;

  bool has_surface_terms() const { return !terms.rhs_surface.empty(); }
  int64_t dofs_per_cell(const sym::EntityTable& table) const;

  const EntityUsage* find_usage(const std::string& entity) const;
};

// Builds the IR from classified terms plus configuration (loop order comes
// from the DSL's assemblyLoops; defaults to cells-outermost as in the paper).
StepProgram build_step_program(const std::string& variable, const sym::ClassifiedTerms& terms,
                               const sym::EntityTable& table, const std::vector<std::string>& loop_order,
                               int dimension);

// Renders the IR as commented pseudocode (the human-readable graph view).
std::string render_pseudocode(const StepProgram& p);

}  // namespace finch::ir
