#pragma once
// C++ source-text target: renders the IR as a readable nested-loop kernel in
// the configured assembly order, with the IR's comment nodes inlined —
// "comment nodes to facilitate generation of easily readable code" (§II.A).
// The emitted text is an inspectable artifact (golden-tested); the executable
// path is the bytecode target.

#include <string>

#include "core/ir/step_program.hpp"

namespace finch::codegen {

std::string emit_cpp_source(const ir::StepProgram& program, const sym::EntityTable& table);

// What the C-family source targets (this one and source_cuda) spell
// differently in an expression: an entity reference and the power function.
struct CSpelling {
  std::string (*entity)(const sym::EntityRefNode& ref, const sym::EntityTable& table);
  const char* pow;  // e.g. "std::pow"
};

// Renders an integrand expression as C-family code. NORMAL_i become the
// normal_x/y/z locals the loop scaffolding provides, conditionals become
// ternaries and x^-1 factors divisions.
std::string c_expr(const sym::Expr& e, const sym::EntityTable& table, const CSpelling& spell);

}  // namespace finch::codegen
