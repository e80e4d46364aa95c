#pragma once
// The one lowered form of a classified integrand, and the bytecode VM.
//
// Source-text targets (C++/CUDA emitters) render the symbolic IR for humans;
// this target lowers each integrand to a `Program`: an SSA value graph whose
// nodes cover exactly what the expanded symbolic forms contain — loads of
// entity values (self / neighbor side, with index-computed DOF offsets),
// geometric quantities (NORMAL_i), dt, arithmetic, comparisons, a select (for
// `conditional`) and a few math builtins. compile() value-numbers the nodes
// as it walks the expression tree, so a computation the tree repeats (the
// upwind select evaluates s·n for its condition and for each branch) is one
// node. Every executor runs this one node list: the VM below keeps one value
// slot per node, the native emitter (native_backend.hpp) writes one C
// statement per node, and the GPU target sweeps the VM over its interior
// cells on the simulated device. A static analysis pass reports the
// instruction mix for the GPU roofline model and the vm.* metrics.

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/symbolic/entities.hpp"
#include "core/symbolic/expr.hpp"
#include "fvm/field.hpp"

namespace finch::codegen {

enum class Op : uint8_t {
  Const,      // imm
  Load,       // bindings[slot] resolved against the context
  LoadNormal, // normal[slot]
  LoadDt,     // dt
  Add, Sub, Mul, Div,  // a (op) b
  Neg,        // -a
  Pow,        // pow(a, b)
  CmpGT, CmpGE, CmpLT, CmpLE, CmpEQ, CmpNE,  // (a op b) ? 1 : 0
  Select,     // (a != 0) ? b : c
  MathExp, MathSqrt, MathAbs, MathSin, MathCos, MathLog,  // f(a)
};

// One SSA value. Operands name earlier nodes of the same program.
struct Node {
  Op op = Op::Const;
  int32_t a = -1, b = -1, c = -1;  // operand node ids; -1 past the op's arity
  int32_t slot = 0;                // binding id (Load) or component (LoadNormal)
  double imm = 0.0;                // Const
};

// How a Load resolves a value. DOF offsets are computed from the live loop
// index values: dof = sum_k loop_value[loop_slot[k]] * stride[k].
struct Binding {
  enum class Source : uint8_t {
    FieldSelf,      // field value in the cell being updated
    FieldNeighbor,  // field value across the current face (CELL2)
    CoefIndexed,    // coefficient array indexed purely by loop indices
    Scalar,         // fixed scalar coefficient
  };
  Source source = Source::Scalar;
  const fvm::CellField* field = nullptr;      // Field*
  const double* coef = nullptr;               // CoefIndexed
  int32_t coef_len = 0;
  double scalar = 0.0;
  int n_idx = 0;
  std::array<int32_t, 3> loop_slot{{0, 0, 0}};
  std::array<int32_t, 3> stride{{0, 0, 0}};
  std::string debug_name;

  // Everything that determines which value a Load produces, with no raw
  // pointers (entities are unique by name) and no scalar values (scalars are
  // runtime kernel arguments): the compiler's deduplication key and part of
  // the native kernel's IR fingerprint.
  std::string signature() const;

  int64_t dof(std::span<const int32_t> loop_values) const {
    int64_t d = 0;
    for (int k = 0; k < n_idx; ++k) d += static_cast<int64_t>(loop_values[static_cast<size_t>(loop_slot[static_cast<size_t>(k)])]) * stride[static_cast<size_t>(k)];
    return d;
  }
};

// A lowered integrand. No two nodes are structurally equal (same op, operand
// ids, binding and Const bits), and a tree walk leaves no dead node.
struct Program {
  std::vector<Node> nodes;        // topological: operands precede their users
  std::vector<Binding> bindings;  // one per distinct signature; Node::slot indexes here
  int32_t ret = -1;               // node id of the result

  // Static instruction-mix analysis over the nodes (drives the GPU roofline
  // model and the vm.* metrics).
  struct Stats {
    int flops = 0;       // floating arithmetic ops
    int fma_pairs = 0;   // mul feeding add (fusable)
    int loads = 0;
    int branches = 0;    // selects (divergence proxy)
  };
  Stats analyze() const;
};

// Everything the compiler needs to resolve an EntityRef:
//  * the entity table (declared indices and entities)
//  * the loop-slot assignment: index name -> position in ctx.loop_values
//  * per-entity storage: variables/cell-arrays -> CellField,
//    indexed coefficients -> flat arrays, scalars -> values
struct CompileEnv {
  const sym::EntityTable* table = nullptr;
  // Declared index order; position here == loop_values slot.
  std::vector<std::string> index_order;
  // Extents by index name (for strides).
  std::vector<int32_t> index_extent;

  const fvm::FieldSet* fields = nullptr;
  // Indexed coefficient arrays by entity name (e.g. Sx -> per-direction array).
  const std::map<std::string, std::vector<double>>* coefficients = nullptr;
  const std::map<std::string, double>* scalar_coefficients = nullptr;

  int loop_slot_of(const std::string& index_name) const;
};

// Per-evaluation state handed to the interpreter.
struct EvalContext {
  int32_t cell = 0;
  int32_t neighbor = -1;                // across the current face; -1 on boundary
  std::array<double, 3> normal{{0, 0, 0}};
  double dt = 0.0;
  std::array<int32_t, 4> loop_values{{0, 0, 0, 0}};  // current index values (0-based)
  // Ghost handling for VALUE boundary conditions: when neighbor < 0 and a
  // FieldNeighbor load targets `ghost_field`, `ghost_value` is returned; other
  // neighbor loads fall back to the self value (zero-gradient).
  const fvm::CellField* ghost_field = nullptr;
  double ghost_value = 0.0;
};

class CompileError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Compiles one classified integrand. Throws CompileError on constructs the
// executable target cannot lower (e.g. leftover SURFACE markers or unknown
// calls — callbacks are routed through the boundary path, never integrands).
Program compile(const sym::Expr& integrand, const CompileEnv& env);

double eval(const Program& p, const EvalContext& ctx);

// Non-finite guard: eval_guarded() runs the same interpreter but audits every
// node's value, so a NaN/Inf produced anywhere in a step — a divide at a
// degenerate face, pow of a negative base, log of a corrupted (negative) field
// value — is *reported* instead of silently propagating into the solution.
struct GuardReport {
  int64_t evals = 0;              // guarded evaluations performed
  int64_t nonfinite_results = 0;  // evaluations returning NaN or +/-Inf
  int32_t first_instr = -1;       // first node, in evaluation order, that went non-finite
  Op first_op = Op::Const;        // its opcode (when first_instr >= 0)
  int32_t first_cell = -1;        // ctx.cell of the first offending evaluation
  bool clean() const { return nonfinite_results == 0; }
};

double eval_guarded(const Program& p, const EvalContext& ctx, GuardReport& report);

// ---- lane blocks --------------------------------------------------------------
// The sweeps' unit of interpretation: up to kLaneBlock DOFs ("lanes") of one
// cell. Lanes share the cell, neighbor, face normal, dt and ghost field, and
// differ only in their loop indices, so each node is dispatched once per block
// and then applied lane by lane. Every lane performs the IEEE operations
// of a one-lane eval() in the same order — block results are bit-identical to
// scalar evaluation by construction, and eval()/eval_guarded() are the one-lane
// instance of the same interpreter. (A NaN result is NaN on both paths, but
// when two NaN operands meet, which one propagates is left open by IEEE 754
// and by the compiler, so NaN sign and payload bits may differ.)
inline constexpr int kLaneBlock = 64;

// Per-lane DOF addressing of one program, built once per sweep: for every
// binding, the DOF offset (Binding::dof) each lane resolves to. Lane l's loop
// values are lane_loop_values[l], in EvalContext::loop_values form.
class LaneOffsets {
 public:
  LaneOffsets() = default;
  LaneOffsets(const Program& p, std::span<const std::array<int32_t, 4>> lane_loop_values);
  // The DOF offsets of binding `slot`, one per lane.
  const int32_t* row(int32_t slot) const {
    return dof_.data() + static_cast<size_t>(slot) * static_cast<size_t>(lanes_);
  }

 private:
  int32_t lanes_ = 0;
  std::vector<int32_t> dof_;  // bindings x lanes
};

// Shared state of one block: lanes [first, first + count) of a LaneOffsets.
struct LaneBlock {
  int32_t cell = 0;
  int32_t neighbor = -1;  // across the current face; -1 on boundary
  std::array<double, 3> normal{{0, 0, 0}};
  double dt = 0.0;
  // Value-BC ghost, as in EvalContext, with one ghost value per lane of the
  // block: ghost_value[0, count).
  const fvm::CellField* ghost_field = nullptr;
  const double* ghost_value = nullptr;
  int32_t first = 0;
  int count = 0;  // 1..kLaneBlock
};

// Evaluates every lane of `block` into out[0, count). `offsets` must be built
// for `p`; `vals` is caller scratch of p.nodes.size() * kLaneBlock doubles. The
// guarded form audits each lane like eval_guarded() into reports[0, count).
void eval_block(const Program& p, const LaneOffsets& offsets, const LaneBlock& block,
                double* vals, double* out);
void eval_block_guarded(const Program& p, const LaneOffsets& offsets, const LaneBlock& block,
                        double* vals, double* out, GuardReport* reports);

// Observability hook (see OBSERVABILITY.md): folds one *batch* of VM
// evaluations into the global metrics registry — vm.evals / vm.flops /
// vm.loads / vm.branches / vm.fma_pairs scaled from the programs' static
// instruction mix, vm.seconds plus its op-group split
// (vm.group.{arithmetic,memory,control}_seconds, apportioned by the mix),
// and the vm.batch_seconds histogram. Called once per sweep/launch, never
// per evaluation: a single eval costs ~40-90 ns, so per-eval timers would
// be the overhead they measure. Null `surface` means a volume-only batch.
void note_eval_batch(const Program& volume, const Program* surface,
                     int64_t volume_evals, int64_t surface_evals, double seconds);

// Disassembly for debugging and source-golden tests.
std::string disassemble(const Program& p);

}  // namespace finch::codegen
