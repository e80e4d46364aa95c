#pragma once
// Executable lowering of classified integrands.
//
// Source-text targets (C++/CUDA emitters) render the IR for humans; this
// target lowers each integrand to a compact register bytecode that the
// in-process solvers execute, so DSL-generated programs really run. The
// instruction set covers exactly what the expanded symbolic forms contain:
// loads of entity values (self / neighbor side, with index-computed DOF
// offsets), geometric quantities (NORMAL_i, face area, cell volume), dt,
// arithmetic, comparisons, a select (for `conditional`), and a few math
// builtins. A static analysis pass reports flop counts for the GPU roofline
// model and the perf module.

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
#include "runtime/abft.hpp"

namespace finch::codegen {

enum class Op : uint8_t {
  Const,      // dst = imm
  Load,       // dst = binding[slot] resolved against the context
  LoadNormal, // dst = normal[imm_i]
  LoadDt,     // dst = dt
  Add, Sub, Mul, Div,  // dst = a (op) b
  Neg,        // dst = -a
  Pow,        // dst = pow(a, b)
  CmpGT, CmpGE, CmpLT, CmpLE, CmpEQ, CmpNE,  // dst = (a op b) ? 1 : 0
  Select,     // dst = (a != 0) ? b : c
  MathExp, MathSqrt, MathAbs, MathSin, MathCos, MathLog,  // dst = f(a)
  Ret,        // return reg a
};

struct Instr {
  Op op;
  uint8_t dst = 0, a = 0, b = 0, c = 0;
  int32_t slot = 0;   // binding table index (Load) or component (LoadNormal)
  double imm = 0.0;   // Const
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

  int64_t dof(std::span<const int32_t> loop_values) const {
    int64_t d = 0;
    for (int k = 0; k < n_idx; ++k) d += static_cast<int64_t>(loop_values[static_cast<size_t>(loop_slot[static_cast<size_t>(k)])]) * stride[static_cast<size_t>(k)];
    return d;
  }
};

struct Program {
  std::vector<Instr> code;
  std::vector<Binding> bindings;
  int num_regs = 0;

  // Static instruction-mix analysis (drives the GPU roofline model).
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
// instruction result, so a NaN/Inf produced anywhere in a step — a divide at a
// degenerate face, pow of a negative base, log of a corrupted (negative) field
// value — is *reported* instead of silently propagating into the solution.
// The report is cheap to merge, so per-thread instances can be combined.
struct GuardReport {
  int64_t evals = 0;              // guarded evaluations performed
  int64_t nonfinite_results = 0;  // evaluations returning NaN or +/-Inf
  int32_t first_instr = -1;       // instruction index that first went non-finite
  Op first_op = Op::Ret;          // its opcode
  int32_t first_cell = -1;        // ctx.cell of the first offending evaluation
  bool clean() const { return nonfinite_results == 0; }
  void merge(const GuardReport& other) {
    evals += other.evals;
    nonfinite_results += other.nonfinite_results;
    if (first_instr < 0 && other.first_instr >= 0) {
      first_instr = other.first_instr;
      first_op = other.first_op;
      first_cell = other.first_cell;
    }
  }
};

double eval_guarded(const Program& p, const EvalContext& ctx, GuardReport& report);

// ABFT hook: same interpreter, but every result the VM produces is folded
// incrementally into the caller's block checksum (Fletcher lanes + Kahan sum,
// see rt::BlockChecksum). A solver that sweeps a block through eval_audited
// therefore gets the block's ABFT signature for free as a by-product of the
// sweep — the signature any later copy of that block must still match.
double eval_audited(const Program& p, const EvalContext& ctx, rt::BlockChecksum& audit);

// ---- lane blocks --------------------------------------------------------------
// The sweeps' unit of interpretation: up to kLaneBlock DOFs ("lanes") of one
// cell. Lanes share the cell, neighbor, face normal, dt and ghost field, and
// differ only in their loop indices, so each instruction is dispatched once per
// block and then applied lane by lane. Every lane performs the IEEE operations
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
// for `p`; `regs` is caller scratch of p.num_regs * kLaneBlock doubles. The
// guarded form audits each lane like eval_guarded() into reports[0, count).
void eval_block(const Program& p, const LaneOffsets& offsets, const LaneBlock& block,
                double* regs, double* out);
void eval_block_guarded(const Program& p, const LaneOffsets& offsets, const LaneBlock& block,
                        double* regs, double* out, GuardReport* reports);

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
