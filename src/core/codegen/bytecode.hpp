#pragma once
// The one lowered form of a classified integrand, its placement, and the
// bytecode VM.
//
// Source-text targets (C++/CUDA emitters) render the symbolic IR for humans;
// this target lowers each integrand to a `Program`: an SSA value graph whose
// nodes cover exactly what the expanded symbolic forms contain — loads of
// entity values (self / neighbor side, with index-computed DOF offsets),
// geometric quantities (NORMAL_i), dt, arithmetic, comparisons, a select (for
// `conditional`) and a few math builtins. compile() value-numbers the nodes
// as it walks the expression tree, so a computation the tree repeats (the
// upwind select evaluates s·n for its condition and for each branch) is one
// node, and refuses a reference whose indices do not match its entity's
// declaration. place() then decides once, per program, where each node is
// evaluated: once per sweep, cell, face, (face, direction) or DOF. Every
// executor runs this one node list under that one placement: the native
// emitter (native_backend.hpp) writes one C statement per node at its scope,
// and the unguarded VM below evaluates each node at the matching point
// (PlacedProgram, PlacedFrame), so the oracle does the kernel's work, not
// more. The guarded VM (eval_block_guarded) still evaluates every node per
// lane, where its per-node audit lives. A static analysis pass reports the
// instruction mix, per program and per evaluation point, for the GPU
// roofline model and the vm.* metrics.

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

// ---- placement ----------------------------------------------------------------
// Where each node of an equation's program is evaluated: computed once per
// program (StepSolverBase's constructor) and read by both executors.

// What a node's value varies with, unioned over its operands.
inline constexpr unsigned kDepCell = 1;   // a field value (of the cell or across a face)
inline constexpr unsigned kDepFace = 2;   // the face: its normal or the cell across it
inline constexpr unsigned kDepInner = 4;  // the variable's stride-1 index
inline constexpr unsigned kDepOuter = 8;  // another index of the variable

// Placement scope of a node: each node is evaluated once, at the outermost
// scope its dependencies allow. Face and Dir values of the surface program
// are computed while a cell's faces are walked; Dir applies to a variable
// with more than one index (the only case with a loop outside the stride-1
// one to hoist out of).
enum class Scope : uint8_t {
  Fn,    // function top: constants, dt, scalar coefficients
  Cell,  // per cell
  Face,  // per face: the face alone
  Dir,   // per (face, stride-1 index): no field, no outer index
  Dof,   // inside the dof loops
};

struct Placement {
  std::vector<Scope> scope;    // per node
  std::vector<unsigned> deps;  // per node: kDep* bits
};

// Places the nodes of `p`, a volume or (`surface`) surface program of the
// equation updating the variable addressed by `var`, whose stride-1 index is
// var.loop_slot[0]. Index slots `var` does not carry are constants (the
// lanes' loop value 0).
Placement place(const Program& p, const Binding& var, bool surface);

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
  // True when lanes [first, first + count) of binding `slot` read consecutive
  // DOFs, so a cell-major row can be read in place.
  bool contiguous(int32_t slot, int32_t first, int count) const {
    return run_[static_cast<size_t>(slot) * static_cast<size_t>(lanes_) + static_cast<size_t>(first)] >= count;
  }
  int32_t lanes() const { return lanes_; }

 private:
  int32_t lanes_ = 0;
  std::vector<int32_t> dof_;  // bindings x lanes
  std::vector<int32_t> run_;  // bindings x lanes: consecutive DOFs from each lane on
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

// ---- placed evaluation --------------------------------------------------------
// The unguarded VM evaluates each node at the point its placement allows, with
// the same ops on the same operand values as a per-lane eval(), so its results
// are bitwise those of evaluating every node per lane. The per-sweep points
// depend on dt and the coefficients only, so the sweeps of one stage (the GPU
// target's two halves, the verify replay) may share one evaluation of them.
enum class Point : uint8_t {
  Sweep,      // Fn: once per sweep
  SweepLane,  // the variable's indices only (vg[b]·(−dt)): once per sweep per lane
  Cell,       // once per cell
  Face,       // once per face
  FaceDir,    // Dir: once per (face, stride-1 index)
  CellLane,   // Dof, not read across the face: once per (cell, lane block)
  FaceLane,   // Dof, read across the face: once per (face, lane block)
};
inline constexpr int kPoints = 7;
Point point_of(Scope scope, unsigned deps);

// What a batch of VM evaluations did: the program-lane evaluations (vm.evals)
// and the ops of the nodes evaluated.
struct VmWork {
  double evals = 0.0, flops = 0.0, loads = 0.0, branches = 0.0, fma_pairs = 0.0;
  void add(const Program::Stats& s, double times);
};

// One program's evaluation points under its placement, and the values of its
// per-sweep points. Built once per program; eval_sweep() refreshes the
// per-sweep values, which every PlacedFrame of the sweep then reads.
class PlacedProgram {
 public:
  PlacedProgram() = default;
  // `offsets` spans every DOF of the variable (lane d is DOF d); `dir_extent`
  // is the extent of its stride-1 index.
  PlacedProgram(const Program& p, const Placement& pl, const LaneOffsets& offsets, int32_t dir_extent);

  // Evaluates the Sweep and SweepLane points for `dt`.
  void eval_sweep(const Program& p, const LaneOffsets& offsets, double dt);
  // Adds to `w` the ops of a sweep: its per-sweep points when it evaluated
  // them (`per_sweep`), `cells` cells with every lane, and `faces` evaluated
  // faces with every lane.
  void tally(VmWork& w, bool per_sweep, int64_t cells, int64_t faces) const;

 private:
  friend class PlacedFrame;
  std::vector<int32_t> home_;                      // per node: its index among its point's nodes
  std::array<std::vector<int32_t>, kPoints> ids_;  // per point: its nodes, ascending
  std::array<Program::Stats, kPoints> stats_;      // per point: its nodes' op mix
  int32_t lanes_ = 0;
  int32_t dir_extent_ = 1;
  std::vector<double> sweep_;       // Sweep nodes x kLaneBlock, each value broadcast
  std::vector<double> sweep_lane_;  // SweepLane nodes x lanes
};

// One thread's evaluation state of a PlacedProgram in a sweep: the value of
// each node for the current cell, face and lane block. A cell is evaluated as
// eval_cell(), eval_face() for each face whose surface term runs, then per
// lane block eval_cell_lanes() and eval_face_lanes() per such face. The
// returned lanes stay valid until the frame's next call.
class PlacedFrame {
 public:
  // `pp` must outlive the frame; `max_faces` bounds the face slots k.
  PlacedFrame(const Program& p, const LaneOffsets& offsets, const PlacedProgram& pp, int32_t max_faces);

  void eval_cell(int32_t cell, double dt);
  // Face and FaceDir points of face slot k: `face` holds the cell, the cell
  // across, the normal and dt (its lanes are ignored).
  void eval_face(int k, const LaneBlock& face);
  // CellLane point of `blk` (cell and dt only); returns the program's result
  // lanes when the result is not read across a face.
  const double* eval_cell_lanes(const LaneBlock& blk);
  // FaceLane point of face slot k for `blk`; returns the result lanes.
  const double* eval_face_lanes(int k, const LaneBlock& blk);

 private:
  const std::vector<int32_t>& ids(Point pt) const { return pp_.ids_[static_cast<size_t>(pt)]; }
  size_t home(int32_t i) const { return static_cast<size_t>(pp_.home_[static_cast<size_t>(i)]); }
  double* face_home(int k, int32_t i);
  double* dir_home(int k, int32_t i);
  const double* eval_lanes(Point pt, const LaneBlock& blk);
  // Points the SweepLane nodes at lanes [first, ...).
  void point_sweep_lanes(int32_t first);

  const Program& p_;
  const LaneOffsets& offsets_;
  const PlacedProgram& pp_;
  std::vector<const double*> at_;  // per node: lane 0 of its current values
  std::vector<double> cell_;       // Cell nodes x kLaneBlock, broadcast
  std::vector<double> lane_;       // CellLane and FaceLane nodes x kLaneBlock
  std::vector<double> face_;       // face slots x Face nodes x kLaneBlock, broadcast
  std::vector<double> dir_;        // face slots x FaceDir nodes x (dir_extent + kLaneBlock - 1)
  int32_t dir_len_ = 0;
};

// Observability hook (see OBSERVABILITY.md): folds one *batch* of VM
// evaluations into the global metrics registry — vm.evals, vm.flops,
// vm.loads, vm.branches and vm.fma_pairs from `work`, vm.seconds plus its
// op-group split (vm.group.{arithmetic,memory,control}_seconds, apportioned
// by the mix), and the vm.batch_seconds histogram. Called once per
// sweep/launch, never per evaluation: per-eval timers would be the overhead
// they measure.
void note_eval_batch(const VmWork& work, double seconds);

// Disassembly for debugging and source-golden tests.
std::string disassemble(const Program& p);

}  // namespace finch::codegen
