#pragma once
// Shared scaffolding for in-process step solvers executing compiled
// StepPrograms: equation compilation (one Program per integrand, the form
// every executor runs), scratch/commit double-buffering, the ForwardEuler and
// RK2-midpoint schemes, the boundary-condition handling, and the one choice
// between the two executors of a sweep: the native kernel (emitted, compiled
// and loaded per equation when the backend is native; see native_backend.hpp
// and CODEGEN.md §5–§6) and the bytecode VM (the portable path, the
// non-finite guard's home and the kernel's differential oracle). step() is
// the one step loop of every DSL target, and sweep_mesh() its one hook: the
// CPU targets use this class directly and sweep every cell on the host; the
// GPU target subclasses it, sweeps its interior cells inside a
// simulated-device launch and its boundary cells on the host through the
// same sweep(), and prices its transfers after the base step.
//
// An equation whose kernel cannot be produced (no compiler, compile error,
// unlowerable structure) runs the VM, counted in `jit.fallback`, never a
// wrong answer. The first kernel stage of each equation is always replayed on
// the VM over every cell and must match bit for bit; a mismatch demotes that
// equation to the VM for good. Solvers with the
// non-finite guard armed always take the VM path, where the per-node auditing
// lives.
//
// Every executor reads the same per-sweep inputs: one face table (FaceTable,
// built once per solver) and, per equation, one boundary table (BcTable,
// built once) whose values fill_boundary() refreshes before any executor
// sweeps the equation. Boundary callbacks (fvm::BoundaryCallback) therefore
// run serially on the solving thread, once per (cell, face with a condition)
// per sweep, and are counted in `bc.calls`; the VM sweep, the native kernel
// and its first-sweep verify replay only read the filled values.
//
// Declared reductions (ir::Reduction) are formed from the committed field by
// one post-pass, reduce(), after ForwardEuler's commit or RK2's combine. The
// native kernel forms them in its write loop instead (finish_stage() returns
// true), and the post-pass is skipped for that equation.
//
// Double-buffering swaps storage, it does not copy: a sweep writes the
// equation's scratch field, and commit() exchanges the updated field's storage
// with it (CellField::swap_storage), so afterwards scratch holds the previous
// state. A field's data pointer therefore changes at every commit; anything
// that reads field storage directly (the native kernels' array tables) must
// re-read it before each launch rather than cache it at construction.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "bytecode.hpp"
#include "core/dsl/problem.hpp"
#include "native_backend.hpp"
#include "runtime/thread_pool.hpp"

namespace finch::codegen {

// The mesh's faces in CSR form, built once per solver: the faces of cell c
// occupy slots [off[c], off[c + 1]) in mesh.cell_faces() order. The native
// kernel reads these arrays as KernelArgsV1's face_off/face_nbr/face_geom.
struct FaceTable {
  std::vector<int64_t> off;
  std::vector<int32_t> nbr;  // cell across each slot; -1 on a boundary
  std::vector<double> geom;  // per slot: outward nx, ny, nz, then area * (1/volume)
  int32_t max_faces = 0;     // K: the largest face count of any cell
};

// One equation's boundary conditions: a slot per (cell, boundary face) with a
// condition registered for the variable, and the values the slot's callback
// fills each sweep. An equation without surface terms has no slots.
struct BcTable {
  static constexpr uint8_t kValue = 1;  // the values are the ghost state
  static constexpr uint8_t kFlux = 2;   // the values are the outward flux integrand
  struct Slot {
    int32_t cell = 0;
    int32_t face = 0;
    mesh::Vec3 normal{};
    const fvm::BoundaryCondition* bc = nullptr;
  };
  std::vector<int32_t> face_bslot;  // per face slot: its BC slot, or -1 (interior, or a wall with no condition)
  std::vector<Slot> slots;
  std::vector<uint8_t> kind;        // per slot: kValue or kFlux
  std::vector<double> value;        // slots x ndof, written by fill_boundary()
};

// One compiled equation: programs plus the addressing info for its variable.
struct CompiledEquation {
  const ir::StepProgram* program = nullptr;
  Program volume;
  Program surface;
  bool has_surface = false;
  fvm::CellField* field = nullptr;
  // DOF addressing of the updated variable from loop_values.
  Binding var_addr;
  // The variable's index extents, as boundary callbacks see them.
  std::array<int32_t, 3> extent{{1, 1, 1}};
  // The declared reduction (ir::Reduction), or a null target: the weight is
  // a CoefIndexed binding over the variable's stride-1 index.
  fvm::CellField* reduce_target = nullptr;
  Binding reduce_weight;
  BcTable bc;
  // The VM's lane addressing (lane d is DOF d): each program's per-lane DOF
  // offsets, and each lane's guard rank within its cell (lane_rank) plus the
  // rank's weight of one cell (cell_place).
  LaneOffsets vol_lanes, surf_lanes;
  std::vector<int64_t> lane_rank;
  int64_t cell_place = 0;
};

// Guard tallies of a run of evaluations. The first offender kept is the one
// with the lowest rank — its position in a serial walk of the declared
// assembly loops — among the evaluations that returned a non-finite value,
// so tallies of disjoint cell sets merge to the report of one serial sweep.
struct GuardTally {
  GuardReport report;
  int64_t first_rank = INT64_MAX;
  void add(const GuardReport& g, int64_t rank);
  void add(const GuardTally& t) { add(t.report, t.first_rank); }
};

// Writes ce's reduction of `src` into `dst` (shaped like the target):
// dst[rest] = sum_i w[i] * src[i + n*rest] over the stride-1 index i, summed
// in i order from 0.0. The oracle of the native kernel's fused sum.
void reduce_into(const CompiledEquation& ce, const fvm::CellField& src, fvm::CellField& dst);

class StepSolverBase : public dsl::Solver {
 public:
  // `native` is the backend decision of dsl::Problem::compile: with it, the
  // constructor emits and loads one kernel per equation.
  StepSolverBase(dsl::Problem& p, rt::ThreadPool* pool, bool native);
  // Pre-steps, the scheme's stages, then post-steps. The stages' wall time
  // is billed to compute, less what no clock of sweep_mesh() bills.
  void step() override;

 protected:
  // What one stage's sweep of an equation cost on each clock: the host's
  // seconds, and the device's modeled seconds, which overlap them.
  struct SweepClocks {
    double host = 0.0;
    double device = 0.0;
  };

  // The stage loop's one hook: sweeps equation e's stage for `dt_stage` over
  // every cell into `out`, reports the VM's guard tally (report_guard) and
  // returns what each clock bills. The CPU targets sweep every cell on the
  // host.
  virtual SweepClocks sweep_mesh(size_t e, fvm::CellField& out, double dt_stage);

  // Computes equation e's stage update for `dt_stage` on `cells` into `out`,
  // from the boundary values the last fill_boundary() left: the loaded
  // kernel when the equation has one and the guard is off, else vm_sweep().
  // The kernel runs each maximal run of consecutive cell ids in `cells` as
  // one call (a list of every cell is one run, split across the pool). Each
  // (cell, DOF) value is computed independently, so neither the executor nor
  // a split of the cell set can change a bit. Returns the VM's guard tally
  // (empty on the kernel or with the guard off).
  GuardTally sweep(size_t e, fvm::CellField& out, double dt_stage, std::span<const int32_t> cells);

  void report_guard(size_t e, const GuardTally& tally);

  dsl::Problem& p_;
  rt::ThreadPool* pool_;
  CompileEnv env_;
  std::vector<CompiledEquation> eqs_;
  std::vector<int32_t> all_cells_;  // 0 .. num_cells - 1
  FaceTable faces_;

  // What the emitter needs about equation e.
  NativeKernelInputs kernel_inputs(size_t e) const;

 private:
  // One equation's kernel: plan.fn == nullptr runs the VM.
  struct EquationKernel {
    NativePlan plan;
    bool verified = false;
    std::vector<uint8_t> cell_fused;  // per cell: 1 = runs the kernel's fused body
  };

  // One whole-mesh stage of every equation for `dt_stage` into `outs[e]`:
  // fill_boundary() of every equation first, so each callback reads the
  // state the stage starts from (an earlier equation's kernel writes its
  // declared sum during its sweep), then per equation sweep_mesh() and
  // finish_stage(). The fill is host time; the stage bills the larger of the
  // host's and the device's seconds (Fig. 6's overlap). Returns
  // finish_stage()'s answers.
  std::vector<char> sweep_stage(std::vector<fvm::CellField>& outs, double dt_stage);

  // Calls each of equation e's boundary slots' callback once, from the
  // current fields, into its BcTable values. Runs on the solving thread
  // before any executor sweeps the equation; counts `bc.calls`. Filling
  // ahead is exact because a sweep writes scratch storage, not the fields
  // the callbacks read.
  void fill_boundary(size_t e);

  // Call once a stage of equation e is swept over every cell into `out`.
  // The first kernel stage is replayed on the VM over every cell, from the
  // same boundary values; the field and the kernel's fused sum must match
  // the replay and the post-pass bitwise, or the equation is demoted to the
  // VM and `out` takes the replay's values. Returns true when the kernel
  // formed the equation's declared sum of `out` (ForwardEuler then skips
  // reduce() for it).
  bool finish_stage(size_t e, fvm::CellField& out, double dt_stage);

  void euler_step();
  void rk2_step();
  // Swaps each updated field's storage with its scratch field.
  void commit();
  // The reduction post-pass: forms equation e's declared sum (if any) from
  // its committed field.
  void reduce(size_t e);

  // The interpreter sweep: walks `cells` (split across the pool when one is
  // set) and evaluates each cell's DOFs as lane blocks (see LaneBlock),
  // visiting each cell's face slots in CSR order and reading boundary values
  // from the equation's BcTable. Writes only those cells of `out`; neither
  // the declared loop order nor the pool's split changes a bit. Returns the
  // sweep's guard tally (empty when the guard is off).
  GuardTally vm_sweep(size_t e, fvm::CellField& out, double dt_stage, std::span<const int32_t> cells);
  void run_kernel(size_t e, fvm::CellField& out, double dt_stage, std::span<const int32_t> cells);
  bool on_kernel(size_t e) const {
    return !kernels_.empty() && kernels_[e].plan.fn != nullptr && !guard_enabled_;
  }

  void build_env();
  void build_faces();
  void build_bc_table(CompiledEquation& ce) const;
  void build_lanes(CompiledEquation& ce) const;
  void load_kernels();
  void classify_cells(size_t e);

  std::vector<fvm::CellField> scratch_;
  std::vector<fvm::CellField> stage_;    // RK2 stage-2 sweeps; empty for ForwardEuler
  std::vector<EquationKernel> kernels_;  // empty on the VM backend
  // Wall seconds of this step's stages that no clock bills: a device
  // launch's body, run on the host while the host's own work overlaps it.
  double unbilled_ = 0.0;
};

// Each equation's kernel text in `dialect`, in equation order, rendered
// without compiling or loading anything: the hook behind
// dsl::Problem::generated_native_source()/generated_cuda_source() and
// tools/emit_kernel_listing.
std::vector<std::string> emitted_kernel_sources(dsl::Problem& problem, Dialect dialect);

}  // namespace finch::codegen
