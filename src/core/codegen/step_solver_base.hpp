#pragma once
// Shared scaffolding for in-process step solvers executing compiled
// StepPrograms: equation compilation (one Program per integrand, the form
// every executor runs), scratch/commit double-buffering, the ForwardEuler and
// RK2-midpoint schemes, the bytecode-VM sweep (with the non-finite guard) and
// the boundary-condition handling. The CPU targets use this class directly;
// the native JIT backend subclasses it and overrides sweep_equation() with
// kernel execution; the GPU target subclasses it and overrides step() to
// sweep its interior cells inside a simulated-device launch and its boundary
// cells on the host. Every scheme/BC/guard behavior — and the VM as a
// drop-in oracle — stays in one place.
//
// Boundary callbacks fill one face at a time (fvm::BoundaryCallback): the VM
// sweep fills each boundary face of a cell once, before that cell's lane
// blocks, and counts the calls in `bc.calls`.
//
// Declared reductions (ir::Reduction) are formed from the committed field by
// one post-pass, reduce(), after ForwardEuler's commit or RK2's combine. The
// native kernel forms them in its write loop instead (sweep_equation returns
// true), and the GPU target runs the post-pass on the host after the D2H.
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
#include "runtime/thread_pool.hpp"

namespace finch::codegen {

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
  StepSolverBase(dsl::Problem& p, rt::ThreadPool* pool);
  void step() override;

 protected:
  // Computes one equation's stage update for `dt_stage` into `out` (the
  // equation's scratch field). The base class runs the bytecode VM; the
  // native backend overrides this with JIT-kernel execution and falls back
  // to vm_sweep() whenever a kernel is unavailable. Returns true when the
  // sweep also wrote the equation's reduction of `out` into its target (the
  // native kernel's fused sum); ForwardEuler then skips reduce() for it.
  virtual bool sweep_equation(size_t e, fvm::CellField& out, double dt_stage);

  // The interpreter sweep — the portable path and the differential oracle.
  // Walks `cells` (split across the pool when one is set) and evaluates each
  // cell's DOFs as lane blocks (see LaneBlock), writing only those cells of
  // `out`; each (cell, DOF) value is computed independently, so neither the
  // declared loop order, the pool's split nor a split of the cell set can
  // change a bit. Returns the sweep's guard tally (empty when the guard is
  // off); report_guard() adds it to the solver's report.
  GuardTally vm_sweep(size_t e, fvm::CellField& out, double dt_stage, std::span<const int32_t> cells);
  void report_guard(size_t e, const GuardTally& tally);

  void euler_step();
  void rk2_step();
  // Swaps each updated field's storage with its scratch field.
  void commit();
  // The reduction post-pass: forms equation e's declared sum (if any) from
  // its committed field.
  void reduce(size_t e);

  dsl::Problem& p_;
  rt::ThreadPool* pool_;
  CompileEnv env_;
  std::vector<CompiledEquation> eqs_;
  std::vector<fvm::CellField> scratch_;
  std::vector<fvm::CellField> stage_;  // RK2 stage-2 sweeps; empty for ForwardEuler
  std::vector<int32_t> all_cells_;     // 0 .. num_cells - 1

 private:
  void build_env();
};

}  // namespace finch::codegen
