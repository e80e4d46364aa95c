#pragma once
// GPU code-generation target (hybrid CPU+GPU configuration of Fig. 6), a
// StepSolverBase that overrides only step(). The interior-cell update is one
// launch on the (simulated) device: the VM sweep of the equation's shared
// Program over the interior cells, charged with that program's roofline
// profile (one thread per DOF). The host fills the boundary values once per
// step before the launch (StepSolverBase::fill_boundary, the user callbacks),
// and the boundary cells are swept by the same VM on the CPU, overlapping the
// kernel. Results are combined, the CPU post-step (temperature update)
// executes, and the movement plan's per-step transfers are charged to the
// communication phase. Fields, vm.* counts and the non-finite guard report
// equal the CPU target's.

#include <memory>

#include "movement.hpp"
#include "runtime/simgpu.hpp"

namespace finch::dsl {
class Problem;
class Solver;
}  // namespace finch::dsl

namespace finch::codegen {

std::unique_ptr<dsl::Solver> make_gpu_solver(dsl::Problem& problem, rt::SimGpu* gpu);

// The movement plan the GPU target would use for `problem` (exposed for
// inspection, tests and the ablation bench). `naive` selects the
// no-analysis everything-both-ways baseline.
MovementPlan gpu_movement_plan(dsl::Problem& problem, bool naive = false);

}  // namespace finch::codegen
