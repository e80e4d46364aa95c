#pragma once
// GPU code-generation target (hybrid CPU+GPU configuration of Fig. 6), one
// instance of StepSolverBase's stage loop: its sweep_mesh() hook launches
// the interior cells on the (simulated) device — the equation's sweep over
// them, the native kernel when the backend is native, else the VM — charged
// with the program's roofline profile (one thread per DOF), and sweeps the
// boundary cells with the same executor on the host, overlapping the kernel.
// The host is billed for its own work only: the boundary fill (the user
// callbacks) and the boundary cells. The base step verifies the first kernel
// stage over every cell, commits, forms the declared sums the kernel did not
// and runs the CPU post-step (temperature update); the target then charges
// the movement plan's per-step transfers to the communication phase. The
// numerics read and write host storage only: the plan's transfers (its
// once-uploads at construction on stream 0, then each step's downloads and
// uploads on the kernel stream) are priced on the device with
// rt::SimGpu::charge_copy, and no device buffer mirrors a field. Fields,
// vm.* counts and the non-finite guard report equal the CPU target's. The
// target lowers ForwardEuler only: its plan prices one host round trip per
// step.

#include <memory>

#include "movement.hpp"
#include "runtime/simgpu.hpp"

namespace finch::dsl {
class Problem;
class Solver;
}  // namespace finch::dsl

namespace finch::codegen {

// `native` is the backend decision of dsl::Problem::compile, as for the CPU
// targets.
std::unique_ptr<dsl::Solver> make_gpu_solver(dsl::Problem& problem, rt::SimGpu* gpu, bool native);

// The movement plan the GPU target would use for `problem` (exposed for
// inspection, tests and the ablation bench). `naive` selects the
// no-analysis everything-both-ways baseline.
MovementPlan gpu_movement_plan(dsl::Problem& problem, bool naive = false);

}  // namespace finch::codegen
