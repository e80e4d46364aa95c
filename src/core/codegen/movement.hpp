#pragma once
// Host<->device data-movement planning.
//
// "Given the sensitivity of communication, Finch will automatically determine
// what variables need to be updated and communicated during each step. Other
// values will either only be sent once, or not at all." (§II.B)
//
// Inputs: per-array read/write sets of the two execution sites (the GPU
// kernel, derived from the IR's entity usage; the CPU side, derived from the
// boundary-callback and post-step annotations). Output: which arrays upload
// once, which round-trip every step, and the per-step byte volumes. The
// hybrid solver prices each transfer on the simulated device
// (rt::SimGpu::charge_copy) and charges it to its communication phase; it
// copies nothing, so a transfer carries no checksum.

#include <cstdint>
#include <string>
#include <vector>

namespace finch::codegen {

struct ArrayUse {
  std::string name;
  int64_t bytes = 0;       // full array size
  bool gpu_reads = false;  // per step
  bool gpu_writes = false;
  bool cpu_reads = false;  // per step (boundary callbacks / post-step)
  bool cpu_writes = false;
};

struct MovementPlan {
  struct Transfer {
    std::string array;
    int64_t bytes = 0;
  };
  std::vector<Transfer> upload_once;     // H2D before the time loop
  std::vector<Transfer> per_step_h2d;    // CPU-produced, GPU-consumed
  std::vector<Transfer> per_step_d2h;    // GPU-produced, CPU-consumed

  int64_t once_bytes() const;
  int64_t step_h2d_bytes() const;
  int64_t step_d2h_bytes() const;
  int64_t step_total_bytes() const { return step_h2d_bytes() + step_d2h_bytes(); }
};

// Minimal-movement plan: an array crosses the link per step only when one
// side writes what the other reads.
MovementPlan plan_movement(const std::vector<ArrayUse>& arrays);

// Baseline for the ablation bench: every GPU-visible array round-trips every
// step (what a non-analyzing code generator would emit).
MovementPlan plan_movement_naive(const std::vector<ArrayUse>& arrays);

}  // namespace finch::codegen
