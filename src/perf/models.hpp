#pragma once
// Performance models for the paper's scaling figures.
//
// The paper's numbers come from a 40-core Cascade Lake cluster (up to 320 MPI
// processes) and nodes with 8 A6000 GPUs; neither is available here. The
// figures' *shapes* are determined by ratios this repo can compute or measure:
//   * intensity-update cost per DOF and temperature-update cost per cell,
//     calibrated by running the real solvers on this machine;
//   * per-strategy communication volumes, computed exactly from the mesh
//     partitioner (cell-parallel halos) or the band-reduction size
//     (band-parallel), priced by the alpha-beta CommModel;
//   * GPU kernel/transfer times from the SimGpu roofline model.
// Every model advances a BspSimulator so phase breakdowns (Figs 5/8) fall out
// of the same machinery as the totals (Figs 4/7/9).

#include <string>
#include <vector>

#include "bte/bte_problem.hpp"
#include "mesh/partition.hpp"
#include "runtime/simgpu.hpp"
#include "runtime/simmpi.hpp"

namespace finch::perf {

// Measured single-core costs. `measure()` runs the hand-written solver
// briefly on a reduced problem and scales per-DOF / per-cell costs from it.
struct CalibratedCosts {
  double sec_per_dof_intensity = 50e-9;       // explicit FV update of one I DOF
  double sec_per_cell_temperature = 2.5e-6;   // Newton solve + table refresh, 55 bands
  double fortran_speedup = 2.0;               // hand-written code is ~2x faster serially

  static CalibratedCosts measure();            // really runs a small DirectSolver
  static CalibratedCosts defaults() { return {}; }
};

// Problem size derived from a scenario (full paper scale by default).
struct Workload {
  int64_t cells = 0;
  int cell_nx = 0, cell_ny = 0;
  int dirs = 0;
  int bands = 0;
  int steps = 100;
  int64_t dofs() const { return cells * dirs * bands; }

  static Workload paper();                    // 120x120, 20 dirs, 55 bands, 100 steps
  static Workload from_scenario(const bte::BteScenario& s);
};

struct ScalingPoint {
  int procs = 1;
  double total = 0;         // seconds for `steps` steps: the BSP clock's elapsed time
  rt::PhaseTimes phases;    // the breakdown, in every solver's phase vocabulary
};

struct ModelConfig {
  rt::CommModel comm;                        // MPI alpha-beta
  double temp_serial_fraction = 0.08;        // unparallelized share of the temperature update
  double fortran_serial_fraction = 0.06;     // the baseline's poorly-parallelized sub-phase
  rt::GpuSpec gpu = rt::GpuSpec::a6000();
  // Static kernel profile of the generated interior kernel (from bytecode
  // analysis of the BTE step program).
  double kernel_flops_per_dof = 250;   // update + 4-face upwind flux incl. addressing
  double kernel_fma_fraction = 0.10;   // mixed compare/select/div issue mix
  double kernel_dram_bytes_per_dof = 18;
  double kernel_divergence = 0.04;
  // Chrome-trace track the model's BSP phase spans land on when tracing is
  // enabled (see OBSERVABILITY.md); `trace_label` names the track in the
  // export. Benches sweeping proc counts give each point its own track.
  int32_t trace_track = 1;
  std::string trace_label;
};

// Band-parallel CPU strategy (partition the 55 bands over ranks).
ScalingPoint model_band_parallel(const Workload& w, const CalibratedCosts& c, const ModelConfig& m,
                                 int procs);
// Cell-parallel CPU strategy (mesh partitioning + halo exchange). Uses the
// real RCB partitioner on the workload's grid for exact halo volumes.
ScalingPoint model_cell_parallel(const Workload& w, const CalibratedCosts& c, const ModelConfig& m,
                                 int procs);
// Hand-written baseline: faster serially, band-parallel, one poorly
// parallelized sub-phase (Fig. 9's "relatively poor scaling").
ScalingPoint model_fortran(const Workload& w, const CalibratedCosts& c, const ModelConfig& m, int procs);
// Hybrid CPU+GPU, band-partitioned across devices (one CPU process per GPU).
ScalingPoint model_gpu(const Workload& w, const CalibratedCosts& c, const ModelConfig& m, int devices);

// Modeled profiling counters for the single-GPU interior kernel (the §III.D
// table: SM utilization / memory throughput / DP FLOP fraction).
struct GpuProfile {
  double sm_utilization = 0;
  double mem_fraction = 0;
  double flop_fraction = 0;
  double kernel_seconds_per_step = 0;
};
GpuProfile model_gpu_profile(const Workload& w, const ModelConfig& m);

}  // namespace finch::perf
