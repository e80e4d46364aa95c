// §III.D profiling table: the paper reports for the single-GPU run
//   SM utilization    86%
//   memory throughput 11%
//   FLOP performance  49% of (double-precision) peak
// This bench prints the simulated device's modeled counters for the same
// kernel, both from the analytic profile model and from actually running the
// DSL-generated interior kernel on the simulated device (small grid, same
// per-thread profile).
#include <memory>

#include "bte/bte_problem.hpp"
#include "fig_common.hpp"

using namespace finch;
using namespace finch::perf;

int main() {
  bench::print_header("SectionIII.D table", "single-GPU kernel profiling counters");
  const Workload w = Workload::paper();
  const ModelConfig m;

  const GpuProfile prof = model_gpu_profile(w, m);
  std::printf("%-22s %10s %10s\n", "counter", "paper", "model");
  std::printf("%-22s %9.0f%% %9.0f%%\n", "SM utilization", 86.0, 100 * prof.sm_utilization);
  std::printf("%-22s %9.0f%% %9.0f%%\n", "memory throughput", 11.0, 100 * prof.mem_fraction);
  std::printf("%-22s %9.0f%% %9.0f%%\n", "FLOP (DP peak)", 49.0, 100 * prof.flop_fraction);
  std::printf("kernel time per step (modeled): %.3f ms\n\n", prof.kernel_seconds_per_step * 1e3);

  bench::check(prof.sm_utilization > 0.7, "high SM utilization (paper: 86%)");
  bench::check(prof.mem_fraction < 0.3, "memory bandwidth far from saturated (paper: 11%)");
  bench::check(prof.flop_fraction > 0.3 && prof.flop_fraction < 0.75,
               "roughly half of DP peak achieved (paper: 49%)");
  bench::check(prof.flop_fraction > prof.mem_fraction, "kernel is compute-bound in double precision");

  // Cross-check with a real run of the generated kernel on the simulated
  // device (scaled-down grid; counters are per-launch ratios, not totals).
  bte::BteScenario s;
  s.nx = s.ny = 16;
  s.lx = s.ly = 80e-6;
  s.ndirs = 8;
  s.nbands = 8;
  s.nsteps = 5;
  auto phys = std::make_shared<const bte::BtePhysics>(s.nbands, s.ndirs);
  bte::BteProblem bp(s, phys);
  rt::SimGpu gpu(rt::GpuSpec::a6000());
  bp.problem().use_cuda(&gpu);
  bp.compile()->run(5);
  const auto& cnt = gpu.counters();
  std::printf("\nexecuted generated kernel on simulated A6000 (16x16 grid, 5 steps):\n");
  std::printf("  launches %lld, SM util %.0f%%, FLOP %.0f%%, mem %.0f%%, H2D %.2f MB, D2H %.2f MB\n",
              static_cast<long long>(cnt.kernel_launches), 100 * cnt.sm_utilization,
              100 * cnt.flop_fraction, 100 * cnt.mem_fraction, cnt.bytes_h2d / 1e6,
              cnt.bytes_d2h / 1e6);
  bench::check(cnt.kernel_launches == 5, "one interior kernel launch per time step");
  return bench::check_failures() > 0 ? 1 : 0;
}
