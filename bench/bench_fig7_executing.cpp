// Executing companion to Fig. 7: instead of the analytic strategy models,
// this bench *runs* the hand-written CPU solver and the multi-device hybrid
// solver on a reduced problem and compares their modeled/measured per-step
// phases. The numerics of the two are bit-identical (tested); what differs is
// where the time goes — the same story the paper tells at full scale.
#include <memory>

#include "bte/direct_solver.hpp"
#include "bte/multi_gpu_solver.hpp"
#include "fig_common.hpp"

using namespace finch;
using namespace finch::bte;

int main() {
  bench::print_header("Figure 7 (executing)", "hand-written CPU vs multi-device hybrid, reduced scale");

  BteScenario s;
  s.nx = s.ny = 24;
  s.lx = s.ly = 100e-6;
  s.ndirs = 8;
  s.nbands = 8;
  auto phys = std::make_shared<const BtePhysics>(s.nbands, s.ndirs);
  const int steps = 30;
  std::printf("problem: %dx%d cells, %d dirs, %d bands, %d steps\n\n", s.nx, s.ny, phys->num_dirs(),
              phys->num_bands(), steps);

  DirectSolver cpu(s, phys);
  cpu.run(steps);
  const double cpu_intensity = cpu.phases().compute;
  const double cpu_temp = cpu.phases().post_process;
  std::printf("%-18s intensity %.4f s   temperature %.4f s   total %.4f s\n", "CPU (measured)",
              cpu_intensity, cpu_temp, cpu_intensity + cpu_temp);

  double gpu1_total = 0;
  for (int ndev : {1, 2, 4}) {
    MultiGpuSolver gpu(s, phys, ndev);
    gpu.run(steps);
    const auto& ph = gpu.phases();
    if (ndev == 1) gpu1_total = ph.total();
    std::printf("%d GPU%s (hybrid)    intensity %.4f s   temperature %.4f s   comm %.4f s   total %.4f s\n",
                ndev, ndev > 1 ? "s" : " ", ph.compute, ph.post_process, ph.communication,
                ph.total());
  }

  // The GPU-side intensity phase is modeled (roofline); the CPU phases are
  // measured. The hybrid's total is dominated by the CPU temperature update —
  // the same inversion between Fig. 5 and Fig. 8.
  MultiGpuSolver gpu2(s, phys, 2);
  gpu2.run(steps);
  const auto& ph = gpu2.phases();
  std::printf("\n");
  bench::check(ph.compute < cpu_intensity,
               "device kernel time (modeled) beats the measured CPU intensity sweep");
  bench::check(ph.post_process / ph.total() > cpu_temp / (cpu_intensity + cpu_temp),
               "temperature update is a larger share of the hybrid run");
  bench::check(gpu1_total < cpu_intensity + cpu_temp,
               "the hybrid configuration wins end-to-end at equal partition count");
  return bench::check_failures() > 0 ? 1 : 0;
}
