// Fig. 7: "Performance of GPU accelerated version compared to the CPU-only
// code" — band-partitioned across devices, one CPU process per GPU.
// Paper: ~18x over the CPU code at equal partition counts; strong scaling
// good to at least 10 devices, flat beyond.
#include "fig_common.hpp"

using namespace finch;
using namespace finch::perf;

int main() {
  bench::print_header("Figure 7", "CPU-only vs CPU+GPU scaling (band partitioning)");
  const Workload w = Workload::paper();
  const CalibratedCosts c = bench::calibrated_costs();
  const ModelConfig m;

  std::printf("device model: %s\n\n", m.gpu.name.c_str());
  std::printf("%8s %14s %14s %14s %10s\n", "procs", "CPU only [s]", "CPU+GPU [s]", "ideal [s]",
              "speedup");
  const double g1 = model_gpu(w, c, m, 1).total;
  std::vector<int> counts = {1, 2, 4, 5, 8, 10, 20, 40, 55};
  double ratio_sum = 0;
  double g10 = 0, g40 = 0;
  for (int p : counts) {
    const double cpu = model_band_parallel(w, c, m, p).total;
    const double gpu = model_gpu(w, c, m, p).total;
    if (p == 10) g10 = gpu;
    if (p == 40) g40 = gpu;
    ratio_sum += cpu / gpu;
    std::printf("%8d %14.3f %14.4f %14.4f %9.1fx\n", p, cpu, gpu, g1 / p, cpu / gpu);
  }
  const double mean_ratio = ratio_sum / counts.size();

  std::printf("\nmean CPU/GPU speedup at equal partition counts: %.1fx (paper: ~18x)\n\n", mean_ratio);
  bench::check(mean_ratio > 8 && mean_ratio < 40, "GPU version ~18x faster at equal partition counts");
  bench::check(g1 / g10 > 3.0, "strong scaling is good up to at least 10 devices");
  bench::check(g10 / g40 < 2.5, "little further speedup beyond ~10 devices");
  // Paper: best 10-GPU time roughly equals the best 320-process CPU time.
  const double cpu320 = model_cell_parallel(w, c, m, 320).total;
  const double r = g10 / cpu320;
  std::printf("10-GPU vs 320-process-CPU time ratio: %.2f (paper: roughly equal)\n", r);
  bench::check(r > 0.2 && r < 5.0, "best GPU time and best 320-proc CPU time are comparable");
  return bench::check_failures() > 0 ? 1 : 0;
}
