// Ablation: 32- vs 64-bit floating point. The paper: "Numerical data used
// 64-bit floating point numbers. For this application 32-bit numbers did not
// provide adequate precision for long-duration simulation."
// Two parts: (a) the speed a GA102-class device WOULD gain from FP32 (the
// temptation), and (b) the precision failure that rules it out — simulate a
// long-duration run by accumulating the per-step update in float and watching
// the equilibrium drift, which double does not exhibit.
#include <cmath>
#include <memory>

#include "bte/bte_problem.hpp"
#include "fig_common.hpp"
#include "runtime/simgpu.hpp"

using namespace finch;

int main() {
  bench::print_header("Ablation", "FP32 vs FP64: speed temptation vs precision failure");

  // (a) Roofline speedup FP32 would give on the interior kernel.
  rt::SimGpu gpu(rt::GpuSpec::a6000());
  rt::KernelStats ks;
  ks.threads = 15840000;
  ks.flops_per_thread = 90;
  ks.fma_fraction = 0.35;
  ks.dram_bytes_per_thread = 18;
  const double t64 = gpu.model_kernel_seconds(ks);
  ks.single_precision = true;
  ks.dram_bytes_per_thread = 9;  // half the bytes too
  const double t32 = gpu.model_kernel_seconds(ks);
  std::printf("modeled interior kernel: FP64 %.3f ms, FP32 %.3f ms (%.1fx faster)\n", t64 * 1e3,
              t32 * 1e3, t64 / t32);
  bench::check(t64 / t32 > 4, "FP32 would be several times faster on a GA102-class device");

  // (b) Why the paper could not use it: the per-step update is a tiny
  // increment on a large value (I += dt * rhs with dt*beta ~ 1e-2 and
  // relative increments down to ~1e-9 of I). In float, increments below the
  // ulp of I are lost and a long equilibrium run drifts.
  auto phys = std::make_shared<const bte::BtePhysics>(8, 8);
  const double I_eq = phys->table.I0(4, 300.0);
  const double beta = phys->table.beta(4, 300.0);
  const double dt = 1e-13;

  // Relaxation toward a target 1e-7 above equilibrium — representative of the
  // small residual signals a 20 us (20,000 step) run must integrate.
  const double target = I_eq * (1.0 + 1e-7);
  double I_d = I_eq;
  float I_f = static_cast<float>(I_eq);
  const int steps = 20000;
  for (int i = 0; i < steps; ++i) {
    I_d += dt * beta * (target - I_d);
    I_f += static_cast<float>(dt * beta * (static_cast<double>(target) - I_f));
  }
  const double err_d = std::abs(I_d - target) / target;
  const double err_f = std::abs(static_cast<double>(I_f) - target) / target;
  const double progress_d = (I_d - I_eq) / (target - I_eq);
  const double progress_f = (static_cast<double>(I_f) - I_eq) / (target - I_eq);
  std::printf("\n20,000-step relaxation toward a +1e-7 signal (dt*beta=%.1e):\n", dt * beta);
  std::printf("  double: captured %6.2f%% of the signal (rel err %.2e)\n", 100 * progress_d, err_d);
  std::printf("  float : captured %6.2f%% of the signal (rel err %.2e)\n", 100 * progress_f, err_f);

  bench::check(progress_d > 0.5, "double precision integrates the long-duration signal");
  bench::check(progress_f < 0.5 || err_f > 100 * err_d,
               "single precision loses the signal (paper: 32-bit inadequate for long runs)");
  return bench::check_failures() > 0 ? 1 : 0;
}
