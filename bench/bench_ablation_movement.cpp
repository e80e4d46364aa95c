// Ablation: the data-movement planner ("Finch will automatically determine
// what variables need to be updated and communicated during each step") vs a
// naive generator that round-trips every GPU-visible array every step.
// Reports per-step byte volumes and the modeled PCIe time saved.
#include <memory>

#include "bte/bte_problem.hpp"
#include "core/codegen/gpu_solver.hpp"
#include "fig_common.hpp"

using namespace finch;
using namespace finch::codegen;

int main() {
  bench::print_header("Ablation", "movement planner vs naive per-step round-trips");
  bte::BteScenario s = bte::BteScenario::paper_hotspot();
  auto phys = std::make_shared<const bte::BtePhysics>(s.nbands, s.ndirs);
  bte::BteProblem bp(s, phys);

  const MovementPlan opt = gpu_movement_plan(bp.problem(), /*naive=*/false);
  const MovementPlan naive = gpu_movement_plan(bp.problem(), /*naive=*/true);

  auto show = [](const char* name, const MovementPlan& p) {
    std::printf("%-10s once H2D %8.2f MB | per step H2D %8.2f MB, D2H %8.2f MB\n", name,
                p.once_bytes() / 1e6, p.step_h2d_bytes() / 1e6, p.step_d2h_bytes() / 1e6);
    for (const auto& t : p.per_step_h2d) std::printf("      step H2D: %-6s %10.3f MB\n", t.array.c_str(), t.bytes / 1e6);
    for (const auto& t : p.per_step_d2h) std::printf("      step D2H: %-6s %10.3f MB\n", t.array.c_str(), t.bytes / 1e6);
  };
  show("planned", opt);
  show("naive", naive);

  const rt::GpuSpec gpu = rt::GpuSpec::a6000();
  const double t_opt = static_cast<double>(opt.step_total_bytes()) / gpu.pcie_bandwidth_Bps;
  const double t_naive = static_cast<double>(naive.step_total_bytes()) / gpu.pcie_bandwidth_Bps;
  std::printf("\nmodeled PCIe time per step: planned %.3f ms, naive %.3f ms (%.2fx reduction)\n",
              t_opt * 1e3, t_naive * 1e3,
              t_naive / t_opt);

  bench::check(opt.step_total_bytes() < naive.step_total_bytes(),
               "planner moves strictly less data per step than the naive generator");
  // At full paper scale, I dominates the D2H leg; Io/beta dominate H2D.
  bench::check(opt.step_h2d_bytes() < opt.step_d2h_bytes(),
               "per-step uploads (Io/beta) are smaller than the intensity download");
  bench::check(t_naive / t_opt > 1.3, "planner saves a meaningful fraction of PCIe time");
  return bench::check_failures() > 0 ? 1 : 0;
}
