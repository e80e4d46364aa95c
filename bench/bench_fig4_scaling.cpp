// Fig. 4: "Comparison of band-parallel and cell-parallel strategies" —
// strong-scaling of the paper workload (120x120 cells, 20 dirs, 55 bands,
// 100 steps) from 1 to 320 processes, with the ideal-scaling line.
#include "fig_common.hpp"

using namespace finch;
using namespace finch::perf;

int main() {
  bench::print_header("Figure 4", "band-parallel vs cell-parallel strong scaling");
  const Workload w = Workload::paper();
  const CalibratedCosts c = bench::calibrated_costs();
  const ModelConfig m;

  std::printf("calibration: %.1f ns/DOF intensity, %.2f us/cell temperature\n\n",
              c.sec_per_dof_intensity * 1e9, c.sec_per_cell_temperature * 1e6);
  std::printf("%8s %16s %16s %16s\n", "procs", "bands [s]", "cells [s]", "ideal [s]");

  const double t1 = model_band_parallel(w, c, m, 1).total;
  std::vector<double> bands, cells;
  for (int p : bench::paper_proc_counts()) {
    const double tb = model_band_parallel(w, c, m, p).total;
    const double tc = model_cell_parallel(w, c, m, p).total;
    bands.push_back(tb);
    cells.push_back(tc);
    std::printf("%8d %16.3f %16.3f %16.3f\n", p, tb, tc, t1 / p);
  }

  std::printf("\n");
  const auto& procs = bench::paper_proc_counts();
  const size_t i320 = procs.size() - 1;
  bench::check(cells[i320] < bands[i320],
               "cell-parallel scales to 320 processes, past the band limit");
  bench::check(bands[3] / bands[0] < 0.2 || bands[0] / bands[3] > 5,
               "band-parallel shows near-ideal scaling at small counts");
  // Band curve saturates: 80 -> 320 gains little.
  bench::check(bands[i320] > 0.8 * bands[6], "band-parallel flattens beyond ~55 processes (55 bands)");
  // Cell-parallel pays more communication but keeps scaling.
  const auto b40 = model_band_parallel(w, c, m, 40);
  const auto c40 = model_cell_parallel(w, c, m, 40);
  bench::check(c40.phases.communication > b40.phases.communication,
               "cell-parallel has the higher communication cost (Fig. 3 discussion)");
  return bench::check_failures() > 0 ? 1 : 0;
}
