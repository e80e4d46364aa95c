// Fig. 9: "Comparison of each strategy as well as a reference Fortran
// implementation based on the same model" — bands / cells / GPU / hand-written
// baseline / ideal over 1..320 processes-or-GPUs.
#include "fig_common.hpp"

using namespace finch;
using namespace finch::perf;

int main() {
  bench::print_header("Figure 9", "all strategies vs the hand-written reference");
  const Workload w = Workload::paper();
  const CalibratedCosts c = bench::calibrated_costs();
  const ModelConfig m;

  std::printf("%8s %12s %12s %12s %12s %12s\n", "procs", "bands [s]", "cells [s]", "GPU [s]",
              "fortran [s]", "ideal [s]");
  const double ideal1 = model_band_parallel(w, c, m, 1).total;
  double finch1 = 0, fort1 = 0, finch40 = 0, fort40 = 0;
  for (int p : bench::paper_proc_counts()) {
    const double tb = model_band_parallel(w, c, m, p).total;
    const double tc = model_cell_parallel(w, c, m, p).total;
    const double tg = model_gpu(w, c, m, p).total;
    const double tf = model_fortran(w, c, m, p).total;
    if (p == 1) {
      finch1 = tb;
      fort1 = tf;
    }
    if (p == 40) {
      finch40 = tb;
      fort40 = tf;
    }
    std::printf("%8d %12.3f %12.3f %12.4f %12.3f %12.3f\n", p, tb, tc, tg, tf, ideal1 / p);
  }

  std::printf("\nsequential: DSL-generated / hand-written = %.2fx (paper: roughly 2x)\n",
              finch1 / fort1);
  bench::check(finch1 / fort1 > 1.5 && finch1 / fort1 < 2.6,
               "sequential DSL code takes roughly twice as long as the hand-written code");
  bench::check(finch40 < fort40,
               "hand-written code's poorer scaling lets the DSL code overtake at higher counts");
  const double g10 = model_gpu(w, c, m, 10).total;
  const double c320 = model_cell_parallel(w, c, m, 320).total;
  bench::check(g10 / c320 > 0.2 && g10 / c320 < 5.0,
               "best times roughly equal between the 10-GPU run and the 320-CPU run");
  return bench::check_failures() > 0 ? 1 : 0;
}
