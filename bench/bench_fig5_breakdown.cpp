// Fig. 5: "Breakdown of execution time for the band-parallel strategy" —
// percentage of time in the intensity solve, temperature update and
// communication at 1..55 processes. Paper: intensity ~97% at 1-10 procs,
// ~73% at 55.
//
// This bench also exercises the observability substrate end to end: every
// proc count runs with tracing enabled on its own virtual track, the result
// is exported as Chrome trace-event JSON (load in Perfetto), and a
// PAPER-CHECK asserts the per-phase span sums reconcile with the modeled
// phase times to within 1%.
#include "fig_common.hpp"
#include "runtime/trace.hpp"

using namespace finch;
using namespace finch::perf;


int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  if (args.trace_path.empty()) {
    // Trace export is part of this figure's deliverable: default the path
    // instead of requiring the flag (override with --trace <path>).
    args.trace_path = "TRACE_fig5_breakdown.json";
    rt::TraceConfig cfg;
    cfg.enabled = true;
    rt::Tracer::global().configure(cfg);
  }
  bench::JsonBench json = bench::bench_json("fig5_breakdown", args);

  bench::print_header("Figure 5", "band-parallel execution-time breakdown (%)");
  const Workload w = Workload::paper();
  const CalibratedCosts c = bench::calibrated_costs();

  std::printf("%8s %12s %14s %14s\n", "procs", "intensity", "temperature", "communication");
  double share1 = 0, share55 = 0;
  bool spans_ok = true;
  int32_t track = 1;
  for (int p : {1, 5, 10, 20, 40, 55}) {
    ModelConfig m;
    m.trace_track = track++;
    m.trace_label = "band-parallel p=" + std::to_string(p);
    const ScalingPoint pt = model_band_parallel(w, c, m, p);
    const double si = 100 * pt.phases.compute / pt.total;
    const double st = 100 * pt.phases.post_process / pt.total;
    const double sc = 100 * pt.phases.communication / pt.total;
    std::printf("%8d %11.1f%% %13.1f%% %13.1f%%\n", p, si, st, sc);
    if (p == 1) share1 = si;
    if (p == 55) share55 = si;

    // Reconcile the exported spans against the model's phase breakdown.
    const auto spans = bench::span_seconds(m.trace_track);
    double span_total = 0;
    for (const auto& [name, s] : spans) span_total += s;
    spans_ok = spans_ok && bench::within_pct(spans.count("compute") ? spans.at("compute") : 0.0,
                                      pt.phases.compute, 1.0);
    spans_ok = spans_ok && bench::within_pct(spans.count("post_process") ? spans.at("post_process") : 0.0,
                                      pt.phases.post_process, 1.0);
    spans_ok = spans_ok &&
               bench::within_pct(spans.count("communication") ? spans.at("communication") : 0.0,
                          pt.phases.communication, 1.0);
    spans_ok = spans_ok && bench::within_pct(span_total, pt.total, 1.0);

    json.begin_row();
    json.cell("procs", p);
    json.cell("total_s", pt.total);
    json.cell("intensity_pct", si);
    json.cell("temperature_pct", st);
    json.cell("communication_pct", sc);
    json.cell("span_total_s", span_total);
  }

  std::printf("\n");
  bench::check(share1 > 90.0, "intensity solve dominates (~97%) at small process counts");
  bench::check(share55 > 50.0 && share55 < 95.0,
               "intensity still dominant but visibly reduced (~73%) at 55 processes");
  bench::check(share1 > share55, "non-intensity share grows with process count");
  bench::check(spans_ok, "per-phase trace spans reconcile with the modeled breakdown (<=1%)");
  bench::check(rt::Tracer::global().dropped() == 0, "no trace events dropped");
  return bench::finish_bench(json, args);
}
