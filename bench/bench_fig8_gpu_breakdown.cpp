// Fig. 8: "Breakdown of execution time for the GPU accelerated version" at
// 1-8 GPUs. Paper: compared with Fig. 5, a substantially larger share goes to
// the (CPU) temperature update; GPU<->host communication is visible but not
// dominant.
//
// Like bench_fig5_breakdown, every device count runs with tracing enabled on
// its own virtual track, the run exports Chrome trace-event JSON (load in
// Perfetto), and a PAPER-CHECK asserts the per-phase span sums reconcile
// with the modeled phase times to within 1%.
#include "fig_common.hpp"
#include "runtime/trace.hpp"

using namespace finch;
using namespace finch::perf;


int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  if (args.trace_path.empty()) {
    args.trace_path = "TRACE_fig8_gpu_breakdown.json";
    rt::TraceConfig cfg;
    cfg.enabled = true;
    rt::Tracer::global().configure(cfg);
  }
  bench::JsonBench json = bench::bench_json("fig8_gpu_breakdown", args);

  bench::print_header("Figure 8", "GPU-accelerated execution-time breakdown (%)");
  const Workload w = Workload::paper();
  const CalibratedCosts c = bench::calibrated_costs();

  std::printf("%8s %14s %18s %22s\n", "GPUs", "intensity(GPU)", "temperature(CPU)",
              "communication(CPU<->GPU)");
  double temp_share_4 = 0, comm_share_4 = 0;
  bool spans_ok = true;
  int32_t track = 1;
  for (int p : {1, 2, 4, 8}) {
    ModelConfig m;
    m.trace_track = track++;
    m.trace_label = "gpu d=" + std::to_string(p);
    const ScalingPoint pt = model_gpu(w, c, m, p);
    const double si = 100 * pt.phases.compute / pt.total;
    const double st = 100 * pt.phases.post_process / pt.total;
    const double sc = 100 * pt.phases.communication / pt.total;
    std::printf("%8d %13.1f%% %17.1f%% %21.1f%%\n", p, si, st, sc);
    if (p == 4) {
      temp_share_4 = st;
      comm_share_4 = sc;
    }

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
    json.cell("gpus", p);
    json.cell("total_s", pt.total);
    json.cell("intensity_pct", si);
    json.cell("temperature_pct", st);
    json.cell("communication_pct", sc);
    json.cell("span_total_s", span_total);
  }

  // CPU comparison point runs on a track of its own so its spans do not
  // pollute the GPU reconciliation above.
  ModelConfig mcpu;
  mcpu.trace_track = track++;
  mcpu.trace_label = "band-parallel p=4 (comparison)";
  const ScalingPoint cpu4 = model_band_parallel(w, c, mcpu, 4);
  const double cpu_temp_share_4 = 100 * cpu4.phases.post_process / cpu4.total;
  std::printf("\ntemperature-update share at 4 partitions: GPU version %.1f%% vs CPU version %.1f%%\n",
              temp_share_4, cpu_temp_share_4);
  bench::check(temp_share_4 > 2 * cpu_temp_share_4,
               "temperature update is a much larger share of the accelerated version (Fig. 8 vs 5)");
  bench::check(comm_share_4 > 0.5 && comm_share_4 < 40.0,
               "GPU<->host communication visible but not dominant");
  bench::check(spans_ok, "per-phase trace spans reconcile with the modeled breakdown (<=1%)");
  bench::check(rt::Tracer::global().dropped() == 0, "no trace events dropped");
  return bench::finish_bench(json, args);
}
