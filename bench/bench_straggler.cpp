// Straggler bench: time-to-solution under fail-slow faults, with the defense
// off / speculation-only / rebalance-only / both.
//
// Four experiments over the distributed solvers:
//   1. headline: a persistent 4x SlowRank on one of 8 cell-partitioned ranks;
//      TTS per mitigation mode. Both mitigations together must recover >= 2x
//      of the unmitigated time-to-solution, every mode must land on the serial
//      answer bit-for-bit, and the slow-but-alive rank must never be evicted.
//      Fault-free runs must charge nothing outside the new phases.
//   2. JitterKernel on the band-partitioned solver: random per-step slowdowns
//      are observed (counted) and never perturb the numerics.
//   3. HangExchange on the cell-partitioned solver: an unwatched hang blocks
//      for the full stall; the deadline watchdog bounds a transient hang to a
//      few deadline charges; a persistent hang escalates to eviction.
//   4. multi-GPU: a 4x-slow device is detected from per-device telemetry and
//      derated (weighted band rebalance on the same hardware).
//
// Usage: bench_straggler [--seed N] [--json BENCH_straggler.json]
// Exit status is nonzero if any PAPER-CHECK fails (the CI fault-sweep gate).
#include <memory>

#include "bte/direct_solver.hpp"
#include "bte/multi_gpu_solver.hpp"
#include "bte/partitioned_solver.hpp"
#include "bte/resilience.hpp"
#include "fig_common.hpp"
#include "runtime/fault.hpp"
#include "runtime/trace.hpp"

using namespace finch;
using namespace finch::bte;
using bench::bitwise_equal;
using bench::small_scenario;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  bench::print_header("Straggler", "fail-slow defense: TTS vs slowdown, watchdogged hangs");
  bench::JsonBench json = bench::bench_json("bench_straggler", args);

  const BteScenario s = small_scenario();
  auto phys = std::make_shared<const BtePhysics>(s.nbands, s.ndirs);
  const int nparts = 8;
  const int nsteps = 32;
  const int victim = 2;
  const double slowdown = 4.0;
  json.set("nparts", nparts);
  json.set("nsteps", nsteps);
  json.set("slowdown", slowdown);

  DirectSolver serial(s, phys);
  serial.run(nsteps);
  const auto& truth_T = serial.temperature();
  const auto truth_I = serial.intensity();

  // The headline experiment needs compute to dominate the (latency-bound)
  // halo exchanges, otherwise Amdahl caps what any compute-side mitigation
  // can recover. 8x the cells of small_scenario() buys that headroom while
  // the halo payloads stay in the latency regime.
  BteScenario big = small_scenario();
  big.nx = 64;
  big.ny = 48;
  DirectSolver big_serial(big, phys);
  big_serial.run(nsteps);
  const auto& big_truth_T = big_serial.temperature();
  const auto big_truth_I = big_serial.intensity();

  // ---- 1. headline: TTS per mitigation mode, 4x SlowRank on 1 of 8 ranks ----
  std::printf("\nTTS vs mitigation mode (cell, %d ranks, rank %d is %gx slow)\n", nparts, victim,
              slowdown);
  std::printf("%-10s %12s %9s %9s %9s %9s %8s\n", "mode", "tts(ms)", "specs", "rebal",
              "evicted", "recover", "exact");

  struct Mode {
    const char* name;
    bool enabled, spec, reb;
  };
  const Mode modes[] = {
      {"off", false, false, false},
      {"spec", true, true, false},
      {"rebalance", true, false, true},
      {"both", true, true, true},
  };
  double tts[4] = {0, 0, 0, 0};
  bool all_exact = true;
  bool never_evicted = true;
  // The virtual clock is driven by measured sweep times, so host frequency
  // drift between two back-to-back runs skews their TTS ratio. Two antidotes:
  // take the min over repetitions (a throttled episode inflates a run, never
  // deflates it), and interleave the modes round-robin so no mode's triple
  // sits inside one thermal episode.
  const int reps = 3;
  ResilienceStats best_rs[4];
  for (int rep = 0; rep < reps; ++rep) {
    for (int m = 0; m < 4; ++m) {
      CellPartitionedSolver part(big, phys, nparts);
      ResilienceOptions opt;
      opt.straggler.enabled = modes[m].enabled;
      opt.straggler.speculation = modes[m].spec;
      opt.straggler.rebalance = modes[m].reb;
      part.enable_resilience(opt);
      part.inject_slow_rank(victim, slowdown);
      part.run(nsteps);

      const bool exact = bitwise_equal(part.gather_temperature(), big_truth_T) &&
                         bitwise_equal(part.gather_intensity(), big_truth_I);
      all_exact = all_exact && exact;
      never_evicted = never_evicted && part.resilience_stats().evictions == 0;
      if (rep == 0 || part.phases().total() < tts[m]) {
        tts[m] = part.phases().total();
        best_rs[m] = part.resilience_stats();
      }
    }
  }
  for (int m = 0; m < 4; ++m) {
    const ResilienceStats& rs = best_rs[m];
    const double recover = tts[m] > 0 ? tts[0] / tts[m] : 0.0;

    std::printf("%-10s %12.4f %9lld %9lld %9lld %8.2fx %8s\n", modes[m].name, tts[m] * 1e3,
                static_cast<long long>(rs.speculations), static_cast<long long>(rs.rebalances),
                static_cast<long long>(rs.evictions), recover, all_exact ? "yes" : "NO");

    json.begin_row();
    json.cell("experiment", 1);
    json.cell("mode", m);
    json.cell("tts_s", tts[m]);
    json.cell("speculations", static_cast<double>(rs.speculations));
    json.cell("rebalances", static_cast<double>(rs.rebalances));
    json.cell("evictions", static_cast<double>(rs.evictions));
    json.cell("speculation_s", rs.speculation_seconds);
    json.cell("rebalance_s", rs.rebalance_seconds);
    json.cell("recovery_factor", recover);
    json.cell("bit_exact", all_exact ? 1.0 : 0.0);
  }

  bench::check(all_exact, "every mitigation mode lands on the serial answer bit-for-bit");
  bench::check(never_evicted, "a slow-but-alive rank is mitigated, never evicted");
  bench::check(tts[1] < tts[0] && tts[2] < tts[0],
               "each mitigation alone beats the unmitigated time-to-solution");
  bench::check(tts[3] > 0 && tts[0] / tts[3] >= 2.0,
               "both mitigations recover >= 2x TTS vs unmitigated under a 4x straggler");

  // ---- fault-free overhead: the defense must be free when nothing is slow ----
  {
    bool clean = true;
    for (const bool armed : {false, true}) {
      CellPartitionedSolver part(s, phys, 4);
      ResilienceOptions opt;
      opt.straggler.enabled = armed;
      // Telemetry is measured wall time, so OS jitter on a loaded host can
      // mimic a straggler. The invariant here is that an armed-but-idle
      // defense charges nothing, so put the trip point beyond any scheduler
      // noise; false-positive behavior at realistic thresholds is covered by
      // the never-evicted checks above.
      opt.straggler.slow_ratio = 1e6;
      opt.straggler.clip_ratio = 2e6;
      part.enable_resilience(opt);
      part.run(nsteps);
      const rt::PhaseTimes& ph = part.phases();
      const ResilienceStats& rs = part.resilience_stats();
      clean = clean && ph.speculation == 0.0 && ph.rebalance == 0.0 && ph.recovery == 0.0 &&
              ph.redistribution == 0.0 && rs.speculations == 0 && rs.rebalances == 0 &&
              rs.evictions == 0 && bitwise_equal(part.gather_temperature(), truth_T);
    }
    bench::check(clean, "fault-free: zero cost outside the new phases, armed or not, and no "
                        "false-positive mitigation");
  }

  // ---- 2. JitterKernel: random per-step slowdowns, band solver ---------------
  {
    rt::FaultInjector inj(args.seed);
    rt::FaultPolicy p;
    p.every = 3;
    inj.set_policy(rt::FaultKind::JitterKernel, p);
    BandPartitionedSolver band(s, phys, 4);
    ResilienceOptions opt;
    opt.injector = &inj;
    opt.straggler.enabled = true;
    band.enable_resilience(opt);
    band.run(nsteps);
    const ResilienceStats& rs = band.resilience_stats();
    const bool exact = bitwise_equal(band.temperature(), truth_T) &&
                       bitwise_equal(band.gather_intensity(), truth_I);
    std::printf("\njitter     %12.4f ms, %lld jitter events, exact=%s\n",
                band.phases().total() * 1e3, static_cast<long long>(rs.jitter_events),
                exact ? "yes" : "NO");
    json.begin_row();
    json.cell("experiment", 2);
    json.cell("jitter_events", static_cast<double>(rs.jitter_events));
    json.cell("tts_s", band.phases().total());
    json.cell("bit_exact", exact ? 1.0 : 0.0);
    bench::check(exact && rs.jitter_events > 0,
                 "kernel jitter stretches the clock, is counted, and never touches the numerics");
  }

  // ---- 3. HangExchange: unwatched stall vs deadline watchdog vs escalation ---
  {
    std::printf("\nhang handling (cell, %d ranks)\n", 4);
    double tts_hang[3] = {0, 0, 0};
    bool hang_exact = true;
    int64_t escalations = 0, hang_evictions = 0, timeouts = 0;
    for (int mode = 0; mode < 3; ++mode) {
      // mode 0: defense off (unwatched 10 ms stall); 1: watchdog, transient
      // hang (one deadline, clean retry); 2: watchdog, persistent hang
      // (deadline x miss_threshold, then escalate to eviction).
      rt::FaultInjector inj(args.seed);
      rt::FaultPolicy hang;
      hang.every = 1;
      hang.first_event = 3;
      hang.max_injections = 1;
      inj.set_site_policy(rt::FaultKind::HangExchange, "exchange", hang);
      if (mode == 2) {
        rt::FaultPolicy again;
        again.every = 1;
        inj.set_site_policy(rt::FaultKind::HangExchange, "exchange-retry", again);
      }
      CellPartitionedSolver part(s, phys, 4);
      ResilienceOptions opt;
      opt.injector = &inj;
      opt.checkpoint.interval = 6;
      opt.straggler.enabled = mode > 0;
      part.enable_resilience(opt);
      part.run(nsteps);
      const ResilienceStats& rs = part.resilience_stats();
      tts_hang[mode] = part.phases().total();
      hang_exact = hang_exact && bitwise_equal(part.gather_temperature(), truth_T);
      if (mode == 1) timeouts = rs.hang_timeouts;
      if (mode == 2) {
        escalations = rs.hang_escalations;
        hang_evictions = rs.evictions;
      }
      std::printf("%-10s %12.4f ms, %lld hangs, %lld timeouts, %lld escalations, %lld evicted\n",
                  mode == 0 ? "unwatched" : (mode == 1 ? "watchdog" : "persistent"),
                  tts_hang[mode] * 1e3, static_cast<long long>(rs.hang_events),
                  static_cast<long long>(rs.hang_timeouts),
                  static_cast<long long>(rs.hang_escalations),
                  static_cast<long long>(rs.evictions));
      json.begin_row();
      json.cell("experiment", 3);
      json.cell("mode", mode);
      json.cell("tts_s", tts_hang[mode]);
      json.cell("hang_events", static_cast<double>(rs.hang_events));
      json.cell("hang_timeouts", static_cast<double>(rs.hang_timeouts));
      json.cell("hang_escalations", static_cast<double>(rs.hang_escalations));
      json.cell("evictions", static_cast<double>(rs.evictions));
      json.cell("bit_exact", hang_exact ? 1.0 : 0.0);
    }
    bench::check(hang_exact, "every hang outcome lands on the fault-free answer bit-for-bit");
    bench::check(timeouts >= 1 && tts_hang[1] < tts_hang[0],
                 "the deadline watchdog bounds a transient hang below the unwatched stall");
    bench::check(escalations >= 1 && hang_evictions >= 1,
                 "a persistent hang is escalated from slow to dead and evicted");
  }

  // ---- 4. multi-GPU: slow device detected from telemetry and derated ---------
  {
    double tts_gpu[2] = {0, 0};
    bool gpu_exact = true;
    int64_t gpu_rebalances = 0, gpu_evictions = 0;
    // Twice the steps of the other experiments: the detector needs a few
    // steps to convict and each re-derate pays a copy charge, so the longer
    // horizon is what amortizes mitigation into a clear TTS win.
    const int gpu_steps = nsteps * 2;
    DirectSolver gpu_serial(s, phys);
    gpu_serial.run(gpu_steps);
    for (const bool armed : {false, true}) {
      // Min-of-reps for the same reason as the headline: host frequency drift
      // between the off and armed runs would otherwise dominate the margin.
      ResilienceStats best_rs;
      for (int rep = 0; rep < 3; ++rep) {
        MultiGpuSolver multi(s, phys, 4);
        ResilienceOptions opt;
        opt.straggler.enabled = armed;
        multi.enable_resilience(opt);
        multi.inject_slow_device(2, slowdown);
        multi.run(gpu_steps);
        gpu_exact = gpu_exact && bitwise_equal(multi.temperature(), gpu_serial.temperature()) &&
                    bitwise_equal(multi.gather_intensity(), gpu_serial.intensity());
        const size_t slot = armed ? 1 : 0;
        if (rep == 0 || multi.phases().total() < tts_gpu[slot]) {
          tts_gpu[slot] = multi.phases().total();
          best_rs = multi.resilience_stats();
        }
      }
      if (armed) {
        gpu_rebalances = best_rs.rebalances;
        gpu_evictions = best_rs.evictions;
      }
      json.begin_row();
      json.cell("experiment", 4);
      json.cell("armed", armed ? 1.0 : 0.0);
      json.cell("tts_s", tts_gpu[armed ? 1 : 0]);
      json.cell("rebalances", static_cast<double>(best_rs.rebalances));
      json.cell("speculations", static_cast<double>(best_rs.speculations));
      json.cell("bit_exact", gpu_exact ? 1.0 : 0.0);
    }
    std::printf("\nmulti-gpu  off %.4f ms -> defended %.4f ms, %lld rebalances, exact=%s\n",
                tts_gpu[0] * 1e3, tts_gpu[1] * 1e3, static_cast<long long>(gpu_rebalances),
                gpu_exact ? "yes" : "NO");
    bench::check(gpu_exact && gpu_evictions == 0,
                 "the slow device is derated bit-exactly and never evicted");
    bench::check(gpu_rebalances >= 1 && tts_gpu[1] < tts_gpu[0],
                 "per-device telemetry detects the 4x device and the derate beats no defense");
  }

  // ---- 5. observability: trace spans reconcile with the phase breakdowns -----
  // The bugfix regression this experiment pins down: speculation used to be
  // charged *uncapped* to resilience_stats().speculation_seconds while the
  // phase breakdown carried the capped charge, so the stats block drifted
  // above the breakdown (and the breakdown total above the BSP clock check)
  // whenever a speculative helper overran the step it covered.
  {
    rt::TraceConfig tcfg;
    tcfg.enabled = true;
    rt::Tracer::global().configure(tcfg);

    // Cell solver, full defense, 4x slow rank: every virtual-time charge
    // emits a span, so per-phase span sums must reproduce phases() and the
    // phase total must reproduce the BSP clock.
    CellPartitionedSolver part(big, phys, nparts);
    part.set_trace_track(300, "cell reconcile");
    ResilienceOptions opt;
    opt.straggler.enabled = true;
    part.enable_resilience(opt);
    part.inject_slow_rank(victim, slowdown);
    part.run(nsteps);
    const rt::PhaseTimes& ph = part.phases();
    const auto spans = bench::span_seconds(300);
    const auto span_of = [&spans](const char* name) {
      return spans.count(name) ? spans.at(name) : 0.0;
    };
    // fault_stall spans nest inside communication and are excluded: they are
    // an attribution overlay, not an additive phase.
    double span_total = 0;
    for (const auto& [name, sec] : spans)
      if (name != "fault_stall") span_total += sec;
    // total() re-sums per-phase buckets while the clock accumulated the same
    // charges in arrival order, so equality holds to FP associativity — a
    // 1e-9% (1e-11 relative) bar, vastly tighter than any real drift.
    const bool cell_clock_ok = bench::within_pct(ph.total(), part.virtual_elapsed(), 1e-9);
    const bool cell_spans_ok =
        bench::within_pct(span_of("compute"), ph.compute, 1.0) &&
        bench::within_pct(span_of("post_process"), ph.post_process, 1.0) &&
        bench::within_pct(span_of("communication"), ph.communication, 1.0) &&
        bench::within_pct(span_of("speculation"), ph.speculation, 1.0) &&
        bench::within_pct(span_of("rebalance"), ph.rebalance, 1.0) &&
        bench::within_pct(span_total, ph.total(), 1.0);
    std::printf("\nreconcile  cell: phases %.4f ms, spans %.4f ms, bsp clock %.4f ms\n",
                ph.total() * 1e3, span_total * 1e3, part.virtual_elapsed() * 1e3);
    bench::check(cell_clock_ok,
                 "cell phase breakdown total equals the BSP clock (to FP round-off)");
    bench::check(cell_spans_ok, "cell per-phase trace spans reconcile with phases() (<=1%)");

    // Multi-GPU with speculation armed: the speculation stat must carry the
    // same (capped) seconds as the phase breakdown, and the phase-span sum
    // must reproduce phases().total().
    MultiGpuSolver multi(s, phys, 4);
    multi.set_trace_track(301, "mgpu reconcile");
    ResilienceOptions gopt;
    gopt.straggler.enabled = true;
    gopt.straggler.rebalance = false;  // keep the straggler slow so speculation fires
    multi.enable_resilience(gopt);
    multi.inject_slow_device(2, slowdown);
    multi.run(nsteps * 2);
    const rt::PhaseTimes& gp = multi.phases();
    const auto gspans = bench::span_seconds(301);
    double gspan_total = 0;
    for (const auto& [name, sec] : gspans) gspan_total += sec;
    std::printf("reconcile  mgpu: phases %.4f ms, spans %.4f ms, speculation stat %.6f ms "
                "vs phase %.6f ms\n",
                gp.total() * 1e3, gspan_total * 1e3,
                multi.resilience_stats().speculation_seconds * 1e3, gp.speculation * 1e3);
    bench::check(multi.resilience_stats().speculations > 0 && gp.speculation > 0,
                 "multi-GPU speculation engaged under the 4x device");
    bench::check(multi.resilience_stats().speculation_seconds == gp.speculation,
                 "speculation stat carries the charged (capped) seconds, not the helper "
                 "overshoot (regression)");
    bench::check(bench::within_pct(gspan_total, gp.total(), 1.0) &&
                     bench::within_pct(gp.total(), multi.virtual_elapsed(), 1.0),
                 "multi-GPU phase spans reconcile with phases().total() (<=1%)");

    json.begin_row();
    json.cell("experiment", 5);
    json.cell("cell_phase_total_s", ph.total());
    json.cell("cell_span_total_s", span_total);
    json.cell("mgpu_phase_total_s", gp.total());
    json.cell("mgpu_span_total_s", gspan_total);
    json.cell("mgpu_speculation_s", gp.speculation);
  }

  std::printf("\n");
  return bench::finish_bench(json, args);
}
