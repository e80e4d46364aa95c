// Tests for the observability layer (runtime/trace.hpp, runtime/metrics.hpp):
// span nesting and attributes under a fixed virtual clock, deterministic
// golden Chrome-JSON export, the disabled-path-records-nothing regression,
// metrics-counter conservation under fault injection, and the phase-ledger
// invariant — per-phase span sums reconcile with PhaseTimes and the virtual
// clock — for the BSP simulator and the multi-GPU solver's device clock.
//
// The tracer and the metrics registry are process-wide singletons, so every
// test (a) configures + clears the tracer on entry and restores the disabled
// default on exit, and (b) asserts metrics as *deltas* around the action
// under test rather than absolute values.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bte/multi_gpu_solver.hpp"
#include "runtime/fault.hpp"
#include "runtime/metrics.hpp"
#include "runtime/simmpi.hpp"
#include "runtime/trace.hpp"

using namespace finch::rt;

namespace {

// Manual clock: tests advance `manual_clock_ns` explicitly so span timestamps
// and durations are exact integers, making string-exact golden export viable.
int64_t manual_clock_ns = 0;

void use_manual_clock() {
  manual_clock_ns = 0;
  Tracer::global().set_clock([] { return manual_clock_ns; });
}

void enable_tracing() {
  TraceConfig cfg;
  cfg.enabled = true;
  Tracer::global().configure(cfg);
  Tracer::global().clear();
}

// Restore the process-wide default (disabled, real clock) so later tests —
// and later *suites* in this binary — start from a clean slate.
void restore_defaults() {
  Tracer::global().configure(TraceConfig{});
  Tracer::global().clear();
  Tracer::global().set_clock(nullptr);
}

// Sum of pid-1 (virtual timeline) span durations per name on `track`, in
// nanoseconds — the test-side half of the reconciliation contract.
std::map<std::string, int64_t> virtual_span_ns(int32_t track) {
  std::map<std::string, int64_t> sums;
  for (const TraceEvent& ev : Tracer::global().snapshot()) {
    if (ev.pid == 1 && ev.track == track) sums[ev.name] += ev.dur_ns;
  }
  return sums;
}

}  // namespace

// ---- disabled path ----------------------------------------------------------

TEST(Trace, DisabledPathRecordsNothing) {
  restore_defaults();
  ASSERT_FALSE(Tracer::global().enabled());
  {
    TraceSpan outer("outer");
    TraceSpan inner("inner");
  }
  SpanAttrs attrs;
  attrs.step = 7;
  Tracer::global().record_complete("virtual", 0, 1000, 5, attrs);
  EXPECT_TRUE(Tracer::global().snapshot().empty());
  EXPECT_EQ(Tracer::global().dropped(), 0);
}

// ---- span nesting + attributes under the virtual clock ----------------------

TEST(Trace, SpanNestingAndAttributes) {
  enable_tracing();
  use_manual_clock();

  {
    SpanAttrs oa;
    oa.rank = 3;
    oa.step = 12;
    TraceSpan outer("outer", oa);  // opens at t=0
    manual_clock_ns = 1000;
    {
      SpanAttrs ia;
      ia.device = 1;
      ia.phase = "compute";
      TraceSpan inner("inner", ia);  // opens at t=1000
      manual_clock_ns = 4000;
    }  // inner closes: [1000, 4000)
    manual_clock_ns = 6000;
  }  // outer closes: [0, 6000)

  std::vector<TraceEvent> events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Destruction order: inner is recorded first.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.pid, 0);
  EXPECT_EQ(outer.pid, 0);
  EXPECT_EQ(inner.track, outer.track);  // same OS thread, same track

  EXPECT_EQ(outer.ts_ns, 0);
  EXPECT_EQ(outer.dur_ns, 6000);
  EXPECT_EQ(inner.ts_ns, 1000);
  EXPECT_EQ(inner.dur_ns, 3000);
  // Containment: the inner interval nests strictly inside the outer one.
  EXPECT_GE(inner.ts_ns, outer.ts_ns);
  EXPECT_LE(inner.ts_ns + inner.dur_ns, outer.ts_ns + outer.dur_ns);

  EXPECT_EQ(outer.attrs.rank, 3);
  EXPECT_EQ(outer.attrs.step, 12);
  EXPECT_EQ(outer.attrs.device, -1);
  EXPECT_EQ(inner.attrs.device, 1);
  ASSERT_NE(inner.attrs.phase, nullptr);
  EXPECT_STREQ(inner.attrs.phase, "compute");

  restore_defaults();
}

// ---- deterministic golden export --------------------------------------------

// NOTE: this test sets the only track names in this binary, and every test in
// this file runs on the gtest main thread (wall track 0), so the full export
// is knowable down to the byte.
TEST(Trace, GoldenChromeExport) {
  enable_tracing();
  use_manual_clock();
  Tracer::global().set_track_name(1, 7, "virtual");

  manual_clock_ns = 1000;
  {
    TraceSpan span("outer");
    manual_clock_ns = 3000;
  }
  SpanAttrs a1;
  a1.step = 3;
  a1.phase = "compute";
  Tracer::global().record_complete("alpha", 1500, 2500, 7, a1);
  SpanAttrs a2;
  a2.rank = 2;
  a2.device = 1;
  Tracer::global().record_complete("beta", 4000, 1000, 7, a2);

  const std::string golden =
      "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"wall-clock\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"virtual-time\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":7,\"name\":\"thread_name\",\"args\":{\"name\":\"virtual\"}},\n"
      "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":1.000,\"dur\":2.000,\"name\":\"outer\"},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":7,\"ts\":1.500,\"dur\":2.500,\"name\":\"alpha\","
      "\"args\":{\"step\":3,\"phase\":\"compute\"}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":7,\"ts\":4.000,\"dur\":1.000,\"name\":\"beta\","
      "\"args\":{\"rank\":2,\"device\":1}}\n"
      "]}\n";

  std::ostringstream once, twice;
  Tracer::global().write_chrome_trace(once);
  Tracer::global().write_chrome_trace(twice);
  EXPECT_EQ(once.str(), golden);
  EXPECT_EQ(once.str(), twice.str());  // export is a pure function of state

  // Cheap structural validity check on top of the byte-exact compare.
  const std::string& s = once.str();
  EXPECT_EQ(s.front(), '{');
  EXPECT_EQ(s.substr(s.size() - 4), "\n]}\n");

  restore_defaults();
}

// ---- folded (flamegraph) export ---------------------------------------------

TEST(Trace, FoldedExportReconstructsNesting) {
  enable_tracing();
  use_manual_clock();

  {
    TraceSpan outer("outer");  // [0, 10000)
    manual_clock_ns = 2000;
    {
      TraceSpan inner("inner");  // [2000, 5000)
      manual_clock_ns = 5000;
    }
    manual_clock_ns = 10000;
  }

  std::ostringstream os;
  Tracer::global().write_folded(os);
  // Self time: outer = 10000 - 3000 (child) = 7000; inner = 3000.
  EXPECT_NE(os.str().find("thread-0;outer 7000\n"), std::string::npos);
  EXPECT_NE(os.str().find("thread-0;outer;inner 3000\n"), std::string::npos);

  restore_defaults();
}

// ---- buffer overflow accounting ---------------------------------------------

TEST(Trace, OverflowCountsDroppedEvents) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.max_events_per_thread = 4;
  Tracer::global().configure(cfg);
  Tracer::global().clear();

  for (int i = 0; i < 10; ++i) Tracer::global().record_complete("e", i, 1, 0);
  EXPECT_EQ(Tracer::global().snapshot().size(), 4u);
  EXPECT_EQ(Tracer::global().dropped(), 6);

  restore_defaults();
}

// ---- metrics registry basics ------------------------------------------------

TEST(Metrics, CounterGaugeHistogramAndReset) {
  MetricsRegistry& mx = MetricsRegistry::global();
  Counter& c = mx.counter("test.counter");
  const double c0 = c.value();
  c.add(2.5);
  c.add();
  EXPECT_DOUBLE_EQ(c.value() - c0, 3.5);
  EXPECT_DOUBLE_EQ(mx.value("test.counter"), c.value());

  mx.gauge("test.gauge").set(42.0);
  EXPECT_DOUBLE_EQ(mx.value("test.gauge"), 42.0);
  EXPECT_DOUBLE_EQ(mx.value("test.not-registered"), 0.0);

  Histogram& h = mx.histogram("test.histogram");
  const int64_t n0 = h.count();
  h.observe(1.0);
  h.observe(4.0);
  EXPECT_EQ(h.count() - n0, 2);
  EXPECT_GE(h.max(), 4.0);

  std::ostringstream os;
  mx.write_json(os);
  EXPECT_NE(os.str().find("\"test.counter\""), std::string::npos);
  EXPECT_NE(os.str().find("\"test.histogram\""), std::string::npos);

  // reset() zeroes values but keeps registrations: the cached references
  // above must stay valid and read zero.
  mx.reset();
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(mx.value("test.gauge"), 0.0);
}

// ---- metrics conservation under fault injection -----------------------------

TEST(Metrics, FaultCountersConserveInjectorStats) {
  MetricsRegistry& mx = MetricsRegistry::global();
  const double total0 = mx.value("fault.injected");
  const double launch0 = mx.value("fault.injected.kernel-launch-failure");
  const double drop0 = mx.value("fault.injected.dropped-message");

  FaultInjector inj(/*seed=*/123);
  FaultPolicy every3;
  every3.every = 3;
  inj.set_policy(FaultKind::KernelLaunchFailure, every3);
  FaultPolicy coin;
  coin.probability = 0.5;
  inj.set_policy(FaultKind::DroppedMessage, coin);

  int64_t fired = 0;
  for (int i = 0; i < 60; ++i) {
    fired += inj.should_fault(FaultKind::KernelLaunchFailure, "gpu0.launch") ? 1 : 0;
    fired += inj.should_fault(FaultKind::DroppedMessage, "exchange") ? 1 : 0;
  }
  ASSERT_GT(fired, 0);
  ASSERT_EQ(fired, inj.stats().total_injected());

  // Conservation: the registry's mirror of the injector bookkeeping agrees
  // exactly, in total and per kind.
  EXPECT_DOUBLE_EQ(mx.value("fault.injected") - total0,
                   static_cast<double>(inj.stats().total_injected()));
  EXPECT_DOUBLE_EQ(
      mx.value("fault.injected.kernel-launch-failure") - launch0,
      static_cast<double>(
          inj.stats().injected[static_cast<size_t>(FaultKind::KernelLaunchFailure)]));
  EXPECT_DOUBLE_EQ(mx.value("fault.injected.dropped-message") - drop0,
                   static_cast<double>(
                       inj.stats().injected[static_cast<size_t>(FaultKind::DroppedMessage)]));
}

// ---- BSP reconciliation: spans == phases == clock ---------------------------

TEST(Trace, BspSpanSumsReconcileWithPhasesAndClock) {
  enable_tracing();
  const double compute0 =
      MetricsRegistry::global().value("bsp.phase.compute_seconds");
  const double comm0 =
      MetricsRegistry::global().value("bsp.phase.communication_seconds");

  BspSimulator sim(4);
  sim.set_trace_track(11);  // empty label: no track_name (keeps golden stable)
  std::vector<double> secs = {1.0, 2.0, 0.5, 1.5};
  sim.compute_step(secs);
  sim.uniform_compute(0.25, BspSimulator::Phase::PostProcess);
  Message msg{0, 1, 1 << 20};
  sim.exchange(std::span<const Message>(&msg, 1));
  sim.allreduce(1 << 10);

  // The BSP invariant: every virtual second is phase-attributed. total()
  // re-sums per-phase buckets, so it matches the sequentially-accumulated
  // clock to FP associativity, not bit-exactly.
  EXPECT_NEAR(sim.phases().total(), sim.elapsed(), 1e-12 * sim.elapsed());

  // Span sums per phase equal PhaseTimes to clock-quantization (the tracer
  // stores nanoseconds; fault_stall is a nested overlay, not additive).
  const auto spans = virtual_span_ns(11);
  double span_total_s = 0;
  for (const auto& [name, ns] : spans) {
    if (name != "fault_stall") span_total_s += static_cast<double>(ns) * 1e-9;
  }
  EXPECT_NEAR(static_cast<double>(spans.at("compute")) * 1e-9, sim.phases().compute, 1e-8);
  EXPECT_NEAR(static_cast<double>(spans.at("post_process")) * 1e-9, sim.phases().post_process,
              1e-8);
  EXPECT_NEAR(static_cast<double>(spans.at("communication")) * 1e-9, sim.phases().communication,
              1e-8);
  EXPECT_NEAR(span_total_s, sim.elapsed(), 1e-7);

  // The always-on counters saw the same charges.
  EXPECT_NEAR(MetricsRegistry::global().value("bsp.phase.compute_seconds") - compute0,
              sim.phases().compute, 1e-12);
  EXPECT_NEAR(MetricsRegistry::global().value("bsp.phase.communication_seconds") - comm0,
              sim.phases().communication, 1e-12);

  restore_defaults();
}

// ---- multi-GPU reconciliation: same ledger, same names ----------------------

TEST(Trace, MultiGpuSpanSumsReconcileWithPhasesAndClock) {
  enable_tracing();
  MetricsRegistry& mx = MetricsRegistry::global();
  const double compute0 = mx.value("mgpu.phase.compute_seconds");
  const double post0 = mx.value("mgpu.phase.post_process_seconds");

  finch::bte::BteScenario s;
  s.nx = 16;
  s.ny = 12;
  s.lx = s.ly = 50e-6;
  s.hot_w = 20e-6;
  s.ndirs = 8;
  s.nbands = 8;
  auto phys = std::make_shared<const finch::bte::BtePhysics>(s.nbands, s.ndirs);
  finch::bte::MultiGpuSolver multi(s, phys, 4);
  multi.set_trace_track(13);  // empty label: no track_name (keeps golden stable)
  finch::bte::ResilienceOptions opt;
  opt.straggler.enabled = true;
  opt.straggler.rebalance = false;  // keep the straggler slow so speculation fires
  multi.enable_resilience(opt);
  multi.inject_slow_device(2, 50.0);
  multi.run(24);
  const PhaseTimes& ph = multi.phases();
  ASSERT_GT(multi.resilience_stats().speculations, 0);
  ASSERT_GT(ph.speculation, 0.0);
  // The stats block carries exactly the charged (capped) speculation.
  EXPECT_EQ(multi.resilience_stats().speculation_seconds, ph.speculation);

  // Spans are keyed by the PhaseTimes names, never the retired
  // intensity/temperature vocabulary, and each per-name sum equals its slot.
  const auto spans = virtual_span_ns(13);
  EXPECT_EQ(spans.count("intensity"), 0u);
  EXPECT_EQ(spans.count("temperature"), 0u);
  double span_total_s = 0;
  for (const auto& [name, ns] : spans) span_total_s += static_cast<double>(ns) * 1e-9;
  for (PhaseSlot slot : {PhaseSlot::Compute, PhaseSlot::PostProcess, PhaseSlot::Communication,
                         PhaseSlot::Speculation}) {
    const char* name = PhaseLedger::name(slot);
    ASSERT_TRUE(spans.count(name)) << name;
    EXPECT_NEAR(static_cast<double>(spans.at(name)) * 1e-9, ph[slot], 1e-7) << name;
  }
  EXPECT_NEAR(ph.total(), multi.virtual_elapsed(), 1e-12 * multi.virtual_elapsed());
  EXPECT_NEAR(span_total_s, multi.virtual_elapsed(), 1e-6);

  // The always-on counters carry the same names and charges.
  EXPECT_NEAR(mx.value("mgpu.phase.compute_seconds") - compute0, ph.compute, 1e-12);
  EXPECT_NEAR(mx.value("mgpu.phase.post_process_seconds") - post0, ph.post_process, 1e-12);

  restore_defaults();
}
