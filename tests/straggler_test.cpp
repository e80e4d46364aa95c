// Fail-slow resilience: performance-fault taxonomy, straggler detection,
// deadline watchdog, speculative re-execution, and dynamic rebalancing.
//
// The invariant every test leans on: performance faults and their mitigations
// live entirely in the timing model — the numerics never change, so every
// mitigated run must match the serial DirectSolver bit-for-bit.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bte/direct_solver.hpp"
#include "bte/multi_gpu_solver.hpp"
#include "bte/partitioned_solver.hpp"
#include "bte/resilience.hpp"
#include "runtime/fault.hpp"
#include "runtime/simgpu.hpp"
#include "runtime/simmpi.hpp"
#include "runtime/straggler.hpp"

using namespace finch;
using namespace finch::bte;

namespace {

BteScenario tiny_scenario() {
  BteScenario s;
  s.nx = 16;
  s.ny = 12;
  s.lx = s.ly = 50e-6;
  s.hot_w = 20e-6;
  s.ndirs = 8;
  s.nbands = 8;
  s.dt = 1e-12;
  return s;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

rt::StragglerOptions armed_straggler() {
  rt::StragglerOptions so;
  so.enabled = true;
  return so;
}

}  // namespace

// ---- taxonomy ---------------------------------------------------------------

TEST(FaultTaxonomy, PerformanceFaultsAreNamedAndClassified) {
  EXPECT_STREQ(rt::fault_kind_name(rt::FaultKind::SlowRank), "slow-rank");
  EXPECT_STREQ(rt::fault_kind_name(rt::FaultKind::JitterKernel), "jitter-kernel");
  EXPECT_STREQ(rt::fault_kind_name(rt::FaultKind::HangExchange), "hang-exchange");
  for (const rt::FaultKind k : {rt::FaultKind::SlowRank, rt::FaultKind::JitterKernel,
                                rt::FaultKind::HangExchange, rt::FaultKind::StuckRank}) {
    EXPECT_TRUE(rt::fault_is_performance(k));
    EXPECT_FALSE(rt::fault_is_permanent(k));
    EXPECT_FALSE(rt::fault_is_silent(k));
  }
  EXPECT_FALSE(rt::fault_is_performance(rt::FaultKind::RankFailure));
  EXPECT_FALSE(rt::fault_is_performance(rt::FaultKind::BitFlipMessage));
}

TEST(FaultTaxonomy, InjectorPerformanceDrawsAreDeterministic) {
  rt::FaultInjector a(1234), b(1234);
  rt::FaultPolicy p;
  p.every = 2;
  a.set_policy(rt::FaultKind::JitterKernel, p);
  b.set_policy(rt::FaultKind::JitterKernel, p);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.should_fault(rt::FaultKind::JitterKernel, "k"),
              b.should_fault(rt::FaultKind::JitterKernel, "k"));
    const double ja = a.jitter_factor("k");
    EXPECT_EQ(ja, b.jitter_factor("k"));
    EXPECT_GE(ja, 1.0);
    EXPECT_LE(ja, 3.0);  // default jitter_max
  }
  EXPECT_EQ(a.slow_factor(), 4.0);
  EXPECT_EQ(a.hang_seconds(), 10e-3);
  a.set_slow_factor(8.0);
  EXPECT_EQ(a.slow_factor(), 8.0);
}

// ---- heartbeat suspicion ----------------------------------------------------

TEST(Heartbeat, ThreeStateVerdictSeparatesSlowFromDead) {
  const rt::HeartbeatModel hb;
  using V = rt::HeartbeatModel::Verdict;
  EXPECT_EQ(hb.classify(0), V::Alive);
  EXPECT_EQ(hb.classify(1), V::Suspect);
  EXPECT_EQ(hb.classify(2), V::Suspect);
  EXPECT_EQ(hb.classify(3), V::Dead);
  EXPECT_EQ(hb.classify(99), V::Dead);
}

TEST(Heartbeat, TwoXSlowRankIsSuspectNeverDead) {
  // Regression for the fail-slow gap: a 2x-slow rank stretches its heartbeat
  // gaps to look like one missed beat — Suspect, and never escalated to Dead.
  const rt::HeartbeatModel hb;
  EXPECT_EQ(hb.misses_for_slowdown(1.0), 0);
  EXPECT_EQ(hb.misses_for_slowdown(2.0), 1);
  EXPECT_EQ(hb.classify(hb.misses_for_slowdown(2.0)), rt::HeartbeatModel::Verdict::Suspect);
  EXPECT_NE(hb.classify(hb.misses_for_slowdown(2.0)), rt::HeartbeatModel::Verdict::Dead);
}

// ---- detector ---------------------------------------------------------------

TEST(StragglerDetector, EwmaSuspectChronicAndHelperSelection) {
  rt::StragglerOptions so = armed_straggler();
  rt::StragglerDetector d(4, so);
  const std::vector<double> even = {1.0, 1.0, 1.0, 1.0};
  d.observe(even);
  EXPECT_DOUBLE_EQ(d.fleet_median(), 1.0);
  for (int r = 0; r < 4; ++r) {
    EXPECT_FALSE(d.suspect(r));
    EXPECT_DOUBLE_EQ(d.slowdown(r), 1.0);
  }
  EXPECT_EQ(d.chronic_straggler(), -1);

  const std::vector<double> skew = {1.0, 1.0, 5.0, 1.0};
  d.observe(skew);  // rank 2 EWMA = 0.6*1 + 0.4*5 = 2.6 > 2 x median
  EXPECT_TRUE(d.suspect(2));
  EXPECT_FALSE(d.chronic(2));  // needs chronic_steps consecutive suspects
  d.observe(skew);
  d.observe(skew);
  EXPECT_TRUE(d.chronic(2));
  EXPECT_EQ(d.chronic_straggler(), 2);
  EXPECT_GT(d.slowdown(2), 2.0);
  const int32_t helper = d.least_loaded(2);
  EXPECT_GE(helper, 0);
  EXPECT_NE(helper, 2);

  d.resize(3);  // topology change: history restarts cold
  EXPECT_EQ(d.observations(), 0);
  EXPECT_EQ(d.chronic_straggler(), -1);
  EXPECT_THROW(d.observe(even), std::invalid_argument);  // 4 entries into 3 ranks
}

TEST(StragglerDetector, OneNoisyStepNeverTriggersMitigation) {
  // A scheduler preemption shows up as one huge sample, not a sustained
  // slowdown. Winsorizing at clip_ratio x the raw step median bounds how long
  // that one sample can keep the EWMA suspect, so it never reaches chronic.
  rt::StragglerDetector d(4, armed_straggler());
  const std::vector<double> even = {1.0, 1.0, 1.0, 1.0};
  const std::vector<double> spike = {1.0, 100.0, 1.0, 1.0};
  d.observe(even);
  d.observe(spike);  // clipped to 6x median: EWMA 0.6 + 0.4*6 = 3.0
  EXPECT_TRUE(d.suspect(1));
  EXPECT_NEAR(d.ewma(1), 3.0, 1e-12);    // the raw 100x never enters the filter
  EXPECT_EQ(d.chronic_straggler(), -1);  // one spike is noise, not a straggler
  d.observe(even);                       // 2.2: still suspect, streak 2 of 3
  EXPECT_EQ(d.chronic_straggler(), -1);
  d.observe(even);  // 1.72: below the line before the streak turns chronic
  EXPECT_FALSE(d.suspect(1));
  EXPECT_EQ(d.chronic_straggler(), -1);
}

// ---- BSP simulator: slow ranks, speculation, conservation -------------------

TEST(BspStraggler, SlowRankStretchesTheSuperstep) {
  rt::BspSimulator bsp(4);
  bsp.set_slow_rank(1, 4.0);
  EXPECT_EQ(bsp.slow_rank(), 1);
  const std::vector<double> sec = {1e-3, 1e-3, 1e-3, 1e-3};
  bsp.compute_step(sec);
  EXPECT_NEAR(bsp.elapsed(), 4e-3, 1e-12);
  EXPECT_EQ(bsp.slow_steps(), 1);
  EXPECT_NEAR(bsp.phases().total(), bsp.elapsed(), 1e-12);
}

TEST(BspStraggler, SpeculationFirstFinisherWinsAndConserves) {
  rt::BspSimulator bsp(4);
  bsp.set_straggler(armed_straggler());
  bsp.set_slow_rank(1, 4.0);
  bsp.arm_speculation(/*victim=*/1, /*helper=*/3);
  const std::vector<double> sec = {1e-3, 1e-3, 1e-3, 1e-3};
  bsp.compute_step(sec);
  // Victim would take 4 ms; the helper finishes its own 1 ms then re-runs the
  // victim's shard at the nominal 1 ms — the copy wins at 2 ms total.
  EXPECT_NEAR(bsp.elapsed(), 2e-3, 1e-12);
  EXPECT_NEAR(bsp.phases().speculation, 1e-3, 1e-12);
  EXPECT_NEAR(bsp.phases().compute, 1e-3, 1e-12);
  EXPECT_NEAR(bsp.phases().total(), bsp.elapsed(), 1e-12);
  // One-shot: the next step pays the full slowdown again.
  bsp.compute_step(sec);
  EXPECT_NEAR(bsp.elapsed(), 6e-3, 1e-12);
}

TEST(BspStraggler, RetireRankRemapsBookkeepingWithoutSuspicionCharge) {
  rt::BspSimulator bsp(4);
  bsp.set_straggler(armed_straggler());
  bsp.set_slow_rank(2, 4.0);
  bsp.retire_rank(2);  // draining the victim clears its sticky slow state
  EXPECT_EQ(bsp.nranks(), 3);
  EXPECT_EQ(bsp.slow_rank(), -1);
  EXPECT_EQ(bsp.retirements(), 1);
  EXPECT_EQ(bsp.evictions(), 0);
  EXPECT_DOUBLE_EQ(bsp.phases().recovery, 0.0);  // alive: no suspicion timeout
  bsp.set_slow_rank(2, 4.0);
  bsp.retire_rank(0);  // removing a lower rank shifts the sticky index down
  EXPECT_EQ(bsp.slow_rank(), 1);
  const double before = bsp.elapsed();
  bsp.charge_rebalance(1 << 20);
  EXPECT_GT(bsp.phases().rebalance, 0.0);
  EXPECT_NEAR(bsp.elapsed() - before, bsp.phases().rebalance, 1e-15);
}

TEST(BspStraggler, PhaseSumConservationUnderFaultSweep) {
  // Property: for any seed, with SlowRank + JitterKernel firing and the
  // defense armed, every second the clock advances lands in exactly one
  // accounted phase (fault_stall is a tagged subset of communication).
  for (const uint64_t seed : {1ULL, 7ULL, 31337ULL, 2026ULL, 424242ULL}) {
    rt::FaultInjector inj(seed);
    rt::FaultPolicy slow;
    slow.every = 5;
    inj.set_policy(rt::FaultKind::SlowRank, slow);
    rt::FaultPolicy jit;
    jit.every = 2;
    inj.set_policy(rt::FaultKind::JitterKernel, jit);
    rt::BspSimulator bsp(6);
    bsp.set_fault_injector(&inj);
    bsp.set_straggler(armed_straggler());
    const std::vector<double> sec(6, 1e-4);
    const std::vector<rt::Message> msgs = {{0, 1, 4096}, {2, 3, 8192}, {4, 5, 1024}};
    for (int step = 0; step < 20; ++step) {
      bsp.compute_step(sec);
      bsp.exchange(msgs);
      bsp.compute_step(sec, rt::BspSimulator::Phase::PostProcess);
      bsp.gather(2048);
    }
    EXPECT_NEAR(bsp.phases().total(), bsp.elapsed(), 1e-9 * bsp.elapsed())
        << "phase-sum conservation broke at seed " << seed;
    EXPECT_GT(bsp.slow_steps() + bsp.jitter_events(), 0) << "sweep injected nothing at " << seed;
  }
}

// ---- exchange watchdog ------------------------------------------------------

TEST(Watchdog, TransientHangPaysOneDeadlineNotTheFullStall) {
  rt::FaultInjector inj(5);
  rt::FaultPolicy hang;
  hang.every = 1;
  hang.max_injections = 1;
  inj.set_site_policy(rt::FaultKind::HangExchange, "exchange", hang);
  rt::BspSimulator bsp(4);
  bsp.set_fault_injector(&inj);
  bsp.set_straggler(armed_straggler());
  const std::vector<rt::Message> msgs = {{0, 1, 4096}};
  bsp.exchange(msgs);
  EXPECT_EQ(bsp.hang_events(), 1);
  EXPECT_EQ(bsp.watchdog_timeouts(), 1);  // one deadline, clean retry, done
  EXPECT_LT(bsp.hang_suspect(), 0);       // Suspect is not Dead: no escalation
  EXPECT_LT(bsp.elapsed(), inj.hang_seconds());  // bounded far below 10 ms
}

TEST(Watchdog, UnwatchedHangPaysTheFullStall) {
  rt::FaultInjector inj(5);
  rt::FaultPolicy hang;
  hang.every = 1;
  hang.max_injections = 1;
  inj.set_site_policy(rt::FaultKind::HangExchange, "exchange", hang);
  rt::BspSimulator bsp(4);
  bsp.set_fault_injector(&inj);  // straggler defense off: no watchdog
  const std::vector<rt::Message> msgs = {{0, 1, 4096}};
  bsp.exchange(msgs);
  EXPECT_GE(bsp.elapsed(), inj.hang_seconds());
  EXPECT_GE(bsp.phases().fault_stall, inj.hang_seconds());
}

TEST(Watchdog, PersistentHangEscalatesToDeadAfterMissThreshold) {
  rt::FaultInjector inj(5);
  rt::FaultPolicy hang;
  hang.every = 1;
  hang.max_injections = 1;
  inj.set_site_policy(rt::FaultKind::HangExchange, "exchange", hang);
  rt::FaultPolicy again;
  again.every = 1;  // the retry never goes through: the hang is persistent
  inj.set_site_policy(rt::FaultKind::HangExchange, "exchange-retry", again);
  rt::BspSimulator bsp(4);
  bsp.set_fault_injector(&inj);
  bsp.set_straggler(armed_straggler());
  const std::vector<rt::Message> msgs = {{0, 1, 4096}};
  bsp.exchange(msgs);
  EXPECT_EQ(bsp.watchdog_timeouts(), 3);  // heartbeat miss_threshold deadlines
  EXPECT_GE(bsp.hang_suspect(), 0);
  EXPECT_LT(bsp.hang_suspect(), 4);
  EXPECT_LT(bsp.elapsed(), inj.hang_seconds());  // still bounded
  bsp.clear_hang_suspect();
  EXPECT_LT(bsp.hang_suspect(), 0);
}

// ---- options validation -----------------------------------------------------

TEST(ResilienceOptionsValidation, RejectsNonsenseWithClearErrors) {
  const auto expect_rejected = [](auto mutate, const char* what) {
    ResilienceOptions opt;
    mutate(opt);
    EXPECT_THROW(validate_resilience_options(opt), std::invalid_argument) << what;
  };
  expect_rejected([](ResilienceOptions& o) { o.max_retries = -1; }, "negative retries");
  expect_rejected([](ResilienceOptions& o) { o.max_rollbacks = -2; }, "negative rollbacks");
  expect_rejected([](ResilienceOptions& o) { o.backoff_base_s = -1e-6; }, "negative backoff");
  expect_rejected([](ResilienceOptions& o) { o.heartbeat.period_s = 0.0; }, "zero heartbeat");
  expect_rejected([](ResilienceOptions& o) { o.heartbeat.miss_threshold = 0; }, "zero threshold");
  expect_rejected([](ResilienceOptions& o) { o.heartbeat.suspect_after = 9; },
                  "suspect_after above miss_threshold");
  expect_rejected([](ResilienceOptions& o) { o.sdc.block_cells = 0; }, "zero block");
  expect_rejected([](ResilienceOptions& o) { o.sdc.sentinel_cells = -1; }, "negative sentinels");
  expect_rejected([](ResilienceOptions& o) { o.straggler.ewma_alpha = 0.0; }, "zero alpha");
  expect_rejected([](ResilienceOptions& o) { o.straggler.ewma_alpha = 1.5; }, "alpha above 1");
  expect_rejected([](ResilienceOptions& o) { o.straggler.slow_ratio = 1.0; }, "ratio at 1");
  expect_rejected([](ResilienceOptions& o) { o.straggler.clip_ratio = 1.5; },
                  "clip below the suspect line");
  expect_rejected([](ResilienceOptions& o) { o.straggler.chronic_steps = 0; }, "zero chronic");
  expect_rejected([](ResilienceOptions& o) { o.straggler.deadline_factor = 1.0; },
                  "deadline factor at 1");
  expect_rejected([](ResilienceOptions& o) { o.straggler.max_rebalances = 0; }, "zero rebalances");

  // Defaults are valid, and the message names the offending field.
  EXPECT_NO_THROW(validate_resilience_options(ResilienceOptions{}));
  try {
    ResilienceOptions opt;
    opt.straggler.deadline_factor = 0.5;
    validate_resilience_options(opt);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("deadline_factor"), std::string::npos);
  }
}

// Each field below is legal on its own; the *pair* is contradictory. These are
// the combos chaos campaigns kept producing by accident: a defense that looks
// armed but whose mitigations can never engage.
TEST(ResilienceOptionsValidation, RejectsContradictoryCombosAtConstruction) {
  // An empty Suspect window under an enabled straggler defense: with
  // suspect_after == miss_threshold every late rank jumps straight to the
  // Dead verdict, so the watchdog retries / speculation / rebalance the
  // options asked for can never run. The message must say which knob to move.
  {
    ResilienceOptions opt;
    opt.straggler.enabled = true;
    opt.heartbeat.suspect_after = opt.heartbeat.miss_threshold;
    try {
      validate_resilience_options(opt);
      FAIL() << "empty Suspect window accepted";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("Suspect window"), std::string::npos) << msg;
      EXPECT_NE(msg.find("suspect_after"), std::string::npos) << msg;
    }
  }
  // A rollback budget with checkpointing disabled: interval <= 0 never takes
  // a snapshot, so there is nothing the budget could ever roll back to.
  {
    ResilienceOptions opt;
    opt.checkpoint.interval = 0;  // default max_rollbacks stays > 0
    try {
      validate_resilience_options(opt);
      FAIL() << "rollback budget without checkpoints accepted";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("checkpoint.interval"), std::string::npos) << msg;
      EXPECT_NE(msg.find("max_rollbacks"), std::string::npos) << msg;
    }
  }
  // The resolutions the messages point at are both accepted.
  {
    ResilienceOptions opt;  // straggler disabled: detector precedence is moot
    opt.heartbeat.suspect_after = opt.heartbeat.miss_threshold;
    EXPECT_NO_THROW(validate_resilience_options(opt));
  }
  {
    ResilienceOptions opt;  // explicitly no rollback defense at all
    opt.checkpoint.interval = 0;
    opt.max_rollbacks = 0;
    EXPECT_NO_THROW(validate_resilience_options(opt));
  }
}

TEST(ResilienceOptionsValidation, SolversRejectBadOptionsAtEnable) {
  const BteScenario s = tiny_scenario();
  auto phys = std::make_shared<const BtePhysics>(s.nbands, s.ndirs);
  ResilienceOptions bad;
  bad.straggler.slow_ratio = 0.5;
  CellPartitionedSolver cell(s, phys, 4);
  EXPECT_THROW(cell.enable_resilience(bad), std::invalid_argument);
  BandPartitionedSolver band(s, phys, 4);
  EXPECT_THROW(band.enable_resilience(bad), std::invalid_argument);
  MultiGpuSolver multi(s, phys, 2);
  EXPECT_THROW(multi.enable_resilience(bad), std::invalid_argument);
}

// ---- solver end-to-end ------------------------------------------------------

TEST(StragglerSolver, TwoXSlowRankIsNeverEvicted) {
  // False-positive regression: a rank at exactly the suspect boundary (2x with
  // slow_ratio 2.0) may be mitigated but must never be treated as dead.
  const BteScenario s = tiny_scenario();
  auto phys = std::make_shared<const BtePhysics>(s.nbands, s.ndirs);
  const int nsteps = 16;
  DirectSolver serial(s, phys);
  serial.run(nsteps);

  CellPartitionedSolver part(s, phys, 4);
  ResilienceOptions opt;
  opt.straggler = armed_straggler();
  part.enable_resilience(opt);
  part.inject_slow_rank(1, 2.0);
  part.run(nsteps);
  EXPECT_EQ(part.resilience_stats().evictions, 0);
  EXPECT_EQ(part.resilience_stats().hang_escalations, 0);
  EXPECT_TRUE(bitwise_equal(part.gather_temperature(), serial.temperature()));
  EXPECT_TRUE(bitwise_equal(part.gather_intensity(), serial.intensity()));
}

TEST(StragglerSolver, CellMitigationBeatsUnmitigatedAndStaysExact) {
  const BteScenario s = tiny_scenario();
  auto phys = std::make_shared<const BtePhysics>(s.nbands, s.ndirs);
  const int nsteps = 24;
  DirectSolver serial(s, phys);
  serial.run(nsteps);

  // The rebalance moves the slow rank's cells away, so fewer supersteps are
  // stretched by it: exact counts, where two millisecond wall totals flip on
  // a loaded host. Whether the mitigation pays in time is bench_straggler's
  // min-of-3 interleaved claim.
  int64_t slow_off = 0, slow_both = 0;
  for (const bool armed : {false, true}) {
    CellPartitionedSolver part(s, phys, 8);
    ResilienceOptions opt;
    opt.straggler.enabled = armed;
    part.enable_resilience(opt);
    part.inject_slow_rank(2, 4.0);
    part.run(nsteps);
    (armed ? slow_both : slow_off) = part.resilience_stats().slow_steps;
    EXPECT_TRUE(bitwise_equal(part.gather_temperature(), serial.temperature()));
    EXPECT_TRUE(bitwise_equal(part.gather_intensity(), serial.intensity()));
    EXPECT_EQ(part.resilience_stats().evictions, 0);
    if (armed) {
      EXPECT_GE(part.resilience_stats().rebalances, 1);
      EXPECT_GT(part.resilience_stats().rebalance_seconds, 0.0);
      for (const int32_t owners : part.owner_counts()) EXPECT_EQ(owners, 1);
    }
  }
  EXPECT_EQ(slow_off, nsteps);
  EXPECT_LT(slow_both, slow_off);
}

TEST(StragglerSolver, BandWeightedDerateKeepsEveryRankAndStaysExact) {
  const BteScenario s = tiny_scenario();
  auto phys = std::make_shared<const BtePhysics>(s.nbands, s.ndirs);
  const int nsteps = 16;
  DirectSolver serial(s, phys);
  serial.run(nsteps);

  BandPartitionedSolver band(s, phys, 4);
  ResilienceOptions opt;
  opt.straggler = armed_straggler();
  opt.straggler.speculation = false;  // isolate the weighted-derate path
  band.enable_resilience(opt);
  band.inject_slow_rank(1, 4.0);
  band.run(nsteps);
  // The derate keeps the victim in the fleet on a smaller band share.
  EXPECT_EQ(band.nparts(), 4);
  EXPECT_GE(band.resilience_stats().rebalances, 1);
  EXPECT_EQ(band.resilience_stats().evictions, 0);
  for (const int32_t owners : band.owner_counts()) EXPECT_EQ(owners, 1);
  EXPECT_TRUE(bitwise_equal(band.temperature(), serial.temperature()));
  EXPECT_TRUE(bitwise_equal(band.gather_intensity(), serial.intensity()));
}

TEST(StragglerSolver, SpeculationOnlyModeChargesItsOwnPhase) {
  const BteScenario s = tiny_scenario();
  auto phys = std::make_shared<const BtePhysics>(s.nbands, s.ndirs);
  const int nsteps = 16;
  DirectSolver serial(s, phys);
  serial.run(nsteps);

  CellPartitionedSolver part(s, phys, 8);
  ResilienceOptions opt;
  opt.straggler = armed_straggler();
  opt.straggler.rebalance = false;  // isolate speculative re-execution
  part.enable_resilience(opt);
  part.inject_slow_rank(2, 4.0);
  part.run(nsteps);
  EXPECT_GE(part.resilience_stats().speculations, 1);
  EXPECT_GT(part.phases().speculation, 0.0);
  EXPECT_DOUBLE_EQ(part.phases().rebalance, 0.0);
  EXPECT_EQ(part.resilience_stats().evictions, 0);
  EXPECT_TRUE(bitwise_equal(part.gather_temperature(), serial.temperature()));
}

TEST(StragglerSolver, HangEscalationEvictsThroughTheShrinkPath) {
  const BteScenario s = tiny_scenario();
  auto phys = std::make_shared<const BtePhysics>(s.nbands, s.ndirs);
  const int nsteps = 16;
  DirectSolver serial(s, phys);
  serial.run(nsteps);

  rt::FaultInjector inj(5);
  rt::FaultPolicy hang;
  hang.every = 1;
  hang.first_event = 3;
  hang.max_injections = 1;
  inj.set_site_policy(rt::FaultKind::HangExchange, "exchange", hang);
  rt::FaultPolicy again;
  again.every = 1;
  inj.set_site_policy(rt::FaultKind::HangExchange, "exchange-retry", again);

  CellPartitionedSolver part(s, phys, 4);
  ResilienceOptions opt;
  opt.injector = &inj;
  opt.checkpoint.interval = 4;
  opt.straggler = armed_straggler();
  part.enable_resilience(opt);
  part.run(nsteps);
  EXPECT_GE(part.resilience_stats().hang_escalations, 1);
  EXPECT_GE(part.resilience_stats().evictions, 1);
  EXPECT_EQ(part.nparts(), 3);
  EXPECT_TRUE(bitwise_equal(part.gather_temperature(), serial.temperature()));
  EXPECT_TRUE(bitwise_equal(part.gather_intensity(), serial.intensity()));
}

TEST(StragglerSolver, JitterCountsEventsWithoutTouchingNumerics) {
  const BteScenario s = tiny_scenario();
  auto phys = std::make_shared<const BtePhysics>(s.nbands, s.ndirs);
  const int nsteps = 16;
  DirectSolver serial(s, phys);
  serial.run(nsteps);

  rt::FaultInjector inj(7);
  rt::FaultPolicy jit;
  jit.every = 3;
  inj.set_policy(rt::FaultKind::JitterKernel, jit);
  BandPartitionedSolver band(s, phys, 4);
  ResilienceOptions opt;
  opt.injector = &inj;
  opt.straggler = armed_straggler();
  band.enable_resilience(opt);
  band.run(nsteps);
  EXPECT_GT(band.resilience_stats().jitter_events, 0);
  EXPECT_TRUE(bitwise_equal(band.temperature(), serial.temperature()));
  EXPECT_TRUE(bitwise_equal(band.gather_intensity(), serial.intensity()));
}

TEST(StragglerSolver, FaultFreeDefenseChargesNothing) {
  const BteScenario s = tiny_scenario();
  auto phys = std::make_shared<const BtePhysics>(s.nbands, s.ndirs);
  const int nsteps = 12;
  DirectSolver serial(s, phys);
  serial.run(nsteps);

  CellPartitionedSolver part(s, phys, 4);
  ResilienceOptions opt;
  opt.straggler = armed_straggler();
  // Compute telemetry is measured wall time, so OS jitter under a loaded test
  // host can legitimately look like a straggler. The invariant under test is
  // that an armed-but-idle defense charges nothing, so put the trip point out
  // of reach of scheduler noise.
  opt.straggler.slow_ratio = 1e6;
  opt.straggler.clip_ratio = 2e6;
  part.enable_resilience(opt);
  part.run(nsteps);
  EXPECT_DOUBLE_EQ(part.phases().speculation, 0.0);
  EXPECT_DOUBLE_EQ(part.phases().rebalance, 0.0);
  EXPECT_EQ(part.resilience_stats().speculations, 0);
  EXPECT_EQ(part.resilience_stats().rebalances, 0);
  EXPECT_EQ(part.resilience_stats().evictions, 0);
  EXPECT_TRUE(bitwise_equal(part.gather_temperature(), serial.temperature()));
}

// ---- multi-GPU --------------------------------------------------------------

TEST(StragglerMultiGpu, SimGpuSlowAndJitterCounters) {
  rt::SimGpu gpu(rt::GpuSpec::a6000());
  EXPECT_THROW(gpu.set_slow(0.5), std::invalid_argument);
  EXPECT_FALSE(gpu.is_slow());
  rt::KernelStats ks;
  ks.threads = 1024;
  ks.flops_per_thread = 32;
  ks.dram_bytes_per_thread = 16;
  gpu.launch("k", ks, {});
  const double base = gpu.counters().kernel_seconds;
  gpu.set_slow(3.0);
  EXPECT_TRUE(gpu.is_slow());
  gpu.launch("k", ks, {});
  EXPECT_NEAR(gpu.counters().kernel_seconds, base * 4.0, base * 1e-9);
  EXPECT_NEAR(gpu.counters().straggler_seconds, base * 2.0, base * 1e-9);
  EXPECT_EQ(gpu.counters().jitter_events, 0);
}

TEST(StragglerMultiGpu, SlowDeviceIsDeratedBitExactly) {
  const BteScenario s = tiny_scenario();
  auto phys = std::make_shared<const BtePhysics>(s.nbands, s.ndirs);
  const int nsteps = 16;
  DirectSolver serial(s, phys);
  serial.run(nsteps);

  MultiGpuSolver multi(s, phys, 4);
  ResilienceOptions opt;
  opt.straggler = armed_straggler();
  multi.enable_resilience(opt);
  multi.inject_slow_device(1, 4.0);
  multi.run(nsteps);
  EXPECT_GE(multi.resilience_stats().rebalances, 1);
  EXPECT_GT(multi.phases().rebalance, 0.0);
  EXPECT_EQ(multi.resilience_stats().evictions, 0);
  EXPECT_EQ(multi.nparts(), 4);  // derated, not evicted
  for (const int32_t owners : multi.owner_counts()) EXPECT_EQ(owners, 1);
  // The victim device keeps its slow hardware state across the rebalance.
  EXPECT_TRUE(multi.device(1).is_slow());
  EXPECT_TRUE(bitwise_equal(multi.temperature(), serial.temperature()));
  EXPECT_TRUE(bitwise_equal(multi.gather_intensity(), serial.intensity()));
}

TEST(StragglerMultiGpu, InjectedSlowRankFaultSticksToOneDevice) {
  const BteScenario s = tiny_scenario();
  auto phys = std::make_shared<const BtePhysics>(s.nbands, s.ndirs);
  rt::FaultInjector inj(11);
  rt::FaultPolicy slow;
  slow.every = 1;
  slow.first_event = 2;
  slow.max_injections = 1;
  inj.set_site_policy(rt::FaultKind::SlowRank, "launch", slow);
  MultiGpuSolver multi(s, phys, 2);
  ResilienceOptions opt;
  opt.injector = &inj;
  multi.enable_resilience(opt);
  multi.run(8);
  int slow_devices = 0;
  for (int d = 0; d < multi.nparts(); ++d)
    if (multi.device(d).is_slow()) slow_devices += 1;
  EXPECT_EQ(slow_devices, 1);  // sticky: exactly the one consulted launch
  DirectSolver serial(s, phys);
  serial.run(8);
  EXPECT_TRUE(bitwise_equal(multi.temperature(), serial.temperature()));
}
