// Chaos campaign engine: composed multi-class fault schedules, the recovery
// oracle, delta-debugged minimal repros, and the cross-fault hardening of the
// checkpoint-restore path.
//
// The schedules here compose fault classes the per-class suites exercise in
// isolation (resilience_test: transient; elastic_test: permanent; sdc_test:
// silent; straggler_test: performance) — the cross-class interactions are the
// point: a bit flip striking the image read of an eviction restore, a hang
// inside a rollback, corruption after the last checkpoint of a shrunk fleet.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "bte/chaos_campaign.hpp"
#include "bte/partitioned_solver.hpp"
#include "bte/resilience.hpp"
#include "runtime/chaos.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/fault.hpp"
#include "runtime/metrics.hpp"

using namespace finch;
using namespace finch::bte;

namespace {

BteScenario tiny_scenario() {
  BteScenario s;
  s.nx = 12;
  s.ny = 10;
  s.lx = s.ly = 50e-6;
  s.hot_w = 20e-6;
  s.ndirs = 8;
  s.nbands = 6;
  s.dt = 1e-12;
  return s;
}

std::shared_ptr<const BtePhysics> tiny_physics() {
  const BteScenario s = tiny_scenario();
  return std::make_shared<const BtePhysics>(s.nbands, s.ndirs);
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

}  // namespace

// ---- schedule model + JSON artifact -----------------------------------------

TEST(ChaosSchedule, GeneratedSchedulesRoundTripThroughJson) {
  const rt::ChaosEngine engine(1234);
  for (const char* solver : {"cell", "band", "mgpu"}) {
    for (int64_t index = 0; index < 8; ++index) {
      const rt::ChaosSchedule s = engine.generate(solver, rt::ChaosSpec{}, index);
      const rt::ChaosSchedule r = rt::schedule_from_json(rt::schedule_to_json(s));
      EXPECT_EQ(r.seed, s.seed);
      EXPECT_EQ(r.index, s.index);
      EXPECT_EQ(r.solver, s.solver);
      EXPECT_EQ(r.nparts, s.nparts);
      EXPECT_EQ(r.nsteps, s.nsteps);
      ASSERT_EQ(r.faults.size(), s.faults.size());
      for (size_t i = 0; i < s.faults.size(); ++i) {
        EXPECT_EQ(r.faults[i].kind, s.faults[i].kind);
        EXPECT_EQ(r.faults[i].site, s.faults[i].site);
        EXPECT_EQ(r.faults[i].first_event, s.faults[i].first_event);
        EXPECT_EQ(r.faults[i].stride, s.faults[i].stride);
        EXPECT_EQ(r.faults[i].count, s.faults[i].count);
      }
    }
  }
}

TEST(ChaosSchedule, GenerationIsDeterministicAndMixesClasses) {
  const rt::ChaosEngine engine(777);
  rt::ChaosSpec spec;
  for (const char* solver : {"cell", "band", "mgpu"}) {
    for (int64_t index = 0; index < 16; ++index) {
      const rt::ChaosSchedule a = engine.generate(solver, spec, index);
      const rt::ChaosSchedule b = engine.generate(solver, spec, index);
      EXPECT_EQ(rt::schedule_to_json(a), rt::schedule_to_json(b));
      EXPECT_GE(a.num_classes(), spec.min_classes) << solver << "[" << index << "]";
      EXPECT_GE(static_cast<int>(a.faults.size()), spec.min_faults);
      // Survivor budget: never more evictions than the fleet can absorb.
      int64_t permanent_fires = 0;
      for (const rt::ChaosFault& f : a.faults)
        if (rt::fault_is_permanent(f.kind)) permanent_fires += f.count;
      EXPECT_LE(permanent_fires, spec.nparts - 2);
    }
  }
}

TEST(ChaosSchedule, MalformedJsonIsRejectedLoudly) {
  const rt::ChaosEngine engine(1);
  const std::string good = rt::schedule_to_json(engine.generate("cell", rt::ChaosSpec{}, 0));
  EXPECT_THROW(rt::schedule_from_json(good.substr(0, good.size() / 2)), std::invalid_argument);
  EXPECT_THROW(rt::schedule_from_json("{\"seed\": 1, \"bogus\": 2}"), std::invalid_argument);
  EXPECT_THROW(rt::schedule_from_json("{\"solver\": \"tpu\"}"), std::invalid_argument);
  // Omitted keys fall back to the (valid) schedule defaults — "{}" is the
  // empty-but-well-formed artifact, not an error.
  EXPECT_EQ(rt::schedule_from_json("{}").solver, "cell");
  EXPECT_THROW(rt::schedule_from_json(
                   "{\"solver\": \"cell\", \"nparts\": 0, \"nsteps\": 4, \"faults\": []}"),
               std::invalid_argument);
  EXPECT_THROW(
      rt::schedule_from_json("{\"solver\": \"cell\", \"nparts\": 4, \"nsteps\": 4, \"faults\": "
                             "[{\"kind\": \"not-a-fault\", \"site\": \"x\"}]}"),
      std::invalid_argument);
  EXPECT_THROW(
      rt::schedule_from_json("{\"solver\": \"cell\", \"nparts\": 4, \"nsteps\": 4, \"faults\": "
                             "[{\"kind\": \"slow-rank\", \"site\": \"x\", \"first_event\": -3}]}"),
      std::invalid_argument);
  EXPECT_THROW(rt::schedule_from_json(good + "trailing"), std::invalid_argument);
}

TEST(ChaosSchedule, FaultKindNamesRoundTrip) {
  for (int k = 0; k < rt::kNumFaultKinds; ++k) {
    const auto kind = static_cast<rt::FaultKind>(k);
    EXPECT_EQ(rt::fault_kind_from_name(rt::fault_kind_name(kind)), kind);
  }
  EXPECT_THROW(rt::fault_kind_from_name("quantum-decoherence"), std::invalid_argument);
}

TEST(ChaosSchedule, SiteMenuCoversAllFourClassesPerSolver) {
  for (const char* solver : {"cell", "band", "mgpu"}) {
    bool transient = false, permanent = false, silent = false, perf = false;
    for (const rt::ChaosMenuEntry& e : rt::ChaosEngine::site_menu(solver)) {
      if (rt::fault_is_permanent(e.kind))
        permanent = true;
      else if (rt::fault_is_silent(e.kind))
        silent = true;
      else if (rt::fault_is_performance(e.kind))
        perf = true;
      else
        transient = true;
    }
    EXPECT_TRUE(transient && permanent && silent && perf) << solver;
  }
  EXPECT_THROW(rt::ChaosEngine::site_menu("tpu"), std::invalid_argument);
}

// ---- multi-class arming on the injector -------------------------------------

TEST(ScheduledFaults, FireExactlyAtArmedIndicesAcrossClasses) {
  rt::FaultInjector inj(9);
  // Four classes armed concurrently on one injector — the composition the
  // one-policy-per-(kind, site) interface cannot express.
  inj.schedule_fault(rt::FaultKind::DroppedMessage, "wire", 2);
  inj.schedule_fault(rt::FaultKind::DroppedMessage, "wire", 5);
  inj.schedule_fault(rt::FaultKind::BitFlipMessage, "wire", 3);
  inj.schedule_fault(rt::FaultKind::RankFailure, "node", 1);
  inj.schedule_fault(rt::FaultKind::SlowRank, "cpu", 0);
  EXPECT_EQ(inj.scheduled_pending(), 5);

  std::vector<int> dropped_fires, flip_fires;
  for (int i = 0; i < 8; ++i) {
    if (inj.should_fault(rt::FaultKind::DroppedMessage, "wire")) dropped_fires.push_back(i);
    if (inj.should_fault(rt::FaultKind::BitFlipMessage, "wire")) flip_fires.push_back(i);
  }
  EXPECT_EQ(dropped_fires, (std::vector<int>{2, 5}));
  EXPECT_EQ(flip_fires, (std::vector<int>{3}));
  EXPECT_FALSE(inj.should_fault(rt::FaultKind::RankFailure, "node"));  // index 0
  EXPECT_TRUE(inj.should_fault(rt::FaultKind::RankFailure, "node"));   // index 1
  EXPECT_TRUE(inj.should_fault(rt::FaultKind::SlowRank, "cpu"));       // index 0
  EXPECT_EQ(inj.scheduled_pending(), 0);

  // Scheduled fires land in the same accounting stream as policy fires.
  EXPECT_EQ(inj.stats().total_injected(), 5);
  EXPECT_EQ(inj.events().size(), 5u);

  EXPECT_THROW(inj.schedule_fault(rt::FaultKind::SlowRank, "cpu", -1), std::invalid_argument);
}

TEST(ScheduledFaults, ScheduleSurvivesResetCountersLikeAPolicy) {
  rt::FaultInjector inj(9);
  inj.schedule_fault(rt::FaultKind::StuckRank, "site", 1);
  EXPECT_FALSE(inj.should_fault(rt::FaultKind::StuckRank, "site"));
  EXPECT_TRUE(inj.should_fault(rt::FaultKind::StuckRank, "site"));
  inj.reset_counters();
  EXPECT_EQ(inj.scheduled_pending(), 1);  // armed schedule is configuration
  EXPECT_FALSE(inj.should_fault(rt::FaultKind::StuckRank, "site"));
  EXPECT_TRUE(inj.should_fault(rt::FaultKind::StuckRank, "site"));
}

TEST(ScheduledFaults, FlipRawBitFlipsExactlyOneBitDeterministically) {
  std::vector<std::byte> image(256);
  for (size_t i = 0; i < image.size(); ++i) image[i] = static_cast<std::byte>(i);
  std::vector<std::byte> copy = image;

  rt::FaultInjector a(42), b(42);
  const size_t ia = a.flip_raw_bit(image, rt::FaultKind::BitFlipMessage, "ckpt-restore");
  const size_t ib = b.flip_raw_bit(copy, rt::FaultKind::BitFlipMessage, "ckpt-restore");
  EXPECT_EQ(ia, ib);
  int bits_changed = 0;
  for (size_t i = 0; i < image.size(); ++i) {
    const auto diff = std::to_integer<unsigned>(image[i]) ^ std::to_integer<unsigned>(copy[i]);
    EXPECT_EQ(diff, 0u);
    unsigned orig = static_cast<unsigned>(i) & 0xffu;
    unsigned now = std::to_integer<unsigned>(image[i]);
    unsigned x = orig ^ now;
    while (x != 0) {
      bits_changed += static_cast<int>(x & 1u);
      x >>= 1;
    }
  }
  EXPECT_EQ(bits_changed, 1);

  std::vector<std::byte> empty;
  EXPECT_EQ(a.flip_raw_bit(empty, rt::FaultKind::BitFlipMessage, "x"), 0u);  // no write
}

// ---- checkpoint generations -------------------------------------------------

TEST(CheckpointGenerations, SaveRotatesThePreviousImage) {
  rt::CheckpointStore store;
  EXPECT_EQ(store.generations(), 0);
  EXPECT_THROW(store.image_copy(0), rt::CheckpointError);

  rt::Snapshot s1;
  s1.step = 4;
  std::vector<double> f = {1.0, 2.0, 3.0};
  s1.add("f", f);
  store.save(s1);
  EXPECT_EQ(store.generations(), 1);

  rt::Snapshot s2 = s1;
  s2.step = 8;
  s2.fields[0].second[0] = 9.0;
  store.save(s2);
  EXPECT_EQ(store.generations(), 2);
  EXPECT_EQ(store.load(0).step, 8);
  EXPECT_EQ(store.load(1).step, 4);
  EXPECT_EQ(store.load(1).field("f")[0], 1.0);
  EXPECT_THROW(store.load(2), rt::CheckpointError);
}

// ---- hardened restore: faults *inside* recovery -----------------------------

namespace {

// A cell solver armed with the full defense and one scheduled mid-run
// corruption that forces a rollback at a known point; `mutate` arms the
// additional restore-path faults under test.
template <typename Mutate>
CellPartitionedSolver run_cell_with_forced_rollback(rt::FaultInjector& inj, Mutate mutate,
                                                    int nsteps = 14) {
  // One corrupted halo payload shortly after the second checkpoint (interval
  // 4 -> checkpoints at steps 4, 8, ...; ~6 halo messages per step put step
  // 9's exchange around consultation index 50). The NaN lands in a ghost
  // region, per-step validation catches it, and the step rolls back to the
  // step-8 checkpoint — where `mutate`'s restore-path faults lie in wait.
  inj.schedule_fault(rt::FaultKind::TransferCorruption, "halo", 50);
  mutate(inj);
  const BteScenario s = tiny_scenario();
  CellPartitionedSolver part(s, tiny_physics(), 4);
  ResilienceOptions opt;
  opt.injector = &inj;
  opt.checkpoint.interval = 4;
  opt.sdc.enabled = true;
  part.enable_resilience(opt);
  part.run(nsteps);
  return part;
}

std::vector<double> fault_free_cell_reference(int nsteps = 14) {
  const BteScenario s = tiny_scenario();
  CellPartitionedSolver part(s, tiny_physics(), 4);
  ResilienceOptions opt;
  opt.checkpoint.interval = 4;
  opt.sdc.enabled = true;
  part.enable_resilience(opt);
  part.run(nsteps);
  return part.gather_temperature();
}

}  // namespace

TEST(GuardedRestore, RetriesThroughABitFlippedImageRead) {
  rt::FaultInjector inj(31);
  CellPartitionedSolver part = run_cell_with_forced_rollback(inj, [](rt::FaultInjector& i) {
    // First read of the rollback's image arrives flipped; the re-read is clean.
    i.schedule_fault(rt::FaultKind::BitFlipMessage, "ckpt-restore", 0);
  });
  EXPECT_GE(part.resilience_stats().rollbacks, 1);
  EXPECT_GE(part.resilience_stats().ckpt_restore_retries, 1);
  EXPECT_EQ(part.resilience_stats().ckpt_generation_fallbacks, 0);
  EXPECT_TRUE(bitwise_equal(part.gather_temperature(), fault_free_cell_reference()));
}

TEST(GuardedRestore, FallsBackAGenerationWhenEveryReadOfTheNewestImageIsCorrupt) {
  rt::FaultInjector inj(31);
  CellPartitionedSolver part = run_cell_with_forced_rollback(inj, [](rt::FaultInjector& i) {
    // All max_retries + 1 = 5 reads of generation 0 arrive flipped; the first
    // read of generation 1 (index 5) is clean.
    for (int k = 0; k < 5; ++k) i.schedule_fault(rt::FaultKind::BitFlipMessage, "ckpt-restore", k);
  });
  EXPECT_GE(part.resilience_stats().ckpt_restore_retries, 5);
  EXPECT_EQ(part.resilience_stats().ckpt_generation_fallbacks, 1);
  // The fallback restores the *older* checkpoint (step 4, not 8), so the
  // replay is longer — and the answer still lands bit-exact.
  EXPECT_GE(part.resilience_stats().replayed_steps, 5);
  EXPECT_TRUE(bitwise_equal(part.gather_temperature(), fault_free_cell_reference()));
}

TEST(GuardedRestore, RidesOutAHangInsideTheRestore) {
  rt::FaultInjector clean_inj(31);
  CellPartitionedSolver clean =
      run_cell_with_forced_rollback(clean_inj, [](rt::FaultInjector&) {});
  rt::FaultInjector inj(31);
  CellPartitionedSolver part = run_cell_with_forced_rollback(inj, [](rt::FaultInjector& i) {
    i.schedule_fault(rt::FaultKind::HangExchange, "ckpt-restore", 0);
  });
  EXPECT_EQ(part.resilience_stats().ckpt_hang_stalls, 1);
  // The stall is charged to recovery on the virtual clock, and bounded.
  EXPECT_GT(part.resilience_stats().recovery_seconds,
            clean.resilience_stats().recovery_seconds);
  EXPECT_TRUE(bitwise_equal(part.gather_temperature(), fault_free_cell_reference()));
}

TEST(GuardedRestore, ExhaustingEveryGenerationSurfacesResilienceError) {
  rt::FaultInjector inj(31);
  // Corrupt every read of both generations: 2 generations x (max_retries + 1)
  // attempts; schedule far more flips than that so no read ever survives.
  for (int k = 0; k < 16; ++k)
    inj.schedule_fault(rt::FaultKind::BitFlipMessage, "ckpt-restore", k);
  EXPECT_THROW(run_cell_with_forced_rollback(inj, [](rt::FaultInjector&) {}), ResilienceError);
}

TEST(GuardedRestore, EvictionRestoreSurvivesACorruptedImageRead) {
  // Cross-class pin: a permanent fault's eviction restore takes a silent
  // strike on its image read — SDC during redistribution.
  const BteScenario s = tiny_scenario();
  rt::FaultInjector inj(77);
  inj.schedule_fault(rt::FaultKind::RankFailure, "cell-rank", 6);
  inj.schedule_fault(rt::FaultKind::BitFlipMessage, "ckpt-restore", 0);
  CellPartitionedSolver part(s, tiny_physics(), 4);
  ResilienceOptions opt;
  opt.injector = &inj;
  opt.checkpoint.interval = 4;
  part.enable_resilience(opt);
  part.run(14);
  EXPECT_EQ(part.resilience_stats().evictions, 1);
  EXPECT_GE(part.resilience_stats().ckpt_restore_retries, 1);

  CellPartitionedSolver ref(s, tiny_physics(), 4);
  ResilienceOptions ropt;
  ropt.checkpoint.interval = 4;
  ref.enable_resilience(ropt);
  ref.run(14);
  EXPECT_TRUE(bitwise_equal(part.gather_temperature(), ref.gather_temperature()));
}

// ---- campaigns + recovery oracle --------------------------------------------

TEST(ChaosCampaign, ComposedSchedulesSurviveOnAllThreeSolvers) {
  const BteScenario s = tiny_scenario();
  ChaosCampaign campaign(s, tiny_physics());
  const rt::ChaosEngine engine(2026);
  rt::ChaosSpec spec;
  spec.nsteps = 12;
  for (const char* solver : {"cell", "band", "mgpu"}) {
    const auto outcomes = campaign.run_campaign(engine, solver, spec, 5);
    ASSERT_EQ(outcomes.size(), 5u);
    for (const ChaosOutcome& o : outcomes) {
      EXPECT_TRUE(o.ok()) << solver << "[" << o.schedule.index << "]: " << o.detail;
      EXPECT_GE(o.schedule.num_classes(), 3);
      EXPECT_GT(o.injected, 0) << solver << "[" << o.schedule.index << "]";
    }
  }
}

// Satellite: the PR-4 phase-sum conservation sweep, extended from single-class
// fault seeds to composed multi-class schedules — every virtual second any
// recovery path charges must land in exactly one phase bin.
TEST(ChaosCampaign, PhaseLedgerConservedUnderComposedSchedulesPropertySweep) {
  const BteScenario s = tiny_scenario();
  ChaosCampaign campaign(s, tiny_physics());
  rt::ChaosSpec spec;
  spec.nsteps = 12;
  for (const uint64_t seed : {11u, 22u, 33u}) {
    const rt::ChaosEngine engine(seed);
    for (const char* solver : {"cell", "band", "mgpu"}) {
      for (int64_t index = 0; index < 2; ++index) {
        const ChaosOutcome o = campaign.run_schedule(engine.generate(solver, spec, index));
        EXPECT_TRUE(o.survived) << solver << " seed " << seed << ": " << o.detail;
        EXPECT_TRUE(o.phases_conserved) << solver << " seed " << seed << ": " << o.detail;
        EXPECT_TRUE(o.bit_exact) << solver << " seed " << seed << ": " << o.detail;
        EXPECT_TRUE(o.injection_accounted) << solver << " seed " << seed;
      }
    }
  }
}

TEST(ChaosCampaign, ReplayIsDeterministic) {
  const BteScenario s = tiny_scenario();
  ChaosCampaign campaign(s, tiny_physics());
  const rt::ChaosEngine engine(5);
  rt::ChaosSpec spec;
  spec.nsteps = 12;
  const rt::ChaosSchedule sched = engine.generate("band", spec, 3);
  const ChaosOutcome a = campaign.run_schedule(sched);
  const ChaosOutcome b = campaign.run_schedule(sched);
  EXPECT_EQ(a.ok(), b.ok());
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.stats.retries, b.stats.retries);
  EXPECT_EQ(a.stats.rollbacks, b.stats.rollbacks);
  EXPECT_EQ(a.stats.evictions, b.stats.evictions);
  EXPECT_EQ(a.stats.replayed_steps, b.stats.replayed_steps);
}

TEST(ChaosCampaign, ChaosMetricsArePublished) {
  auto& mx = rt::MetricsRegistry::global();
  const double schedules_before = mx.value("chaos.schedules");
  const BteScenario s = tiny_scenario();
  ChaosCampaign campaign(s, tiny_physics());
  const rt::ChaosEngine engine(8);
  rt::ChaosSpec spec;
  spec.nsteps = 12;
  campaign.run_campaign(engine, "cell", spec, 2);
  EXPECT_EQ(mx.value("chaos.schedules"), schedules_before + 2);
  EXPECT_EQ(mx.gauge("chaos.survival_rate").value(), 1.0);
}

// ---- shrinker ---------------------------------------------------------------

TEST(ChaosShrinker, ProducesAMinimalReplayableRepro) {
  const BteScenario s = tiny_scenario();
  ChaosDefense fragile;  // no rollback budget: detected corruption is fatal
  fragile.max_rollbacks = 0;
  fragile.sdc = false;
  fragile.straggler = false;
  ChaosCampaign brittle(s, tiny_physics(), fragile);

  rt::ChaosSchedule dense;
  dense.seed = 606;
  dense.index = 0;
  dense.solver = "cell";
  dense.nparts = 4;
  dense.nsteps = 12;
  dense.faults = {
      {rt::FaultKind::DroppedMessage, "halo", 1, 2, 3},
      {rt::FaultKind::SlowRank, "compute", 4, 1, 2},
      {rt::FaultKind::JitterKernel, "compute", 8, 3, 3},
      {rt::FaultKind::StuckRank, "exchange", 5, 2, 2},
      {rt::FaultKind::TransferCorruption, "halo", 2, 3, 6},
      {rt::FaultKind::DroppedMessage, "exchange", 9, 1, 3},
  };
  ASSERT_FALSE(brittle.run_schedule(dense).ok());

  const rt::ChaosSchedule min = brittle.shrink(dense);
  EXPECT_LE(min.faults.size(), 5u);
  EXPECT_LT(min.total_fires(), dense.total_fires());
  // The irreducible core is the undetected-corruption class.
  ASSERT_EQ(min.faults.size(), 1u);
  EXPECT_EQ(min.faults[0].kind, rt::FaultKind::TransferCorruption);
  EXPECT_EQ(min.faults[0].count, 1);

  // Replayable artifact: JSON round-trip still fails, and identically.
  const rt::ChaosSchedule reparsed = rt::schedule_from_json(rt::schedule_to_json(min));
  const ChaosOutcome replay = brittle.run_schedule(reparsed);
  EXPECT_FALSE(replay.ok());
  EXPECT_FALSE(replay.survived);

  // The full defense absorbs the same minimal schedule.
  ChaosCampaign defended(s, tiny_physics());
  EXPECT_TRUE(defended.run_schedule(reparsed).ok());
}

// ---- regression pins from campaign minimization -----------------------------

// Minimized by the campaign shrinker from a failing over-dense band schedule
// (seed 4242, index 22) while the oracle still assumed an exactly conserved
// phase ledger: a rank death whose eviction restore takes a bit-flipped image
// read, an exchange hang escalating to a second eviction, and transfer
// corruption landing on the shrunk fleet's gather. Pinned here composed — the
// cross-class path the per-class suites never walk.
TEST(ChaosRegression, BandRankDeathPlusHangEscalationPlusCorruptRestore) {
  const BteScenario s = tiny_scenario();
  ChaosCampaign campaign(s, tiny_physics());
  rt::ChaosSchedule sched;
  sched.seed = 4242;
  sched.index = 22;
  sched.solver = "band";
  sched.nparts = 4;
  sched.nsteps = 24;
  sched.faults = {
      {rt::FaultKind::TransferCorruption, "gather", 38, 2, 4},
      {rt::FaultKind::BitFlipMessage, "ckpt-restore", 1, 1, 2},
      {rt::FaultKind::RankFailure, "band-rank", 17, 2, 1},
      {rt::FaultKind::HangExchange, "exchange", 12, 1, 1},
      {rt::FaultKind::HangExchange, "exchange-retry", 0, 1, 2},
  };
  const ChaosOutcome o = campaign.run_schedule(sched);
  EXPECT_TRUE(o.ok()) << o.detail;
  EXPECT_EQ(o.stats.evictions, 2);  // rank death + escalated hang
}

// Same era, cell flavor: a dropped-then-corrupted halo while a slow rank and
// an armed restore-path flip coexist; survives with rollbacks and lands exact.
TEST(ChaosRegression, CellCorruptionDuringRestoreWithSlowRank) {
  const BteScenario s = tiny_scenario();
  ChaosCampaign campaign(s, tiny_physics());
  rt::ChaosSchedule sched;
  sched.seed = 4242;
  sched.index = 3;
  sched.solver = "cell";
  sched.nparts = 4;
  sched.nsteps = 24;
  sched.faults = {
      {rt::FaultKind::TransferCorruption, "halo", 60, 1, 6},
      {rt::FaultKind::BitFlipMessage, "ckpt-restore", 0, 1, 1},
      {rt::FaultKind::SlowRank, "compute", 10, 2, 3},
      {rt::FaultKind::DroppedMessage, "halo", 58, 3, 2},
  };
  const ChaosOutcome o = campaign.run_schedule(sched);
  EXPECT_TRUE(o.ok()) << o.detail;
  EXPECT_GE(o.stats.rollbacks, 1);
}
