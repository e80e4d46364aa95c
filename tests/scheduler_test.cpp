// Concurrent multi-tenant scheduler: deterministic virtual-time execution at
// max_concurrency > 1, bounded-queue backpressure (reject-with-retry-after),
// strictly lowest-priority-first overload shedding, deficit-round-robin fair
// share, brownout ladder degradation, starvation watchdog boosts, retry-storm
// damping, per-tenant budget partitions, crash-restart adoption with
// attempts in flight, and the durable I/O per job — all judged by the
// extended SupervisorCampaign oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bte/supervisor_campaign.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/memory.hpp"
#include "runtime/metrics.hpp"
#include "svc/job_file.hpp"
#include "svc/scheduler.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define FINCH_HAVE_FORK 1
#endif

using namespace finch;
using namespace finch::svc;

namespace {

bte::BteScenario base_scenario() {
  bte::BteScenario s;
  s.lx = s.ly = 50e-6;
  s.hot_w = 20e-6;
  s.dt = 1e-12;
  return s;
}

JobSpec small_job(const std::string& id, const std::string& solver = "cell") {
  JobSpec spec;
  spec.id = id;
  spec.solver = solver;
  spec.nparts = solver == "mgpu" ? 2 : 3;
  spec.nx = 12;
  spec.ny = 8;
  spec.ndirs = 8;
  spec.nbands = 6;
  spec.nsteps = 8;
  spec.seed = 7;
  return spec;
}

JobSpec poison_job(const std::string& id) {
  JobSpec spec = small_job(id);
  spec.nparts = 4;
  spec.max_rollbacks = 0;
  rt::ChaosFault f;
  f.kind = rt::FaultKind::TransferCorruption;
  f.site = "halo";
  f.first_event = 0;
  f.stride = 1;
  f.count = 5000;
  spec.faults.push_back(f);
  return spec;
}

double units_of(const JobSpec& s) {
  return static_cast<double>(s.nsteps) * s.nx * s.ny * s.ndirs * s.nbands;
}

std::vector<Arrival> at_time_zero(std::vector<JobSpec> specs) {
  std::vector<Arrival> arrivals;
  for (JobSpec& s : specs) arrivals.push_back(Arrival{0.0, std::move(s), false});
  return arrivals;
}

std::string fresh_root(const std::string& name) {
  const std::string root = "scheduler_" + name;
#if defined(__unix__) || defined(__APPLE__)
  const std::string cmd = "rm -rf " + root;
  [[maybe_unused]] const int rc = std::system(cmd.c_str());
#endif
  return root;
}

const JobOutcome* find_outcome(const std::vector<JobOutcome>& outcomes,
                               const std::string& id) {
  for (const JobOutcome& o : outcomes)
    if (o.spec.id == id) return &o;
  return nullptr;
}

// Terminal records per id in `root`'s journal.
std::map<std::string, int> terminal_counts(const std::string& root) {
  std::map<std::string, int> counts;
  for (const JournalRecord& r : JobJournal::read(root))
    if (r.kind == 'T') ++counts[r.id];
  return counts;
}

}  // namespace

TEST(SchedulerOptions_, ValidationRejectsContradictions) {
  const bte::BteScenario base = base_scenario();
  SchedulerOptions bad;
  bad.max_concurrency = 0;
  EXPECT_THROW(Scheduler(base, bad), std::invalid_argument);
  bad = SchedulerOptions{};
  bad.brownout_start = 0.9;
  bad.blackout_start = 0.5;  // brownout after blackout
  EXPECT_THROW(Scheduler(base, bad), std::invalid_argument);
  bad = SchedulerOptions{};
  bad.cost_per_unit_s = 0.0;
  EXPECT_THROW(Scheduler(base, bad), std::invalid_argument);
  bad = SchedulerOptions{};
  bad.tenants.push_back(TenantSpec{"a", 1.0});
  bad.tenants.push_back(TenantSpec{"a", 2.0});  // duplicate tenant
  EXPECT_THROW(Scheduler(base, bad), std::invalid_argument);
  bad = SchedulerOptions{};
  bad.tenants.push_back(TenantSpec{"a", 0.0});  // non-positive weight
  EXPECT_THROW(Scheduler(base, bad), std::invalid_argument);
  bad = SchedulerOptions{};
  bad.storm_factor = 0.5;
  EXPECT_THROW(Scheduler(base, bad), std::invalid_argument);

  SchedulerOptions ok;
  ok.max_concurrency = 4;
  Scheduler sched(base, ok);
  EXPECT_NO_THROW(sched.run({}));
  EXPECT_THROW(sched.run({}), std::invalid_argument);  // one run per scheduler
}

TEST(SchedulerEquivalence, OneSlotAndFourSlotsAgreePerJobBitExactly) {
  // Unbounded queue, one tenant: the slot count changes only when attempts
  // run, never what they compute. Each job must end the same way at one
  // slot (the serial case) and at four, with bit-identical fields.
  std::vector<JobSpec> specs;
  specs.push_back(small_job("a", "cell"));
  specs.push_back(small_job("b", "band"));
  JobSpec d = small_job("c", "cell");
  d.deadline_steps = 4;
  specs.push_back(d);
  specs.push_back(poison_job("p"));

  Scheduler one(base_scenario(), SchedulerOptions{});
  const ScheduleResult ref = one.run(at_time_zero(specs));
  SchedulerOptions four_opt;
  four_opt.max_concurrency = 4;
  Scheduler four(base_scenario(), four_opt);
  const ScheduleResult got = four.run(at_time_zero(specs));
  ASSERT_EQ(ref.outcomes.size(), specs.size());
  ASSERT_EQ(got.outcomes.size(), specs.size());
  for (const JobOutcome& r : ref.outcomes) {
    const JobOutcome* g = find_outcome(got.outcomes, r.spec.id);
    ASSERT_NE(g, nullptr) << r.spec.id;
    EXPECT_EQ(g->state, r.state) << r.spec.id;
    EXPECT_EQ(g->attempts.size(), r.attempts.size()) << r.spec.id;
    EXPECT_EQ(g->final_step, r.final_step) << r.spec.id;
    EXPECT_EQ(g->temperature, r.temperature) << r.spec.id;
    EXPECT_EQ(g->intensity, r.intensity) << r.spec.id;
  }

  bte::SupervisorCampaign campaign(base_scenario());
  for (const ScheduleResult* res : {&ref, &got}) {
    const auto report = campaign.judge(specs, res->outcomes, SupervisorOptions{});
    EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations.front());
  }
}

TEST(SchedulerOverload, FullQueueRejectsWithRetryAfterAndShedsLowestPriorityFirst) {
  // Capacity 2, slow drain (mc=1): flood with priority-0 jobs, then send
  // higher-priority arrivals. Equal-priority arrivals must be rejected with
  // a positive retry_after; higher-priority arrivals must evict the lowest
  // priority queued job, audited as strictly lowest-priority-first.
  SchedulerOptions opt;
  opt.max_concurrency = 1;
  opt.queue_capacity = 2;
  std::vector<JobSpec> specs;
  for (int i = 0; i < 5; ++i) specs.push_back(small_job("low-" + std::to_string(i)));
  JobSpec hi = small_job("hi-0");
  hi.priority = 2;
  specs.push_back(hi);
  JobSpec mid = small_job("mid-0");
  mid.priority = 1;
  specs.push_back(mid);

  Scheduler sched(base_scenario(), opt);
  const ScheduleResult res = sched.run(at_time_zero(specs));

  // low-0 dispatches immediately; low-1, low-2 fill the queue; low-3 and
  // low-4 cannot out-rank anything queued -> rejected. hi-0 and mid-0 each
  // evict a priority-0 job.
  ASSERT_EQ(res.stats.rejects.size(), 2u);
  for (const RejectAudit& r : res.stats.rejects) {
    EXPECT_TRUE(r.id == "low-3" || r.id == "low-4") << r.id;
    EXPECT_GT(r.retry_after_s, 0.0);
  }
  ASSERT_EQ(res.stats.shed_audits.size(), 2u);
  for (const ShedAudit& s : res.stats.shed_audits) {
    EXPECT_EQ(s.priority, 0);
    EXPECT_EQ(s.priority, s.min_queued_priority);
  }
  // Everyone admitted reached exactly one terminal state; the high-priority
  // arrivals completed.
  EXPECT_EQ(res.outcomes.size(), 5u);  // 7 arrivals - 2 rejected
  EXPECT_EQ(find_outcome(res.outcomes, "hi-0")->state, TerminalState::Completed);
  EXPECT_EQ(find_outcome(res.outcomes, "mid-0")->state, TerminalState::Completed);
  int shed = 0;
  for (const JobOutcome& o : res.outcomes)
    if (o.state == TerminalState::Shed) {
      ++shed;
      EXPECT_TRUE(o.attempts.empty()) << o.spec.id;
    }
  EXPECT_EQ(shed, 2);
}

TEST(SchedulerFairness, DeficitRoundRobinProtectsModestTenantFromFlood) {
  // A greedy tenant floods 12 jobs; a modest tenant sends 3 at equal weight.
  // DRR must interleave them: every modest job completes within the first
  // 7 completions instead of waiting behind the flood.
  SchedulerOptions opt;
  opt.max_concurrency = 1;
  opt.tenants.push_back(TenantSpec{"greedy", 1.0});
  opt.tenants.push_back(TenantSpec{"modest", 1.0});
  std::vector<JobSpec> specs;
  for (int i = 0; i < 12; ++i) {
    JobSpec s = small_job("g-" + std::to_string(i));
    s.tenant = "greedy";
    specs.push_back(s);
  }
  for (int i = 0; i < 3; ++i) {
    JobSpec s = small_job("m-" + std::to_string(i));
    s.tenant = "modest";
    specs.push_back(s);
  }
  Scheduler sched(base_scenario(), opt);
  const ScheduleResult res = sched.run(at_time_zero(specs));
  ASSERT_EQ(res.outcomes.size(), specs.size());
  for (int i = 0; i < 3; ++i) {
    const std::string id = "m-" + std::to_string(i);
    const auto it = std::find_if(res.outcomes.begin(), res.outcomes.end(),
                                 [&](const JobOutcome& o) { return o.spec.id == id; });
    const auto pos = it - res.outcomes.begin();
    EXPECT_LT(pos, 7) << id << " finished at completion index " << pos;
    EXPECT_EQ(it->state, TerminalState::Completed);
  }
  EXPECT_EQ(res.stats.tenants.at("modest").completed, 3);
  EXPECT_EQ(res.stats.tenants.at("greedy").completed, 12);
}

TEST(SchedulerBrownout, QueuePressureForcesFallbackRungBeforeShedding) {
  // Capacity 10 with 14 same-priority arrivals at t=0: the queue fills past
  // brownout_start before most dispatches, so jobs declaring a fallback
  // ladder must be forced off their top rung (no memory budget involved).
  SchedulerOptions opt;
  opt.max_concurrency = 1;
  opt.queue_capacity = 10;
  opt.brownout_start = 0.30;
  opt.blackout_start = 0.90;
  std::vector<JobSpec> specs;
  for (int i = 0; i < 14; ++i) {
    JobSpec s = small_job("b-" + std::to_string(i));
    JobConfig fb;
    fb.nx = 8;
    fb.ny = 6;
    s.fallbacks.push_back(fb);
    specs.push_back(s);
  }
  Scheduler sched(base_scenario(), opt);
  const ScheduleResult res = sched.run(at_time_zero(specs));
  EXPECT_GT(res.stats.brownout_degrades, 0);
  int degraded = 0, top = 0;
  for (const JobOutcome& o : res.outcomes) {
    if (o.state != TerminalState::Completed) continue;
    if (o.degraded_rung >= 0) {
      ++degraded;
      EXPECT_EQ(o.ran.nx, 8);
      EXPECT_EQ(o.ran.ny, 6);
    } else {
      ++top;
    }
  }
  EXPECT_GT(degraded, 0);  // pressure-forced rungs
  EXPECT_GT(top, 0);       // the first dispatch (empty queue) kept its rung
  // The overflow past dispatch+capacity was rejected, not lost.
  EXPECT_EQ(res.outcomes.size() + res.stats.rejects.size(), specs.size());
  // Degraded completions are still bit-exact vs the rung that ran; judge
  // the admitted subset (rejected arrivals never entered the system).
  std::vector<JobSpec> admitted;
  for (const JobSpec& s : specs)
    if (find_outcome(res.outcomes, s.id) != nullptr) admitted.push_back(s);
  bte::SupervisorCampaign campaign(base_scenario());
  const auto report = campaign.judge(admitted, res.outcomes, sched.options().supervisor);
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations.front());
}

TEST(SchedulerWatchdog, BoostDispatchesStarvingTenantAheadOfFairShare) {
  // Weight 0.01 starves the small tenant under pure DRR; the watchdog boost
  // must jump it ahead once its queue age crosses the boost threshold, and
  // nothing may age past the hard bound.
  JobSpec probe = small_job("probe");
  const double service_s = units_of(probe) * SchedulerOptions{}.cost_per_unit_s;
  SchedulerOptions opt;
  opt.max_concurrency = 1;
  opt.tenants.push_back(TenantSpec{"big", 1.0});
  opt.tenants.push_back(TenantSpec{"tiny", 0.01});
  opt.max_queue_age_s = 7.0 * service_s;

  // big-0 occupies the slot at t=0; tiny-0 is the oldest *queued* job from
  // then on, but weight 0.01 would starve it behind the later big arrivals
  // under pure DRR until the boost fires.
  std::vector<Arrival> arrivals;
  JobSpec b0 = small_job("big-0");
  b0.tenant = "big";
  arrivals.push_back(Arrival{0.0, std::move(b0), false});
  JobSpec t = small_job("tiny-0");
  t.tenant = "tiny";
  arrivals.push_back(Arrival{0.1 * service_s, std::move(t), false});
  for (int i = 1; i < 6; ++i) {
    JobSpec s = small_job("big-" + std::to_string(i));
    s.tenant = "big";
    arrivals.push_back(Arrival{0.2 * service_s, std::move(s), false});
  }

  Scheduler sched(base_scenario(), opt);
  const ScheduleResult res = sched.run(arrivals);
  EXPECT_GE(res.stats.watchdog_boosts, 1);
  EXPECT_EQ(res.stats.watchdog_violations, 0);
  const JobOutcome* tiny = find_outcome(res.outcomes, "tiny-0");
  ASSERT_NE(tiny, nullptr);
  EXPECT_EQ(tiny->state, TerminalState::Completed);
  // Boosted ahead of at least the tail of the big tenant's queue.
  const auto pos = std::find_if(res.outcomes.begin(), res.outcomes.end(),
                                [](const JobOutcome& o) { return o.spec.id == "tiny-0"; }) -
                   res.outcomes.begin();
  EXPECT_LT(pos, static_cast<long>(res.outcomes.size()) - 1);
}

TEST(SchedulerRetryStorm, JitterDecorrelatesBackoffsAndDamperStretchesThem) {
  // Satellite: FNV jitter must decorrelate per-job delays (no thundering
  // herd), and a burst of correlated retries must trip the storm damper.
  RetryPolicy p;
  std::set<double> delays;
  for (int i = 0; i < 64; ++i)
    delays.insert(backoff_with_jitter(p, "herd-" + std::to_string(i), 0));
  EXPECT_EQ(delays.size(), 64u);  // pairwise distinct at the same failure index

  SchedulerOptions opt;
  opt.max_concurrency = 2;
  opt.storm_threshold = 4;
  opt.storm_window_s = 64.0;  // every retry of the burst lands in one window
  std::vector<JobSpec> specs;
  for (int i = 0; i < 8; ++i) specs.push_back(poison_job("storm-" + std::to_string(i)));
  Scheduler sched(base_scenario(), opt);
  const ScheduleResult res = sched.run(at_time_zero(specs));
  ASSERT_EQ(res.outcomes.size(), 8u);
  std::set<double> first_backoffs;
  for (const JobOutcome& o : res.outcomes) {
    EXPECT_EQ(o.state, TerminalState::Quarantined) << o.spec.id;
    ASSERT_GE(o.attempts.size(), 2u) << o.spec.id;
    first_backoffs.insert(o.attempts[1].backoff_s);
  }
  EXPECT_EQ(first_backoffs.size(), 8u);  // still decorrelated after damping
  EXPECT_GT(res.stats.storm_damped, 0);
  EXPECT_EQ(res.stats.retries, 16);  // 8 jobs x 2 retries before the breaker
}

TEST(SchedulerBudget, TenantPartitionsIsolateAppetiteAndDrainCleanly) {
  // Root budget split across two equal tenants: a job too large for its
  // tenant's partition is shed without touching the budget, while the other
  // tenant's jobs run untouched; everything drains back to zero.
  rt::MemoryBudget root(64ll << 20);
  SchedulerOptions opt;
  opt.max_concurrency = 2;
  opt.supervisor.memory = &root;
  opt.tenants.push_back(TenantSpec{"hungry", 1.0});
  opt.tenants.push_back(TenantSpec{"frugal", 1.0});

  JobSpec big = small_job("whale");
  big.tenant = "hungry";
  big.nx = 320;
  big.ny = 320;  // far beyond a 32 MiB partition
  std::vector<JobSpec> specs{big};
  for (int i = 0; i < 3; ++i) {
    JobSpec s = small_job("f-" + std::to_string(i));
    s.tenant = "frugal";
    specs.push_back(s);
  }
  Scheduler sched(base_scenario(), opt);
  const ScheduleResult res = sched.run(at_time_zero(specs));
  const JobOutcome* whale = find_outcome(res.outcomes, "whale");
  ASSERT_NE(whale, nullptr);
  EXPECT_EQ(whale->state, TerminalState::Shed);
  EXPECT_TRUE(whale->attempts.empty());
  EXPECT_NE(whale->detail.find("tenant partition"), std::string::npos) << whale->detail;
  for (int i = 0; i < 3; ++i) {
    const JobOutcome* o = find_outcome(res.outcomes, "f-" + std::to_string(i));
    ASSERT_NE(o, nullptr);
    EXPECT_EQ(o->state, TerminalState::Completed);
  }
  EXPECT_EQ(root.in_use(), 0);  // partitions forwarded every release upstream
  EXPECT_EQ(res.stats.tenants.at("hungry").budget_capacity, 32ll << 20);
  EXPECT_EQ(res.stats.tenants.at("frugal").budget_capacity, 32ll << 20);
}

TEST(SchedulerCampaign, OverloadOracleHoldsAtTwiceCapacityAcrossTenants) {
  // The acceptance-shaped soak in miniature: Poisson arrivals at 2x the
  // service capacity of 2 slots across 3 tenants, flaky + deadline
  // admixtures, bounded queue. The extended oracle must hold.
  const std::string root = fresh_root("overload");
  bte::SupervisorCampaign campaign(base_scenario());
  bte::OverloadShape shape;
  shape.njobs = 36;
  shape.ntenants = 3;
  shape.load_factor = 2.0;
  SchedulerOptions opt;
  opt.max_concurrency = 2;
  opt.queue_capacity = 12;
  opt.supervisor.durable_root = root;
  const std::vector<Arrival> arrivals =
      campaign.overload_stream(4242, shape, opt.cost_per_unit_s, opt.max_concurrency);
  Scheduler sched(base_scenario(), opt);
  const ScheduleResult res = sched.run(arrivals);
  const bte::OverloadReport rep = campaign.judge_overload(arrivals, res, opt, 0.60);
  EXPECT_TRUE(rep.ok()) << (!rep.violations.empty()
                                ? rep.violations.front()
                                : (!rep.base.violations.empty() ? rep.base.violations.front()
                                                                : ""));
  EXPECT_EQ(rep.admitted + rep.rejected, rep.arrivals);
  EXPECT_EQ(static_cast<int>(res.outcomes.size()), rep.admitted);
  EXPECT_EQ(res.stats.watchdog_violations, 0);
  EXPECT_GE(rep.min_fair_share_ratio, 0.60);
}

TEST(SchedulerDeterminism, IdenticalRunsProduceIdenticalTrajectories) {
  // Same arrivals + options -> identical outcome order, terminal states,
  // shed/reject audits and virtual drain time, even at mc=4 where attempts
  // genuinely race on the thread pool.
  bte::SupervisorCampaign campaign(base_scenario());
  bte::OverloadShape shape;
  shape.njobs = 24;
  shape.flaky_fraction = 0.0;  // keep it non-durable
  SchedulerOptions opt;
  opt.max_concurrency = 4;
  opt.queue_capacity = 8;
  const std::vector<Arrival> arrivals =
      campaign.overload_stream(31337, shape, opt.cost_per_unit_s, opt.max_concurrency);

  auto run_once = [&] {
    Scheduler sched(base_scenario(), opt);
    return sched.run(arrivals);
  };
  const ScheduleResult a = run_once();
  const ScheduleResult b = run_once();
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].spec.id, b.outcomes[i].spec.id) << i;
    EXPECT_EQ(a.outcomes[i].state, b.outcomes[i].state) << i;
    EXPECT_EQ(a.outcomes[i].temperature, b.outcomes[i].temperature) << i;
  }
  ASSERT_EQ(a.stats.rejects.size(), b.stats.rejects.size());
  for (size_t i = 0; i < a.stats.rejects.size(); ++i)
    EXPECT_EQ(a.stats.rejects[i].id, b.stats.rejects[i].id);
  ASSERT_EQ(a.stats.shed_audits.size(), b.stats.shed_audits.size());
  EXPECT_EQ(a.stats.dispatched, b.stats.dispatched);
  EXPECT_DOUBLE_EQ(a.stats.drain_vtime_s, b.stats.drain_vtime_s);
}

// Tripwire on the durability protocol's I/O. A fault-free durable job
// appends one generation frame per checkpoint interval (none at step 0) to
// the root's generation log: two frames for 8 steps at interval 4. Neither
// frames nor records cost a file or a sync of their own: each file gets one
// fdatasync per attempt wave when it was appended to since its last one,
// plus one before run() returns. At one slot the two jobs run in two waves.
// The first wave's sync covers both admissions, plus the root's fsync that
// makes the new journal durable (2); the log is still empty. The second
// wave's covers job 0's terminal record (1) and job 0's two frames, plus
// the root's fsync for the new log (2). The final sync covers job 1's
// terminal record (1) and frames (1). So 0 atomic writes and 7 fsyncs,
// against 4 and 12 when each generation was a file, and no job directory.
TEST(SchedulerDurability, FaultFreeJobsCommitOnlyGenerationFiles) {
  SchedulerOptions opt;
  opt.max_concurrency = 1;
  opt.supervisor.durable_root = fresh_root("io_tripwire");
  std::vector<JobSpec> specs;
  for (int i = 0; i < 2; ++i) {
    JobSpec s = small_job("io-" + std::to_string(i));
    s.nsteps = 8;
    s.ckpt_interval = 4;
    specs.push_back(s);
  }
  auto& mx = rt::MetricsRegistry::global();
  const double writes0 = mx.value("ckpt.atomic_writes");
  const double fsyncs0 = mx.value("ckpt.fsyncs");
  Scheduler sched(base_scenario(), opt);
  const ScheduleResult res = sched.run(at_time_zero(specs));
  ASSERT_EQ(res.outcomes.size(), 2u);
  for (const JobOutcome& o : res.outcomes)
    EXPECT_EQ(o.state, TerminalState::Completed) << o.spec.id;
  EXPECT_EQ(mx.value("ckpt.atomic_writes") - writes0, 0.0);
  EXPECT_EQ(mx.value("ckpt.fsyncs") - fsyncs0, 7.0);
  std::set<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(opt.supervisor.durable_root))
    files.insert(entry.path().filename().string());
  EXPECT_EQ(files, (std::set<std::string>{JobJournal::kFileName, rt::GenerationLog::kFileName}));
  for (const JobSpec& spec : specs) {
    const std::optional<rt::Generation> gen =
        rt::find_latest_generation(opt.supervisor.durable_root, spec.id);
    ASSERT_TRUE(gen.has_value()) << spec.id;
    EXPECT_EQ(gen->seq, 2) << spec.id;
    EXPECT_EQ(gen->manifest.last_step, 8) << spec.id;
  }
  const std::vector<JournalRecord> records = JobJournal::read(opt.supervisor.durable_root);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(std::string({records[0].kind, records[1].kind, records[2].kind, records[3].kind}),
            "AATT");
}

// A fault that cannot be armed (first_event < 0) makes the whole batch
// invalid: run() refuses it before writing any job record, so no orphan is
// left for a restart to re-adopt. One slot, where running the valid job first
// would have committed records before the bad one failed.
TEST(SchedulerDurability, UnarmableFaultRefusesTheBatchBeforeAnyRecord) {
  SchedulerOptions opt;
  opt.max_concurrency = 1;
  opt.supervisor.durable_root = fresh_root("bad_fault");
  JobSpec bad = small_job("bad-fault");
  rt::ChaosFault f;
  f.kind = rt::FaultKind::DroppedMessage;
  f.site = "halo";
  f.first_event = -1;
  bad.faults.push_back(f);
  Scheduler sched(base_scenario(), opt);
  EXPECT_THROW(sched.run(at_time_zero({small_job("good"), bad})), std::invalid_argument);
  const std::filesystem::path root = opt.supervisor.durable_root;
  EXPECT_TRUE(!std::filesystem::exists(root) || std::filesystem::is_empty(root));
}

#if FINCH_HAVE_FORK
TEST(SchedulerCrash, RestartReadoptsEveryJobInFlightAcrossSlots) {
  // Satellite: SIGKILL while two attempts are mid-flight in one wave. The
  // restarted scheduler must re-adopt both, produce exactly one terminal
  // record each, and replay nothing from step 0 past a durable checkpoint.
  const std::string root = fresh_root("crash");
  std::vector<JobSpec> specs;
  for (int i = 0; i < 2; ++i) {
    JobSpec s = small_job("flight-" + std::to_string(i));
    s.nsteps = 10;
    s.ckpt_interval = 2;
    specs.push_back(s);
  }
  SchedulerOptions opt;
  opt.max_concurrency = 2;
  opt.supervisor.durable_root = root;

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: die once both jobs have appended a step>=2 frame — both
    // attempts are provably mid-flight, neither terminal.
    static std::mutex mu;
    static std::map<std::string, int> commits;
    rt::set_checkpoint_commit_hook([](const std::string& what, rt::CommitPhase phase) {
      if (phase != rt::CommitPhase::AfterAppend) return;
      std::lock_guard<std::mutex> lk(mu);
      const size_t cut = what.find("#flight-");
      if (cut == std::string::npos) return;
      ++commits[what.substr(cut + 1, 8)];
      int armed = 0;
      for (const auto& [id, n] : commits)
        if (n >= 1) ++armed;  // step 0 commits nothing: the first is step 2's
      if (armed >= 2) ::raise(SIGKILL);
    });
    Scheduler victim(base_scenario(), opt);
    victim.run(at_time_zero(specs));
    ::_exit(42);  // unreachable when the kill landed
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited with " << WEXITSTATUS(status);
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  const auto last = JobJournal::latest(root);
  for (int i = 0; i < 2; ++i) {
    const std::string id = "flight-" + std::to_string(i);
    ASSERT_EQ(last.count(id), 1u) << id;
    EXPECT_EQ(last.at(id).kind, 'A') << id;  // admitted, not terminal
  }

  Scheduler restarted(base_scenario(), opt);
  const std::vector<std::string> adopted = restarted.adopt_orphans();
  ASSERT_EQ(adopted.size(), 2u);
  const ScheduleResult res = restarted.run({});
  ASSERT_EQ(res.outcomes.size(), 2u);
  std::set<std::string> seen;
  for (const JobOutcome& o : res.outcomes) {
    EXPECT_TRUE(seen.insert(o.spec.id).second) << "duplicate terminal for " << o.spec.id;
    EXPECT_EQ(o.state, TerminalState::Completed) << o.spec.id;
    EXPECT_TRUE(o.adopted);
    ASSERT_FALSE(o.attempts.empty());
    EXPECT_TRUE(o.attempts[0].resumed) << o.spec.id;
    EXPECT_GE(o.attempts[0].start_step, 2) << o.spec.id;
  }
  bte::SupervisorCampaign campaign(base_scenario());
  const auto report = campaign.judge(specs, res.outcomes, opt.supervisor);
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations.front());
  EXPECT_EQ(report.step0_replays, 0);
  EXPECT_EQ(report.adopted, 2);
  EXPECT_EQ(terminal_counts(root), (std::map<std::string, int>{{"flight-0", 1}, {"flight-1", 1}}));
}
#endif  // FINCH_HAVE_FORK

// ---- the record journal ------------------------------------------------------

TEST(JobJournal, RecordsRoundTripInAppendOrder) {
  const std::string root = fresh_root("journal_roundtrip");
  std::filesystem::create_directories(root);
  {
    JobJournal journal(root);
    journal.append_admission(small_job("j-a"));
    journal.append_admission(poison_job("j-b"));
    journal.append_terminal("j-a", TerminalState::Completed, "done\nwith \"news\"");
    journal.sync();
  }
  int damaged = -1;
  const std::vector<JournalRecord> records = JobJournal::read(root, &damaged);
  EXPECT_EQ(damaged, 0);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(job_to_json(job_from_json(records[1].body)), job_to_json(poison_job("j-b")));
  TerminalState ts{};
  std::string detail;
  terminal_from_json(records[2].body, &ts, &detail);
  EXPECT_EQ(ts, TerminalState::Completed);
  EXPECT_EQ(detail, "done with 'news'");  // one line, no quotes
  const auto last = JobJournal::latest(root);
  EXPECT_EQ(last.at("j-a").kind, 'T');
  EXPECT_EQ(last.at("j-b").kind, 'A');
  EXPECT_TRUE(JobJournal::read(fresh_root("journal_missing")).empty());
}

// Group commit: one counted fdatasync covers every record appended since the
// last sync; the journal's creation adds one fsync of the root; a sync with
// nothing new is free.
TEST(JobJournal, SyncIsOneFsyncPerGroup) {
  const std::string root = fresh_root("journal_sync");
  std::filesystem::create_directories(root);
  auto& mx = rt::MetricsRegistry::global();
  JobJournal journal(root);
  double before = mx.value("ckpt.fsyncs");
  journal.sync();
  EXPECT_EQ(mx.value("ckpt.fsyncs") - before, 0.0);
  EXPECT_FALSE(file_exists(root + "/" + JobJournal::kFileName));  // opened on first append
  for (int i = 0; i < 5; ++i) journal.append_admission(small_job("g-" + std::to_string(i)));
  before = mx.value("ckpt.fsyncs");
  journal.sync();
  EXPECT_EQ(mx.value("ckpt.fsyncs") - before, 2.0);  // data + the root's entry
  journal.append_terminal("g-0", TerminalState::Completed, "completed");
  journal.append_terminal("g-1", TerminalState::Shed, "shed");
  before = mx.value("ckpt.fsyncs");
  journal.sync();
  journal.sync();
  EXPECT_EQ(mx.value("ckpt.fsyncs") - before, 1.0);
}

// A torn tail and a damaged line are skipped and counted by readers; the
// first append to an existing journal cuts the torn tail away, so the new
// record starts on its own line.
TEST(JobJournal, TornTailIsSkippedThenTruncatedBeforeTheNextAppend) {
  const std::string root = fresh_root("journal_torn");
  std::filesystem::create_directories(root);
  {
    JobJournal journal(root);
    for (const char* id : {"t-0", "t-1", "t-2"}) journal.append_admission(small_job(id));
    journal.append_terminal("t-1", TerminalState::Completed, "completed");
  }
  const std::string path = root + "/" + JobJournal::kFileName;
  std::string text = read_text_file(path);
  const size_t second = text.find('\n') + 1;
  text[second + 10] ^= 0x01;  // damage line 2 (t-1's admission)
  const std::string torn = text.substr(0, text.find('\n') + 1);
  text += torn.substr(0, torn.size() / 2);  // half a record, no newline
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;

  int damaged = 0;
  std::vector<JournalRecord> records = JobJournal::read(root, &damaged);
  EXPECT_EQ(damaged, 2);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].id, "t-0");
  EXPECT_EQ(records[1].id, "t-2");
  EXPECT_EQ(records[2].kind, 'T');

  // Orphans are the ids whose last valid record is an admission; damaged
  // lines count in svc.journal.damaged.
  SchedulerOptions opt;
  opt.supervisor.durable_root = root;
  auto& mx = rt::MetricsRegistry::global();
  const double damaged0 = mx.value("svc.journal.damaged");
  Scheduler restarted(base_scenario(), opt);
  EXPECT_EQ(restarted.adopt_orphans(), (std::vector<std::string>{"t-0", "t-2"}));
  EXPECT_EQ(mx.value("svc.journal.damaged") - damaged0, 2.0);

  {
    JobJournal journal(root);
    journal.append_terminal("t-0", TerminalState::Cancelled, "drained");
    journal.sync();
  }
  records = JobJournal::read(root, &damaged);
  EXPECT_EQ(damaged, 1);  // only the damaged middle line remains
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[3].id, "t-0");
  EXPECT_EQ(read_text_file(path).back(), '\n');
}

// ---- power loss ----------------------------------------------------------------
//
// A kill keeps the page cache, so a power loss is modeled here by discarding
// what a sync had not covered: a finished root's journal and generation log
// are cut back to the lengths they had at each sync point, with and without
// a torn half-record after the journal's cut or a torn half-frame after the
// log's, and the service is restarted on them. Every job then ends with
// exactly one terminal record, no retry replays from step 0, and the oracle
// holds over the merged outcomes.
namespace {

// Lengths of the journal and the generation log that a power loss can leave
// whole: both files as their last syncs left them.
using SyncPoint = std::pair<size_t, size_t>;

struct FinishedRoot {
  std::vector<JobSpec> specs;
  std::vector<JobOutcome> outcomes;
  std::string journal;  // its bytes at the end of the run
  std::string log;      // the generation log's bytes at the end of the run
  std::set<SyncPoint> sync_points;
};

FinishedRoot run_finished_root(const std::string& root, SchedulerOptions opt) {
  FinishedRoot fr;
  for (int i = 0; i < 4; ++i) {
    JobSpec s = small_job("pl-" + std::to_string(i), i == 2 ? "band" : "cell");
    s.nsteps = 6;
    s.ckpt_interval = 2;
    fr.specs.push_back(s);
  }
  fr.specs.push_back(poison_job("pl-poison"));
  // A flaky job: attempt 0 dies after its first frames, so a wave's sync
  // leaves it non-terminal with synced frames, and its retry resumes.
  bte::SupervisorCampaign campaign(base_scenario());
  bte::StreamShape shape;
  shape.njobs = 1;
  shape.flaky_fraction = 1.0;
  shape.chaos_fraction = shape.deadline_fraction = shape.poison_fraction = 0.0;
  shape.min_steps = shape.max_steps = 9;
  JobSpec flaky = campaign.mixed_stream(3, shape).at(0);
  flaky.id = "pl-flaky";
  fr.specs.push_back(flaky);
  const std::string journal_path = root + "/" + JobJournal::kFileName;
  const std::string log_path = root + "/" + rt::GenerationLog::kFileName;
  // Each wave starts by syncing the journal, then the log, and only the
  // coordinating thread appends records, never during a wave. So at a frame
  // append the journal's length is its length at the last sync and the
  // log's synced length is the one the last log sync saw; at a log sync the
  // journal is synced and the log is either still at its last synced length
  // (power lost between the two syncs) or at the new one.
  static std::mutex mu;
  static std::set<SyncPoint>* points = nullptr;
  static const std::string* paths[2] = {nullptr, nullptr};
  static size_t log_synced = 0;
  points = &fr.sync_points;
  paths[0] = &journal_path;
  paths[1] = &log_path;
  log_synced = 0;
  rt::set_checkpoint_commit_hook([](const std::string&, rt::CommitPhase phase) {
    std::error_code ec;
    const auto journal = std::filesystem::file_size(*paths[0], ec);
    const auto log = std::filesystem::file_size(*paths[1], ec);
    std::lock_guard<std::mutex> lk(mu);
    points->insert({static_cast<size_t>(journal), log_synced});
    if (phase == rt::CommitPhase::AfterSync) {
      log_synced = static_cast<size_t>(log);
      points->insert({static_cast<size_t>(journal), log_synced});
    }
  });
  opt.supervisor.durable_root = root;
  Scheduler sched(base_scenario(), opt);
  fr.outcomes = sched.run(at_time_zero(fr.specs)).outcomes;
  rt::set_checkpoint_commit_hook(nullptr);
  fr.journal = read_text_file(journal_path);
  fr.log = read_text_file(log_path);
  fr.sync_points.insert({0, 0});  // power lost before the first sync
  fr.sync_points.insert({fr.journal.size(), fr.log.size()});
  return fr;
}

void copy_root(const std::string& from, const std::string& to) {
  std::filesystem::remove_all(to);
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive);
}

// Half of the frame that starts at `at` in `log`: its header and half its
// image, as an append cut short leaves it.
std::string torn_frame(const std::string& log, size_t at) {
  uint64_t length = 0;
  std::memcpy(&length, log.data() + at + 32, sizeof length);  // the image-length word
  return log.substr(at, rt::GenerationLog::kHeaderBytes + length / 2);
}

void power_loss_restarts(int slots) {
  SchedulerOptions opt;
  opt.max_concurrency = slots;
  const std::string finished = fresh_root("powerloss_" + std::to_string(slots));
  const FinishedRoot fr = run_finished_root(finished, opt);
  ASSERT_GE(fr.sync_points.size(), 6u);
  int resumed_adopted = 0;  // adopted jobs whose first attempt resumed from a frame
  for (const auto& [journal_keep, log_keep] : fr.sync_points) {
    ASSERT_TRUE(journal_keep == 0 || fr.journal[journal_keep - 1] == '\n') << journal_keep;
    ASSERT_LE(log_keep, fr.log.size());
    // Exact cuts, a torn record after the journal's cut, a torn frame after
    // the log's cut.
    for (const int torn : {0, 1, 2}) {
      if (torn == 2 && log_keep == fr.log.size()) continue;
      SCOPED_TRACE("kept " + std::to_string(journal_keep) + " journal bytes and " +
                   std::to_string(log_keep) + " log bytes" +
                   (torn == 1 ? " + a torn record" : torn == 2 ? " + a torn frame" : ""));
      const std::string root = finished + "_restart";
      copy_root(finished, root);
      std::string kept = fr.journal.substr(0, journal_keep);
      if (torn == 1) {
        const std::string next =
            journal_keep < fr.journal.size() ? fr.journal.substr(journal_keep) : fr.journal;
        kept += next.substr(0, next.find('\n') / 2);
      }
      std::ofstream(root + "/" + JobJournal::kFileName, std::ios::binary | std::ios::trunc)
          << kept;
      std::string log = fr.log.substr(0, log_keep);
      if (torn == 2) log += torn_frame(fr.log, log_keep);
      std::ofstream(root + "/" + rt::GenerationLog::kFileName, std::ios::binary | std::ios::trunc)
          << log;

      // Expected orphans: admitted in the kept prefix, no kept terminal record.
      std::set<std::string> admitted, terminal;
      for (const JournalRecord& r : JobJournal::read(root))
        (r.kind == 'A' ? admitted : terminal).insert(r.id);
      std::vector<std::string> want;
      for (const std::string& id : admitted)
        if (terminal.count(id) == 0) want.push_back(id);

      opt.supervisor.durable_root = root;
      Scheduler restarted(base_scenario(), opt);
      const std::vector<std::string> adopted = restarted.adopt_orphans();
      EXPECT_EQ(adopted, want);
      // The submitter re-sends what the root has no record of at all, as a
      // re-run of `bte_cli --jobs` does.
      std::vector<JobSpec> resend;
      for (const JobSpec& s : fr.specs)
        if (admitted.count(s.id) == 0) resend.push_back(s);
      const ScheduleResult res = restarted.run(at_time_zero(resend));
      EXPECT_EQ(res.outcomes.size(), want.size() + resend.size());

      int damaged = -1;
      std::map<std::string, int> counts;
      for (const JournalRecord& r : JobJournal::read(root, &damaged))
        if (r.kind == 'T') ++counts[r.id];
      // The torn tail is cut before the first append; with nothing to
      // append it stays, skipped.
      const bool appended = !want.empty() || !resend.empty();
      EXPECT_EQ(damaged, torn == 1 && !appended ? 1 : 0);
      std::vector<JobOutcome> merged = res.outcomes;
      for (const JobSpec& s : fr.specs) {
        EXPECT_EQ(counts[s.id], 1) << s.id;
        if (terminal.count(s.id) != 0) merged.push_back(*find_outcome(fr.outcomes, s.id));
      }
      bte::SupervisorCampaign campaign(base_scenario());
      const auto report = campaign.judge(fr.specs, merged, opt.supervisor);
      EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations.front());
      EXPECT_EQ(report.adopted, static_cast<int>(want.size()));
      EXPECT_EQ(report.step0_replays, 0);
      for (const JobOutcome& o : res.outcomes)
        if (o.adopted && o.attempts.front().resumed) ++resumed_adopted;
    }
  }
  EXPECT_GT(resumed_adopted, 0) << "no restart resumed an adopted job from a synced frame";
}

}  // namespace

TEST(SchedulerPowerLoss, RestartAtEverySyncPointKeepsTheContractOneSlot) {
  power_loss_restarts(1);
}

TEST(SchedulerPowerLoss, RestartAtEverySyncPointKeepsTheContractTwoSlots) {
  power_loss_restarts(2);
}
