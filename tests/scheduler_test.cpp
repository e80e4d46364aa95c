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
#include <map>
#include <mutex>
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

// Tripwire on the durability protocol's I/O: a fault-free durable job
// commits job.json, one generation per checkpoint interval (none at step 0)
// and terminal.json — four atomic writes of two fsyncs each (data, then the
// directory after the rename).
TEST(SchedulerDurability, FaultFreeJobsCommitFourFilesEach) {
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
  EXPECT_EQ(mx.value("ckpt.atomic_writes") - writes0, 8.0);
  EXPECT_EQ(mx.value("ckpt.fsyncs") - fsyncs0, 16.0);
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
    // Child: die once both job directories have committed a step>=2
    // generation — both attempts are provably mid-flight, neither terminal.
    static std::mutex mu;
    static std::map<std::string, int> commits;
    rt::set_checkpoint_commit_hook([](const std::string& path, rt::CommitPhase phase) {
      if (phase != rt::CommitPhase::AfterRename) return;
      if (path.find("checkpoint_") == std::string::npos) return;
      std::lock_guard<std::mutex> lk(mu);
      const size_t cut = path.find("/flight-");
      if (cut == std::string::npos) return;
      ++commits[path.substr(cut, 9)];
      int armed = 0;
      for (const auto& [dir, n] : commits)
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

  for (int i = 0; i < 2; ++i) {
    const std::string dir = root + "/flight-" + std::to_string(i);
    EXPECT_TRUE(file_exists(dir + "/job.json"));
    EXPECT_FALSE(file_exists(dir + "/terminal.json"));
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
}
#endif  // FINCH_HAVE_FORK
