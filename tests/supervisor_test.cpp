// Job-service policies at the serial case (a one-slot svc::Scheduler, the
// default): terminal-state guarantees, policy precedence (cancel >
// quarantine > retry > shed), retry-with-resume, the poison circuit breaker,
// admission control with fallback ladders, deadline drains, and
// crash-restart adoption of orphaned durable jobs.
//
// The tentpole property: every submitted job reaches exactly one terminal
// state, Completed jobs are bit-exact vs a fault-free reference of whatever
// configuration actually ran, and retries of durable jobs resume from the
// newest checkpoint generation instead of replaying from step 0 — all judged
// by the bte::SupervisorCampaign oracle that the CI soak reuses.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bte/solver_factory.hpp"
#include "bte/supervisor_campaign.hpp"
#include "runtime/chaos.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/memory.hpp"
#include "svc/job_file.hpp"
#include "svc/scheduler.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/stat.h>
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

// Small default job: dims are overridden per test where it matters.
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
  spec.max_rollbacks = 0;  // any corruption is immediately fatal
  rt::ChaosFault f;
  f.kind = rt::FaultKind::TransferCorruption;
  f.site = "halo";
  f.first_event = 0;
  f.stride = 1;
  f.count = 5000;
  spec.faults.push_back(f);
  return spec;
}

std::string fresh_root(const std::string& name) {
  const std::string root = "supervisor_" + name;
#if defined(__unix__) || defined(__APPLE__)
  const std::string cmd = "rm -rf " + root;
  [[maybe_unused]] const int rc = std::system(cmd.c_str());
#endif
  return root;
}

// One-slot scheduler (the serial case) under `opt`'s policies.
SchedulerOptions serial(const SupervisorOptions& opt = {}) {
  SchedulerOptions so;
  so.supervisor = opt;
  return so;
}

std::vector<Arrival> at_time_zero(const std::vector<JobSpec>& specs) {
  std::vector<Arrival> arrivals;
  for (const JobSpec& s : specs) arrivals.push_back(Arrival{0.0, s, false});
  return arrivals;
}

// Runs `specs` as one batch on a fresh one-slot scheduler.
std::vector<JobOutcome> run_jobs(const SupervisorOptions& opt, const std::vector<JobSpec>& specs) {
  Scheduler sched(base_scenario(), serial(opt));
  return sched.run(at_time_zero(specs)).outcomes;
}

JobOutcome only(const std::vector<JobOutcome>& outcomes) {
  EXPECT_EQ(outcomes.size(), 1u);
  return outcomes.front();
}

}  // namespace

TEST(SupervisorPolicy, OptionValidationRejectsContradictions) {
  SupervisorOptions bad;
  bad.retry.jitter_frac = 1.5;
  EXPECT_THROW(validate_supervisor_options(bad), std::invalid_argument);
  bad = SupervisorOptions{};
  bad.quarantine.threshold = 0;
  EXPECT_THROW(validate_supervisor_options(bad), std::invalid_argument);
  bad = SupervisorOptions{};
  bad.retry.backoff_max_s = 0.1;
  bad.retry.backoff_base_s = 0.5;
  EXPECT_THROW(validate_supervisor_options(bad), std::invalid_argument);
  bad = SupervisorOptions{};
  bad.retry.max_retries = -1;
  EXPECT_THROW(validate_supervisor_options(bad), std::invalid_argument);
}

TEST(SupervisorPolicy, BackoffIsDeterministicDoublesAndCaps) {
  RetryPolicy p;
  p.backoff_base_s = 0.5;
  p.backoff_max_s = 4.0;
  p.jitter_frac = 0.25;
  // Deterministic: same (job, failure index) -> bit-identical delay.
  for (int k = 0; k < 6; ++k)
    EXPECT_EQ(backoff_with_jitter(p, "job-a", k), backoff_with_jitter(p, "job-a", k));
  // Distinct jobs jitter differently at the same failure index.
  EXPECT_NE(backoff_with_jitter(p, "job-a", 1), backoff_with_jitter(p, "job-b", 1));
  // Exponential base growth, capped before jitter: never above cap*(1+jitter).
  RetryPolicy plain = p;
  plain.jitter_frac = 0.0;
  EXPECT_DOUBLE_EQ(backoff_with_jitter(plain, "j", 0), 0.5);
  EXPECT_DOUBLE_EQ(backoff_with_jitter(plain, "j", 1), 1.0);
  EXPECT_DOUBLE_EQ(backoff_with_jitter(plain, "j", 2), 2.0);
  EXPECT_DOUBLE_EQ(backoff_with_jitter(plain, "j", 3), 4.0);
  EXPECT_DOUBLE_EQ(backoff_with_jitter(plain, "j", 9), 4.0);  // cap holds
  for (int k = 0; k < 12; ++k) {
    const double d = backoff_with_jitter(p, "job-a", k);
    EXPECT_LE(d, p.backoff_max_s * (1.0 + p.jitter_frac));
    EXPECT_GE(d, p.backoff_base_s);
  }
}

TEST(SupervisorJobFile, RoundTripAndMalformedRejection) {
  JobSpec a = poison_job("alpha");
  a.deadline_steps = 5;
  a.ckpt_interval = 2;
  JobConfig fb;
  fb.nx = 8;
  fb.ny = 6;
  a.fallbacks.push_back(fb);
  JobSpec b = small_job("beta", "mgpu");

  const std::string json = jobs_to_json({a, b});
  const std::vector<JobSpec> round = jobs_from_json(json);
  ASSERT_EQ(round.size(), 2u);
  EXPECT_EQ(round[0].id, "alpha");
  EXPECT_EQ(round[0].max_rollbacks, 0);
  EXPECT_EQ(round[0].deadline_steps, 5);
  ASSERT_EQ(round[0].faults.size(), 1u);
  EXPECT_EQ(round[0].faults[0].kind, rt::FaultKind::TransferCorruption);
  EXPECT_EQ(round[0].faults[0].count, 5000);
  ASSERT_EQ(round[0].fallbacks.size(), 1u);
  EXPECT_EQ(round[0].fallbacks[0].nx, 8);
  EXPECT_EQ(round[1].solver, "mgpu");
  EXPECT_EQ(jobs_to_json(round), json);  // canonical form is stable

  EXPECT_THROW(jobs_from_json("{\"jobs\":[{\"solver\":\"cell\"}]}"), std::invalid_argument);
  EXPECT_THROW(jobs_from_json("{\"jobs\":[]} trailing"), std::invalid_argument);
  EXPECT_THROW(jobs_from_json("{\"jobs\":[{\"id\":\"x\",\"bogus\":1}]}"),
               std::invalid_argument);
  EXPECT_THROW(terminal_state_from_name("exploded"), std::invalid_argument);
}

TEST(Supervisor, FaultFreeStreamCompletesBitExact) {
  bte::SupervisorCampaign campaign(base_scenario());
  bte::StreamShape shape;
  shape.njobs = 6;
  shape.chaos_fraction = shape.deadline_fraction = 0.0;
  shape.flaky_fraction = shape.poison_fraction = 0.0;
  shape.min_steps = 6;
  shape.max_steps = 8;
  const auto jobs = campaign.mixed_stream(11, shape);
  ASSERT_EQ(jobs.size(), 6u);

  Scheduler sched(base_scenario(), serial());
  const bte::SupervisorReport report = campaign.run_stream(sched, jobs);
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations.front());
  EXPECT_EQ(report.completed, 6);
  EXPECT_EQ(report.nonterminal, 0);
  for (const JobOutcome& o : report.outcomes) EXPECT_EQ(o.attempts.size(), 1u);
}

TEST(Supervisor, ChaosScheduleSurvivesWithinOneAttempt) {
  bte::SupervisorCampaign campaign(base_scenario());
  JobSpec spec = small_job("chaotic");
  spec.nparts = 4;
  spec.nsteps = 10;
  rt::ChaosEngine engine(5);
  rt::ChaosSpec cs;
  cs.nparts = spec.nparts;
  cs.nsteps = spec.nsteps;
  spec.faults = engine.generate("cell", cs, 0).faults;
  ASSERT_FALSE(spec.faults.empty());

  Scheduler sched(base_scenario(), serial());
  const bte::SupervisorReport report = campaign.run_stream(sched, {spec});
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations.front());
  const JobOutcome o = only(report.outcomes);
  EXPECT_EQ(o.state, TerminalState::Completed);
  // Survivable-by-design: recovery happens inside the attempt, not by retry.
  EXPECT_EQ(o.attempts.size(), 1u);
  EXPECT_GT(o.attempts[0].injected, 0);
}

TEST(Supervisor, PoisonJobTripsCircuitBreakerWithRepro) {
  const std::string root = fresh_root("poison");
  SupervisorOptions opt;
  opt.durable_root = root;
  const JobOutcome o = only(run_jobs(opt, {poison_job("toxic")}));

  EXPECT_EQ(o.state, TerminalState::Quarantined);
  EXPECT_NE(o.detail.find("circuit breaker"), std::string::npos) << o.detail;
  // Breaker trips at `threshold` consecutive failures, each under a distinct
  // derived injector seed.
  ASSERT_EQ(o.attempts.size(), static_cast<size_t>(opt.quarantine.threshold));
  for (size_t i = 0; i < o.attempts.size(); ++i) {
    EXPECT_FALSE(o.attempts[i].error.empty());
    for (size_t j = 0; j < i; ++j)
      EXPECT_NE(o.attempts[i].injector_seed, o.attempts[j].injector_seed);
  }
  // The minimized repro is attached, parseable, and on disk.
  const rt::ChaosSchedule repro = rt::schedule_from_json(o.repro_json);
  EXPECT_FALSE(repro.faults.empty());
  ASSERT_FALSE(o.repro_path.empty());
  EXPECT_EQ(rt::schedule_from_json(read_text_file(o.repro_path)).faults.size(),
            repro.faults.size());
  // Terminal record committed: a restarted scheduler must NOT re-adopt it.
  TerminalState ts{};
  std::string detail;
  terminal_from_json(read_text_file(root + "/toxic/terminal.json"), &ts, &detail);
  EXPECT_EQ(ts, TerminalState::Quarantined);
  Scheduler again(base_scenario(), serial(opt));
  EXPECT_TRUE(again.adopt_orphans().empty());
}

TEST(Supervisor, RetryBudgetExhaustedExactlyAtQuarantineThreshold) {
  // max_retries == threshold - 1: the same attempt exhausts the retry budget
  // AND trips the breaker; the job must get exactly one terminal state.
  const std::string root = fresh_root("budget_edge");
  SupervisorOptions opt;
  opt.durable_root = root;
  opt.quarantine.threshold = 3;
  opt.retry.max_retries = 2;
  const JobOutcome o = only(run_jobs(opt, {poison_job("edge")}));
  EXPECT_EQ(o.state, TerminalState::Quarantined);
  EXPECT_EQ(o.attempts.size(), 3u);
  // Precedence: the breaker (quarantine) claims it, and only one terminal
  // record exists on disk.
  EXPECT_NE(o.detail.find("circuit breaker"), std::string::npos) << o.detail;
  TerminalState ts{};
  std::string detail;
  terminal_from_json(read_text_file(root + "/edge/terminal.json"), &ts, &detail);
  EXPECT_EQ(ts, TerminalState::Quarantined);

  // Budget strictly smaller than the threshold: quarantine still the terminal
  // state, but attributed to the exhausted retry budget.
  SupervisorOptions tight = opt;
  tight.durable_root = fresh_root("budget_tight");
  tight.retry.max_retries = 1;
  const JobOutcome o2 = only(run_jobs(tight, {poison_job("tight")}));
  EXPECT_EQ(o2.state, TerminalState::Quarantined);
  EXPECT_EQ(o2.attempts.size(), 2u);
  EXPECT_NE(o2.detail.find("retry budget exhausted"), std::string::npos) << o2.detail;
}

TEST(Supervisor, FlakyJobRetryResumesFromManifestNotStepZero) {
  bte::SupervisorCampaign campaign(base_scenario());
  bte::StreamShape shape;
  shape.njobs = 1;
  shape.flaky_fraction = 1.0;
  shape.chaos_fraction = shape.deadline_fraction = shape.poison_fraction = 0.0;
  shape.min_steps = shape.max_steps = 9;
  const auto jobs = campaign.mixed_stream(3, shape);
  ASSERT_EQ(jobs.size(), 1u);
  ASSERT_EQ(jobs[0].faults.size(), 2u);

  SupervisorOptions opt;
  opt.durable_root = fresh_root("flaky");
  Scheduler sched(base_scenario(), serial(opt));
  const bte::SupervisorReport report = campaign.run_stream(sched, jobs);
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations.front());
  const JobOutcome o = only(report.outcomes);
  EXPECT_EQ(o.state, TerminalState::Completed);
  ASSERT_EQ(o.attempts.size(), 2u);
  EXPECT_FALSE(o.attempts[0].error.empty());
  // The retry resumed from a durable generation: provenance says resumed,
  // and it started past step 0 (no step-0 replay).
  EXPECT_TRUE(o.attempts[1].resumed);
  EXPECT_GT(o.attempts[1].start_step, 0);
  EXPECT_EQ(report.resumed_retries, 1);
  EXPECT_EQ(report.step0_replays, 0);
  // Backoff was charged to the virtual clock, deterministically.
  EXPECT_DOUBLE_EQ(o.attempts[1].backoff_s,
                   backoff_with_jitter(opt.retry, o.spec.id, 0));
  // Time to terminal is on the scheduler's clock: attempt 0's predicted
  // duration, then the backoff timer, then attempt 1's predicted duration,
  // summed in the order the event loop advances.
  const double attempt_s =
      predict_cost_units(o.ran, o.spec.nsteps) * sched.options().cost_per_unit_s;
  EXPECT_EQ(o.time_to_terminal_s, (attempt_s + o.attempts[1].backoff_s) + attempt_s);
}

TEST(Supervisor, DeadlineDrainsToCancelledAndStaysResumable) {
  const std::string root = fresh_root("deadline");
  SupervisorOptions opt;
  opt.durable_root = root;
  JobSpec spec = small_job("late");
  spec.nsteps = 10;
  spec.deadline_steps = 4;
  spec.ckpt_interval = 2;
  const JobOutcome o = only(run_jobs(opt, {spec}));
  EXPECT_EQ(o.state, TerminalState::Cancelled);
  EXPECT_NE(o.detail.find("deadline"), std::string::npos) << o.detail;
  EXPECT_GE(o.final_step, 4);
  EXPECT_LT(o.final_step, 10);
  // Drain-then-resume: the durable state on disk is a valid resume point.
  const std::optional<rt::Generation> gen = rt::find_latest_generation(root + "/late");
  ASSERT_TRUE(gen.has_value());
  const rt::RunManifest& m = gen->manifest;
  EXPECT_EQ(m.last_step, o.final_step);
  EXPECT_FALSE(m.cancel_reason.empty());
}

TEST(Supervisor, ShedJobNeverTouchesTheMemoryBudget) {
  rt::MemoryBudget budget(8 << 20);  // 8 MB: far too small for any solve
  SupervisorOptions opt;
  opt.memory = &budget;
  JobSpec spec = small_job("huge");
  spec.nx = 64;
  spec.ny = 64;
  const JobOutcome o = only(run_jobs(opt, {spec}));
  EXPECT_EQ(o.state, TerminalState::Shed);
  EXPECT_TRUE(o.attempts.empty());
  // The shed path is pure arithmetic: no reservation, no relief chain run,
  // the budget is untouched.
  EXPECT_EQ(budget.in_use(), 0);
}

TEST(Supervisor, FallbackLadderDegradesBeforeShedding) {
  // Budget sized so the top rung cannot fit but the declared fallback can.
  bte::PhysicsCache cache;
  bte::BteScenario big = base_scenario();
  big.nx = 64;
  big.ny = 64;
  big.ndirs = 8;
  big.nbands = 6;
  const auto phys = cache.get(6, 8);
  const auto big_demand = bte::estimate_memory_demand("cell", big, *phys, 3);
  bte::BteScenario small = big;
  small.nx = 12;
  small.ny = 8;
  const auto small_demand = bte::estimate_memory_demand("cell", small, *phys, 3);
  ASSERT_LT(small_demand.total_bytes() * 4, big_demand.total_bytes());

  rt::MemoryBudget budget(small_demand.total_bytes() * 2);
  SupervisorOptions opt;
  opt.memory = &budget;
  JobSpec spec = small_job("ladder");
  spec.nx = 64;
  spec.ny = 64;
  JobConfig rung;
  rung.nx = 12;
  rung.ny = 8;
  spec.fallbacks.push_back(rung);
  const JobOutcome o = only(run_jobs(opt, {spec}));
  EXPECT_EQ(o.state, TerminalState::Completed);
  EXPECT_EQ(o.degraded_rung, 0);
  EXPECT_EQ(o.ran.nx, 12);
  EXPECT_EQ(o.ran.ny, 8);
  EXPECT_EQ(budget.in_use(), 0);  // released at terminal

  // Bit-exact vs the fault-free reference of the rung that actually ran.
  bte::SupervisorCampaign campaign(base_scenario());
  const auto report = campaign.judge({spec}, {o}, opt);
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations.front());
  EXPECT_EQ(report.degraded, 1);
}

TEST(Supervisor, DuplicateAndInvalidSubmissionsRejected) {
  // Validation runs before admission: a batch holding any invalid spec is
  // refused whole, so not even its valid job commits a job.json.
  JobSpec no_id = small_job("");
  JobSpec bad_solver = small_job("bad");
  bad_solver.solver = "quantum";
  JobSpec bad_steps = small_job("steps");
  bad_steps.nsteps = 0;
  JobSpec bad_fallback = small_job("fb");
  JobConfig fb;
  fb.solver = "quantum";
  bad_fallback.fallbacks.push_back(fb);
  for (const JobSpec& bad : {small_job("dup"), no_id, bad_solver, bad_steps, bad_fallback}) {
    SupervisorOptions opt;
    opt.durable_root = fresh_root("invalid");
    Scheduler sched(base_scenario(), serial(opt));
    EXPECT_THROW(sched.run(at_time_zero({small_job("dup"), bad})), std::invalid_argument)
        << "'" << bad.id << "'";
    EXPECT_FALSE(file_exists(opt.durable_root + "/dup/job.json")) << "'" << bad.id << "'";
  }
}

#ifdef FINCH_HAVE_FORK
// Crash-restart: the child scheduler is SIGKILLed mid-job right after a
// checkpoint generation commits (the commit-hook harness, filtered to
// generation renames). The restarted parent scheduler adopts the orphaned job
// directory — job.json present, terminal.json absent — and drives it to
// Completed bit-exactly, resuming from the committed generation.
TEST(SupervisorCrash, RestartReadoptsJobWhoseManifestCommittedBeforeDeath) {
  const std::string root = fresh_root("crash");
  JobSpec spec = small_job("orphan");
  spec.nsteps = 10;
  spec.ckpt_interval = 2;
  SupervisorOptions opt;
  opt.durable_root = root;

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: die mid-step once the generation for step 6 has committed
    // (step 0 stays in memory; steps 2, 4 and 6 commit).
    static int generation_commits = 0;
    rt::set_checkpoint_commit_hook([](const std::string& path, rt::CommitPhase phase) {
      if (phase != rt::CommitPhase::AfterRename) return;
      if (path.find("checkpoint_") == std::string::npos) return;
      if (++generation_commits == 3) ::raise(SIGKILL);
    });
    Scheduler victim(base_scenario(), serial(opt));
    victim.run(at_time_zero({spec}));
    ::_exit(42);  // unreachable when the kill landed
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited with " << WEXITSTATUS(status);
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // The job is an orphan: spec committed, no terminal record, newest
  // generation at step 6.
  EXPECT_TRUE(file_exists(root + "/orphan/job.json"));
  EXPECT_FALSE(file_exists(root + "/orphan/terminal.json"));
  const std::optional<rt::Generation> gen = rt::find_latest_generation(root + "/orphan");
  ASSERT_TRUE(gen.has_value());
  EXPECT_EQ(gen->manifest.last_step, 6);

  Scheduler restarted(base_scenario(), serial(opt));
  const auto adopted = restarted.adopt_orphans();
  ASSERT_EQ(adopted.size(), 1u);
  EXPECT_EQ(adopted[0], "orphan");
  const JobOutcome o = only(restarted.run({}).outcomes);
  EXPECT_EQ(o.state, TerminalState::Completed);
  EXPECT_TRUE(o.adopted);
  ASSERT_EQ(o.attempts.size(), 1u);
  EXPECT_TRUE(o.attempts[0].resumed);
  EXPECT_EQ(o.attempts[0].start_step, 6);

  // The oracle holds across the crash: bit-exact vs fault-free reference.
  bte::SupervisorCampaign campaign(base_scenario());
  const auto report = campaign.judge({spec}, {o}, opt);
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations.front());
  EXPECT_EQ(report.adopted, 1);
}
#endif  // FINCH_HAVE_FORK
