// bench_supervisor: multi-job goodput under fault pressure, plus the
// crash-restart acceptance run for the job scheduler. Acts 1 and 2 and act
// 3's serial baseline run on a one-slot svc::Scheduler, the serial case.
//
// Act 1 sweeps a deterministic mixed job stream (plain / chaos / flaky /
// poison / deadline jobs, see bte::SupervisorCampaign) through the scheduler
// at three fault densities — none, low, high — and reports throughput
// (jobs/sec wall), time-to-terminal percentiles, and goodput (completed
// solver steps per virtual second, so retries, backoff and quarantined work
// all show up as lost goodput). A job's time is what its attempts measured:
// each attempt's backoff plus its solver virtual seconds, summed per job.
// Every stream must end with 100% of jobs in a terminal state, the campaign
// oracle clean (completed jobs bit-exact vs the fault-free reference), and
// zero step-0 replays: durable retries resume from the newest checkpoint
// generation.
//
// Act 2 is the crash acceptance criterion: a child process runs a faulted
// campaign and SIGKILLs itself from inside a generation-commit window; the
// parent restarts a fresh scheduler on the same durable root, re-adopts
// every orphaned job, runs them to terminal states, and the oracle must
// hold across the restart — completed-before-death jobs stay terminal on
// disk, adopted in-flight jobs resume instead of replaying from step 0.
//
// Act 3 is the ISSUE-9 overload acceptance: the same job mix first runs on
// one slot (its measured seconds calibrate the scheduler's cost model),
// then arrives open-loop at 2x the service capacity of a 4-slot scheduler
// across 3 equal-weight tenants with a bounded queue. The extended oracle
// must hold — 100% of admitted jobs terminal, every tenant's goodput >= 60%
// of its fair share, sheds strictly lowest-priority-first, zero
// starvation-watchdog violations — and the 4-slot virtual-clock throughput
// must be >= 2x the one-slot baseline's on the same mix.
//
// Usage: bench_supervisor [--njobs N] [--seed N] [--json FILE]
//                         [--metrics-json FILE] [--trace FILE]
// FINCH_BENCH_FAST=1 (or --njobs 20) shrinks the stream for PR-time CI.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bte/supervisor_campaign.hpp"
#include "fig_common.hpp"
#include "runtime/checkpoint.hpp"
#include "svc/job_file.hpp"
#include "svc/scheduler.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#define FINCH_HAVE_FORK 1
#endif

using namespace finch;
using namespace finch::bte;

using bench::check;
using bench::small_scenario;

namespace {

struct Density {
  const char* name;
  StreamShape shape;  // njobs filled in by main
};

std::vector<Density> densities() {
  Density none{"none", {}};
  none.shape.chaos_fraction = 0.0;
  none.shape.deadline_fraction = 0.0;
  none.shape.flaky_fraction = 0.0;
  none.shape.poison_fraction = 0.0;
  Density low{"low", {}};
  low.shape.chaos_fraction = 0.15;
  low.shape.deadline_fraction = 0.05;
  low.shape.flaky_fraction = 0.05;
  low.shape.poison_fraction = 0.02;
  Density high{"high", {}};  // StreamShape defaults are the high-density mix
  return {none, low, high};
}

std::string fresh_root(const std::string& name) {
  const std::string root = "supervisor_bench_" + name;
#if defined(__unix__) || defined(__APPLE__)
  const std::string cmd = "rm -rf " + root;
  [[maybe_unused]] const int rc = std::system(cmd.c_str());
#endif
  return root;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

// A job's measured time: each attempt's backoff plus its solver virtual
// seconds, in attempt order.
double job_seconds(const svc::JobOutcome& o) {
  double s = 0.0;
  for (const svc::AttemptRecord& a : o.attempts) s += a.backoff_s + a.virtual_s;
  return s;
}

// Completed solver steps per virtual second across the whole stream — the
// bench's goodput: faults, retries and backoff spend virtual time without
// adding completed steps.
double goodput(const SupervisorReport& rep, double virtual_total_s) {
  int64_t completed_steps = 0;
  for (const svc::JobOutcome& o : rep.outcomes)
    if (o.state == svc::TerminalState::Completed) completed_steps += o.final_step;
  return virtual_total_s > 0 ? static_cast<double>(completed_steps) / virtual_total_s : 0.0;
}

#ifdef FINCH_HAVE_FORK

// Child: run the whole stream and die from inside the Nth generation-commit
// window — mid-job, checkpoints already durable.
void run_child_until_kill(const BteScenario& base, const svc::SchedulerOptions& opt,
                          const std::vector<svc::JobSpec>& jobs, int kill_at_commit) {
  static int commits = 0;
  static int target = 0;
  target = kill_at_commit;
  rt::set_checkpoint_commit_hook([](const std::string& path, rt::CommitPhase phase) {
    if (phase != rt::CommitPhase::AfterRename) return;
    if (path.find("checkpoint_") == std::string::npos) return;
    if (++commits == target) ::raise(SIGKILL);
  });
  svc::Scheduler sched(base, opt);
  std::vector<svc::Arrival> arrivals;
  for (const svc::JobSpec& j : jobs) arrivals.push_back(svc::Arrival{0.0, j, false});
  (void)sched.run(std::move(arrivals));
  ::_exit(41);  // the kill point never fired: distinct failure code
}

bool crash_child(const BteScenario& base, const svc::SchedulerOptions& opt,
                 const std::vector<svc::JobSpec>& jobs, int kill_at_commit) {
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    run_child_until_kill(base, opt, jobs, kill_at_commit);
    ::_exit(40);  // unreachable
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return false;
  return WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
}

#endif  // FINCH_HAVE_FORK

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  const bool fast = std::getenv("FINCH_BENCH_FAST") != nullptr;
  int njobs = fast ? 20 : 210;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--njobs" && i + 1 < argc) njobs = std::atoi(argv[i + 1]);

  bench::print_header("Supervisor",
                      "multi-job goodput under fault pressure + crash-restart adoption");
  bench::JsonBench json = bench::bench_json("bench_supervisor", args);
  json.set("njobs", njobs);

  const BteScenario base = small_scenario();
  SupervisorCampaign campaign(base);

  // ---- act 1: fault-density sweep ------------------------------------------
  std::printf("%-6s %6s %8s %10s %10s %10s %6s %5s %5s %5s %5s\n", "chaos", "jobs", "jobs/s",
              "p50-ttt", "p99-ttt", "goodput", "fault", "done", "canc", "quar", "shed");
  SupervisorReport high_rep;
  for (const Density& d : densities()) {
    StreamShape shape = d.shape;
    shape.njobs = njobs;
    svc::SchedulerOptions opt;
    opt.supervisor.durable_root = fresh_root(d.name);
    svc::Scheduler sched(base, opt);
    const std::vector<svc::JobSpec> jobs = campaign.mixed_stream(args.seed, shape);

    const auto t0 = std::chrono::steady_clock::now();
    const SupervisorReport rep = campaign.run_stream(sched, jobs);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    std::vector<double> ttt;
    double virtual_total_s = 0.0;
    for (const svc::JobOutcome& o : rep.outcomes) {
      ttt.push_back(job_seconds(o));
      virtual_total_s += ttt.back();
    }
    const double jobs_per_s = wall_s > 0 ? static_cast<double>(rep.total) / wall_s : 0.0;
    const double p50 = percentile(ttt, 0.50), p99 = percentile(ttt, 0.99);
    const double gp = goodput(rep, virtual_total_s);
    std::printf("%-6s %6d %8.1f %9.2es %9.2es %10.1f %6d %5d %5d %5d %5d\n", d.name, rep.total,
                jobs_per_s, p50, p99, gp, rep.faulted_jobs, rep.completed, rep.cancelled,
                rep.quarantined, rep.shed);
    for (const std::string& v : rep.violations) std::printf("  VIOLATION %s\n", v.c_str());

    check(rep.nonterminal == 0,
          std::string(d.name) + ": 100% of jobs reached a terminal state");
    check(rep.ok(), std::string(d.name) + ": campaign oracle clean (completed jobs bit-exact, " +
                        std::to_string(rep.violations.size()) + " violations)");
    check(rep.step0_replays == 0,
          std::string(d.name) + ": no durable retry replayed from step 0");
    if (std::string(d.name) == "none")
      check(rep.completed == rep.total, "fault-free stream completes every job");
    if (std::string(d.name) == "high") high_rep = rep;

    json.begin_row();
    json.cell("density", d.name[0] == 'n' ? 0 : (d.name[0] == 'l' ? 1 : 2));
    json.cell("jobs", rep.total);
    json.cell("jobs_per_sec_wall", jobs_per_s);
    json.cell("p50_time_to_terminal_s", p50);
    json.cell("p99_time_to_terminal_s", p99);
    json.cell("goodput_steps_per_vsec", gp);
    json.cell("faulted", rep.faulted_jobs);
    json.cell("completed", rep.completed);
    json.cell("cancelled", rep.cancelled);
    json.cell("quarantined", rep.quarantined);
    json.cell("shed", rep.shed);
    json.cell("retried", rep.retried_jobs);
    json.cell("resumed_retries", rep.resumed_retries);
    json.cell("violations", static_cast<double>(rep.violations.size()));
  }
  // The soak criterion: at high density at least 30% of the stream carries a
  // fault schedule, and every retry that follows a durable checkpoint
  // resumes from its generation (counted above as step0_replays=0). Step 0
  // is never committed, so a retry of a job that died before its first
  // generation (a poison job) has nothing to resume.
  check(high_rep.faulted_jobs * 100 >= 30 * high_rep.total,
        "high density: >= 30% of jobs faulted (" + std::to_string(high_rep.faulted_jobs) + "/" +
            std::to_string(high_rep.total) + ")");
  if (high_rep.resumable_retries > 0)
    check(high_rep.resumed_retries > 0,
          "high density: retried jobs resumed from durable generations (" +
              std::to_string(high_rep.resumed_retries) + " resumed retries)");
  if (njobs >= 100) {
    check(high_rep.retried_jobs > 0, "high density: the stream exercised retries");
    check(high_rep.quarantined > 0, "high density: the stream tripped the poison breaker");
    check(high_rep.cancelled > 0, "high density: the stream drained deadline jobs");
  }

  // ---- act 2: SIGKILL the scheduler mid-campaign, restart, re-adopt --------
#ifdef FINCH_HAVE_FORK
  {
    const int kill_jobs = fast ? 10 : 24;
    StreamShape shape;  // high-density defaults
    shape.njobs = kill_jobs;
    svc::SchedulerOptions opt;
    opt.supervisor.durable_root = fresh_root("kill");
    const std::vector<svc::JobSpec> jobs =
        campaign.mixed_stream(args.seed ^ 0x5eedULL, shape);
    // Far enough in that several jobs are already terminal and one is mid-run
    // with durable checkpoints, early enough that a tail of jobs is queued.
    const int kill_at_commit = 2 * kill_jobs;
    const bool killed = crash_child(base, opt, jobs, kill_at_commit);
    check(killed, "child scheduler died by SIGKILL inside a generation-commit window");

    int terminal_before = 0;
    for (const svc::JobSpec& j : jobs)
      if (svc::file_exists(opt.supervisor.durable_root + "/" + j.id + "/terminal.json"))
        ++terminal_before;

    svc::Scheduler restarted(base, opt);
    const std::vector<std::string> adopted = restarted.adopt_orphans();
    check(!adopted.empty() && terminal_before + static_cast<int>(adopted.size()) ==
                                  static_cast<int>(jobs.size()),
          "restart accounts for every job: " + std::to_string(terminal_before) +
              " terminal before death + " + std::to_string(adopted.size()) + " adopted");

    const std::vector<svc::JobOutcome> outcomes = restarted.run({}).outcomes;
    std::vector<svc::JobSpec> adopted_specs;
    for (const svc::JobSpec& j : jobs)
      for (const std::string& id : adopted)
        if (j.id == id) adopted_specs.push_back(j);
    const SupervisorReport rep =
        campaign.judge(adopted_specs, outcomes, restarted.options().supervisor);
    for (const std::string& v : rep.violations) std::printf("  VIOLATION %s\n", v.c_str());
    int resumed_adopted = 0;
    for (const svc::JobOutcome& o : outcomes)
      if (!o.attempts.empty() && o.attempts.front().resumed) ++resumed_adopted;
    std::printf("crash restart: %d terminal before death, %zu adopted, %d resumed from "
                "generations, %d completed after restart\n",
                terminal_before, adopted.size(), resumed_adopted, rep.completed);
    check(rep.nonterminal == 0 && rep.ok(),
          "every re-adopted job reached a terminal state with the oracle intact");
    check(resumed_adopted > 0,
          "the in-flight job resumed from its durable generation after the restart");
    json.set("kill_jobs", kill_jobs);
    json.set("kill_terminal_before", terminal_before);
    json.set("kill_adopted", static_cast<double>(adopted.size()));
    json.set("kill_resumed_adopted", resumed_adopted);
    json.set("kill_completed_after", rep.completed);
  }
#else
  std::printf("fork() unavailable on this platform; crash-restart act skipped\n");
#endif

  // ---- act 3: overload — 2x capacity, 3 tenants, bounded queue -------------
  {
    OverloadShape oshape;
    oshape.njobs = fast ? 60 : 300;
    const int mc = 4;

    // Serial baseline: a one-slot scheduler runs the identical job mix as
    // one batch. Its measured seconds (backoff plus solver virtual seconds,
    // summed over every attempt) calibrate the 4-slot run's cost model, so
    // the two throughput numbers share one currency. The default retry
    // backoff (0.5 s base) was tuned for much larger jobs; these run in tens
    // of milliseconds, so both runs scale the policy to the job scale —
    // otherwise backoff tails, not service, dominate both clocks.
    svc::RetryPolicy retry;
    retry.backoff_base_s = 0.002;
    retry.backoff_max_s = 0.032;
    const std::vector<svc::Arrival> shape_only =
        campaign.overload_stream(args.seed, oshape, svc::SchedulerOptions{}.cost_per_unit_s, mc);
    svc::SchedulerOptions serial_opt;
    serial_opt.supervisor.durable_root = fresh_root("overload_serial");
    serial_opt.supervisor.retry = retry;
    svc::Scheduler serial(base, serial_opt);
    double offered_units = 0.0;
    std::vector<svc::Arrival> batch;
    for (const svc::Arrival& a : shape_only) {
      offered_units += static_cast<double>(a.spec.nsteps) * a.spec.nx * a.spec.ny *
                       a.spec.ndirs * a.spec.nbands;
      batch.push_back(svc::Arrival{0.0, a.spec, false});
    }
    double serial_completed_units = 0.0, serial_vt = 0.0;
    for (const svc::JobOutcome& o : serial.run(std::move(batch)).outcomes) {
      serial_vt += job_seconds(o);
      if (o.state == svc::TerminalState::Completed)
        serial_completed_units += static_cast<double>(o.spec.nsteps) * o.spec.nx * o.spec.ny *
                                  o.spec.ndirs * o.spec.nbands;
    }
    const double serial_tp = serial_vt > 0 ? serial_completed_units / serial_vt : 0.0;
    const double cpu_cal = offered_units > 0 ? serial_vt / offered_units : 5e-9;

    svc::SchedulerOptions opt;
    opt.supervisor.durable_root = fresh_root("overload");
    opt.supervisor.retry = retry;
    opt.max_concurrency = mc;
    opt.queue_capacity = fast ? 12 : 24;
    opt.cost_per_unit_s = cpu_cal;
    const std::vector<svc::Arrival> arrivals =
        campaign.overload_stream(args.seed, oshape, cpu_cal, mc);
    svc::Scheduler sched(base, opt);
    const auto t0 = std::chrono::steady_clock::now();
    const svc::ScheduleResult res = sched.run(arrivals);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    const OverloadReport rep = campaign.judge_overload(arrivals, res, opt, 0.60);
    for (const std::string& v : rep.violations) std::printf("  VIOLATION %s\n", v.c_str());
    for (const std::string& v : rep.base.violations) std::printf("  VIOLATION %s\n", v.c_str());

    double sched_completed_units = 0.0;
    for (const auto& [name, ledger] : res.stats.tenants)
      sched_completed_units += ledger.completed_units;
    const double sched_tp = res.stats.drain_vtime_s > 0
                                ? sched_completed_units / res.stats.drain_vtime_s
                                : 0.0;
    const double speedup = serial_tp > 0 ? sched_tp / serial_tp : 0.0;
    std::printf("overload: %d arrivals (%d adm, %d rej, %d shed), %d slots, queue %d, "
                "%.1f s wall\n",
                rep.arrivals, rep.admitted, rep.rejected, rep.shed_overload, mc,
                opt.queue_capacity, wall_s);
    std::printf("          fairness min %.2f, %d boosts, %d violations, %d storm-damped, "
                "virtual throughput %.3g vs serial %.3g units/s (%.2fx)\n",
                rep.min_fair_share_ratio, res.stats.watchdog_boosts,
                res.stats.watchdog_violations, res.stats.storm_damped, sched_tp, serial_tp,
                speedup);

    check(rep.base.nonterminal == 0, "overload: 100% of admitted jobs reached a terminal state");
    check(rep.ok(), "overload: extended oracle clean (" +
                        std::to_string(rep.violations.size() + rep.base.violations.size()) +
                        " violations)");
    check(rep.min_fair_share_ratio >= 0.60,
          "overload: no tenant's goodput below 60% of fair share");
    check(res.stats.watchdog_violations == 0, "overload: the starvation watchdog never fired");
    check(speedup >= 2.0, "overload: 4-slot throughput >= 2x the one-slot baseline (" +
                              std::to_string(speedup) + "x)");

    json.set("overload_jobs", oshape.njobs);
    json.set("overload_admitted", rep.admitted);
    json.set("overload_rejected", rep.rejected);
    json.set("overload_shed", rep.shed_overload);
    json.set("overload_min_fair_share", rep.min_fair_share_ratio);
    json.set("overload_watchdog_boosts", res.stats.watchdog_boosts);
    json.set("overload_watchdog_violations", res.stats.watchdog_violations);
    json.set("overload_speedup_vs_serial", speedup);
    json.set("overload_wall_s", wall_s);
    json.set("overload_drain_vtime_s", res.stats.drain_vtime_s);
    json.set("overload_serial_vtime_s", serial_vt);
    json.set("overload_offered_units", offered_units);
    json.set("overload_completed_units", sched_completed_units);
    json.set("overload_serial_completed_units", serial_completed_units);
  }

  return bench::finish_bench(json, args);
}
