#pragma once
// SupervisorCampaign: deterministic mixed job streams + the terminal-state
// oracle that validates the svc::Scheduler end to end.
//
// A campaign is (seed, StreamShape): a reproducible stream of jobs mixing
// plain solves, survivable chaos schedules (drawn from rt::ChaosEngine, so
// they exercise in-attempt recovery), engineered *flaky* jobs (fail one
// attempt, then succeed on a durable resume), engineered *poison* jobs
// (fail every attempt and trip the quarantine breaker), deadline jobs that
// must drain to Cancelled, and oversized jobs that must degrade down their
// fallback ladder or be shed. The judge then checks, per outcome:
//
//   terminal     — every submitted job reached exactly one terminal state
//   bit_exact    — Completed jobs match the fault-free reference of the
//                  configuration that actually ran (degraded rung included),
//                  bitwise, and are finite
//   accounting   — per attempt, injector fires == event-log entries, and the
//                  phase ledger conserves the attempt's virtual clock
//   resume       — with a durable root, no retry replays from step 0 when
//                  the previous attempt got far enough to commit a durable
//                  checkpoint (the ISSUE-8 no-step-0-replay criterion)
//   quarantine   — quarantined jobs used distinct injector seeds on every
//                  attempt and carry a parseable chaos repro artifact
//   shed         — shed jobs never ran an attempt
//
// Violations are collected as human-readable strings; report.ok() is the
// CI soak's pass/fail.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "svc/scheduler.hpp"

namespace finch::bte {

struct StreamShape {
  int njobs = 20;
  double chaos_fraction = 0.30;     // survivable multi-class schedules
  double deadline_fraction = 0.10;  // drain to Cancelled mid-run
  double flaky_fraction = 0.10;     // fail once, succeed on resumed retry
  double poison_fraction = 0.05;    // fail every attempt -> quarantine
  double oversized_fraction = 0.0;  // degrade down the ladder or shed
  std::vector<std::string> solvers = {"cell", "band", "mgpu"};
  int min_steps = 8;
  int max_steps = 14;
};

struct SupervisorReport {
  int total = 0;
  int completed = 0;
  int cancelled = 0;
  int quarantined = 0;
  int shed = 0;
  int nonterminal = 0;
  int faulted_jobs = 0;    // jobs submitted with a non-empty fault schedule
  int degraded = 0;        // admitted on a fallback rung
  int adopted = 0;         // re-adopted after a scheduler restart
  int retried_jobs = 0;    // jobs that needed more than one attempt
  int resumed_retries = 0; // retry attempts that resumed from a durable generation
  // Retry attempts that followed an attempt which left a durable generation
  // (committed one, or resumed from one): each must resume.
  int resumable_retries = 0;
  int step0_replays = 0;   // resumable retries that illegally replayed from 0
  std::vector<std::string> violations;
  std::vector<svc::JobOutcome> outcomes;

  bool ok() const { return nonterminal == 0 && violations.empty(); }
};

// Shape of an open-loop overload campaign against the concurrent Scheduler:
// Poisson arrivals on the virtual clock at `load_factor` times the service
// capacity, spread across `ntenants` equal-weight tenants and `npriorities`
// shedding priorities, with small flaky/deadline admixtures so retries and
// drains interleave with the overload machinery.
struct OverloadShape {
  int njobs = 300;
  int ntenants = 3;
  int npriorities = 3;
  double load_factor = 2.0;        // offered load vs max_concurrency capacity
  double flaky_fraction = 0.08;    // fail once, succeed on resumed retry
  double deadline_fraction = 0.05; // drain to Cancelled mid-run
  int min_steps = 6;
  int max_steps = 12;
};

// Overload verdict: the base oracle on every admitted job, plus the
// scheduler-level conservation and fairness laws.
struct OverloadReport {
  SupervisorReport base;  // judged over admitted jobs only
  int arrivals = 0;
  int admitted = 0;
  int rejected = 0;
  int shed_overload = 0;               // queue-full sheds (audited)
  double min_fair_share_ratio = 1.0;   // over tenants with enough demand
  std::vector<std::string> violations; // overload-specific
  bool ok() const { return base.ok() && violations.empty(); }
};

class SupervisorCampaign {
 public:
  explicit SupervisorCampaign(const BteScenario& base) : base_(base) {}

  // Deterministic in (seed, shape): same stream forever.
  std::vector<svc::JobSpec> mixed_stream(uint64_t seed, const StreamShape& shape);

  // Runs `jobs` as one batch arriving at virtual time zero, in order, and
  // judges the outcomes. A stream the scheduler refuses (a malformed or
  // duplicate spec) becomes a violation, not an exception.
  SupervisorReport run_stream(svc::Scheduler& scheduler, const std::vector<svc::JobSpec>& jobs);

  // Judge pre-existing outcomes (e.g. after a crash-restart run) against
  // their specs and the supervisor options they ran under.
  SupervisorReport judge(const std::vector<svc::JobSpec>& jobs,
                         const std::vector<svc::JobOutcome>& outcomes,
                         const svc::SupervisorOptions& options);

  // Deterministic in (seed, shape): Poisson arrival schedule whose mean
  // inter-arrival time offers `shape.load_factor` times the service capacity
  // of `max_concurrency` slots under the scheduler's cost model.
  std::vector<svc::Arrival> overload_stream(uint64_t seed, const OverloadShape& shape,
                                            double cost_per_unit_s, int max_concurrency);

  // Judges a Scheduler run of `arrivals`: rejected/admitted partition, the
  // base oracle over every admitted job, per-tenant fair-share goodput >=
  // `fairness_bound` of the weight-proportional share (for tenants whose
  // demand could fill it), shed order strictly lowest-priority-first, zero
  // starvation-watchdog violations, and attempt-count conservation.
  OverloadReport judge_overload(const std::vector<svc::Arrival>& arrivals,
                                const svc::ScheduleResult& result,
                                const svc::SchedulerOptions& options,
                                double fairness_bound);

 private:
  struct Reference {
    std::vector<double> T, I;
  };
  const Reference& reference(const svc::JobConfig& cfg, int nsteps);
  // Fault-free consultation count of (TransferCorruption, halo) for the
  // canonical flaky-job configuration — exact fire placement for engineered
  // retry jobs.
  int64_t probe_halo_consults(int nsteps);

  BteScenario base_;
  PhysicsCache physics_;
  std::map<std::string, Reference> refs_;
  std::map<int, int64_t> probe_cache_;
};

}  // namespace finch::bte
