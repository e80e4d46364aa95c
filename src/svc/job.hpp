#pragma once
// Job model for the job service: specs, attempts, terminal outcomes.
//
// A JobSpec describes one BTE solve the way a scientist would hand it to a
// queue: which solver, what discretization, how many steps, an optional
// deterministic chaos schedule to survive, an optional step deadline, and a
// declared fallback ladder of smaller configurations admission control may
// degrade to. The scheduler (svc/scheduler.hpp) drives every admitted spec
// to exactly one terminal state:
//
//   Completed   — run finished all steps (possibly after retries/resumes)
//   Cancelled   — a step deadline drained the run at a step boundary;
//                 durable jobs stay resumable on disk
//   Quarantined — the poison circuit breaker tripped: repeated failures
//                 across distinct injector seeds, never retried again,
//                 minimized repro attached
//   Shed        — admission control refused every rung of the fallback
//                 ladder, or a full queue evicted it for a higher-priority
//                 arrival; the job never allocated anything
//
// AttemptRecord is the audit trail the oracle (bte/supervisor_campaign.hpp)
// checks: per-attempt injection accounting, resume provenance (did a retry
// restart from a durable generation or from step 0), and backoff charged to
// the virtual clock.

#include <cstdint>
#include <string>
#include <vector>

#include "bte/resilience.hpp"
#include "runtime/chaos.hpp"

namespace finch::svc {

enum class TerminalState {
  Pending = 0,  // not yet terminal (queued or running)
  Completed,
  Cancelled,
  Quarantined,
  Shed,
};

const char* terminal_state_name(TerminalState s);

// One rung of a job's configuration ladder. Zero means "inherit from the
// spec's top-level value" so fallback rungs only name what they shrink.
struct JobConfig {
  std::string solver;  // empty = inherit
  int nparts = 0;
  int nx = 0;
  int ny = 0;
  int ndirs = 0;
  int nbands = 0;
};

struct JobSpec {
  std::string id;
  // Multi-tenant scheduling: the tenant this job is billed to (fair-share
  // queue + memory partition) and its shedding priority — higher values
  // survive overload longer; under a full admission queue the lowest-priority
  // job is shed first. With one tenant and an unbounded queue both are inert.
  std::string tenant = "default";
  int priority = 0;
  std::string solver = "cell";  // "cell" | "band" | "mgpu"
  int nparts = 4;
  int nx = 16;
  int ny = 12;
  int ndirs = 8;
  int nbands = 8;
  int nsteps = 12;
  uint64_t seed = 1;  // base injector seed; retries derive distinct seeds
  // Deterministic fault schedule armed on every attempt (empty = fault-free).
  std::vector<rt::ChaosFault> faults;
  // Drain the run via rt::CancelToken once this many steps have completed
  // (0 = no deadline).
  int64_t deadline_steps = 0;
  // Per-job overrides of the defense defaults; negative = keep the default.
  int max_rollbacks = -1;
  int ckpt_interval = -1;
  // Admission fallback ladder, tried in order after the top-level config.
  std::vector<JobConfig> fallbacks;
};

// Audit record of one attempt at a job.
struct AttemptRecord {
  int index = 0;
  uint64_t injector_seed = 0;
  bool resumed = false;    // restarted from a durable generation
  int64_t start_step = 0;  // step_index the attempt began at
  int64_t end_step = 0;    // step_index when the attempt ended
  int64_t generations = 0; // durable checkpoint generations it committed
  double backoff_s = 0.0;  // virtual backoff charged before this attempt
  double virtual_s = 0.0;  // solver virtual clock consumed by this attempt
  double phase_total_s = 0.0;
  int64_t injected = 0;       // injector fires during this attempt
  int64_t events_logged = 0;  // injector event-log entries at attempt end
  std::string error;          // empty on success / drain
};

struct JobOutcome {
  JobSpec spec;
  TerminalState state = TerminalState::Pending;
  std::string detail;      // human-readable reason for the terminal state
  JobConfig ran;           // resolved config of the rung that actually ran
  int degraded_rung = -1;  // -1 = top-level config; >=0 = fallbacks[i]
  bool adopted = false;    // re-adopted from an orphaned durable job directory
  int64_t final_step = 0;
  double time_to_terminal_s = 0.0;  // virtual seconds arrival -> terminal
  std::vector<AttemptRecord> attempts;
  std::vector<double> temperature;  // populated for Completed jobs
  std::vector<double> intensity;
  bte::ResilienceStats stats;  // stats of the final attempt
  std::string repro_json;      // minimized chaos repro (Quarantined only)
  std::string repro_path;      // where the repro artifact was written
};

}  // namespace finch::svc
