#pragma once
// The job service: drives every admitted BTE job to exactly one terminal
// state under composed robustness policies, running up to `max_concurrency`
// attempts at once. The defaults — one slot, an unbounded queue, the one
// `default` tenant — are the serial case: jobs run in arrival order, one
// attempt at a time.
//
// The per-attempt mechanics live in AttemptEngine, an attempt-granularity
// state machine that composes the runtime primitives the earlier layers
// proved out:
//
//   retry     — a failed attempt is retried with exponential backoff +
//               deterministic jitter charged to the virtual clock, under a
//               distinct derived injector seed; when the job is durable the
//               retry resumes from its newest readable checkpoint frame
//               (rt::find_latest_generation) instead of replaying from step 0
//   quarantine— the poison circuit breaker: `threshold` consecutive failures
//               across distinct seeds (or an exhausted retry budget) parks
//               the job permanently, with the fault schedule ddmin-minimized
//               into a replayable repro artifact
//   admission — before anything allocates, the job's declared fallback
//               ladder is walked against its tenant's partition of the
//               shared rt::MemoryBudget using the estimate_memory_demand
//               model; the first rung that fits is admitted (degraded if it
//               is not the top rung), and a job no rung can fit is shed
//               WITHOUT ever touching the budget
//   deadline  — per-job step deadlines drain the run cooperatively at a step
//               boundary via rt::CancelToken; a drained durable job stays
//               resumable on disk
//
// Policy precedence within one pass: cancel > quarantine > retry > shed.
//
// Crash safety. A durable root holds two append-only files. The record
// journal, `<root>/jobs.log` (JobJournal, job_file.hpp), holds an admission
// record per admitted job and a terminal record at its terminal transition;
// only the coordinating thread appends to it. The generation log,
// `<root>/generations.log` (rt::GenerationLog), holds every job's
// checkpoint frames under its id; attempts append to it from their worker
// threads. One group commit — an fdatasync of each file appended to since
// the last one, the journal first — runs before each attempt wave and
// before run() returns. So a job's admission is durable before any of its
// attempts starts, a generation is durable by the next wave, and every
// terminal record is durable when run() returns. A power loss drops at most
// what was appended since the last wave started: a dropped admission
// belongs to a job that never started, a dropped frame leaves its job the
// newest synced one (or step 0), and a job whose terminal record is dropped
// is re-adopted and re-runs its tail from its newest frame. A job's frames
// are garbage once its terminal record is durable, and the log's compaction
// drops them. `<root>/<id>/` is made only for a quarantined job's
// QUARANTINE_repro.json. A restarted scheduler calls adopt_orphans() to
// re-queue every job whose last journal record is its admission — exactly
// the jobs a dead scheduler left in flight — and their first attempt
// resumes from the newest frame the log holds for them, like any retry.
//
// Determinism under concurrency. The scheduler is a discrete-event simulator
// on the shared virtual clock: arrivals, retry timers and attempt completions
// are processed strictly in virtual-time order on the coordinating thread,
// with attempt *durations* taken from a deterministic cost model
// (predict_cost_units × cost_per_unit_s), never from wall time. Because
// event ordering needs only predicted durations, real execution is deferred:
// when the earliest completion event's attempt has not run yet, every
// dispatched-but-unexecuted attempt executes in one ThreadPool wave. In
// steady state a wave carries ~max_concurrency attempts, so solvers, fault
// injectors, metrics and memory budgets genuinely race (TSan-visible) while
// the scheduling trajectory — admission, fair-share order, shedding, watchdog
// decisions — is a pure function of (arrivals, options). Actual solver
// virtual seconds still land in the AttemptRecords for the oracle's ledger
// checks. A retry waits out its backoff on a timer and re-queues behind the
// jobs already queued, keeping its budget reservation meanwhile.
//
// Overload behavior, in precedence order at a full admission queue:
//   reject  — an arrival that would not out-rank any queued job is refused
//             with a deterministic retry_after estimate (backpressure: the
//             job never enters the system, no terminal state is fabricated)
//   shed    — otherwise the lowest-priority queued job is evicted to make
//             room (terminal Shed, audited so the oracle can prove sheds are
//             strictly lowest-priority-first)
// Below the full-queue cliff the *brownout ladder* degrades instead of
// refusing: past `brownout_start` queue fill new dispatches skip the top
// rung of their fallback ladder; past `blackout_start` only the cheapest
// rung is considered. Memory admission is charged against a per-tenant
// partition of the shared rt::MemoryBudget (capacity split by fair-share
// weight), so one tenant's appetite cannot evict another's checkpoints.
//
// Fair share is deficit round-robin over per-tenant FIFO queues: each visit
// grants a tenant `quantum × weight` cost units of deficit, the quantum
// being the largest arrival's predicted cost (so any job is servable within
// one visit); jobs are dispatched while the deficit covers their predicted
// cost. A flooding tenant therefore bounds its own queue, not its
// neighbors' goodput.
//
// The starvation watchdog tracks queue age: a job aging past half of
// `max_queue_age_s` is dispatched next regardless of
// DRR order (counted in `watchdog_boosts`); a job that ever waits past the
// bound is a `watchdog_violation` — the overload oracle requires zero.
// Retry storms are damped: more than `storm_threshold` retry requeues inside
// a sliding `storm_window_s` stretches subsequent backoffs by
// `storm_factor` (on top of per-job FNV jitter decorrelation).
//
// Observability: the run is wrapped in an `svc.sched` span, execution waves
// in `svc.sched.wave`, attempts in `svc.attempt`; metrics land under `svc.*`
// and `svc.sched.*` (terminal transitions, retries, queue depth/age,
// shed-by-priority, per-tenant goodput — see OBSERVABILITY.md).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bte/solver_factory.hpp"
#include "job.hpp"
#include "policy.hpp"
#include "runtime/memory.hpp"

namespace finch::rt {
class GenerationLog;
class ThreadPool;
}

namespace finch::svc {

class JobJournal;

// Attempt-granularity execution core. resolve() and run_attempt() are safe
// to call from several threads at once for DISTINCT jobs (each attempt owns
// its solver, injector and cancel token; the physics cache and any shared
// MemoryBudget serialize internally). decide() and minimize_repro() are pure
// policy/replay helpers driven from the coordinating thread.
class AttemptEngine {
 public:
  // A spec resolved onto one rung of its ladder: concrete config, scenario
  // and shared physics.
  struct Resolved {
    JobSpec spec;
    JobConfig cfg;
    bte::BteScenario scenario;
    std::shared_ptr<const bte::BtePhysics> physics;
  };
  struct Result {
    AttemptRecord rec;
    bte::ResilienceStats stats;
    bool completed = false;
    bool drained = false;
    std::string drain_reason;
    std::vector<double> T, I;
  };
  // The state machine's verdict on what attempt k's result means for the job.
  enum class Next {
    Complete,    // terminal: Completed
    Drain,       // terminal: Cancelled (step deadline)
    Retry,       // schedule attempt k+1 after backoff
    Quarantine,  // terminal: circuit breaker or retry budget exhausted
  };
  struct Decision {
    Next next = Next::Retry;
    std::string detail;  // terminal detail for Complete/Drain/Quarantine
  };

  // `options` must outlive the engine (the owning Scheduler holds and
  // validates it).
  AttemptEngine(const bte::BteScenario& base, const SupervisorOptions* options);

  // Derived injector seed for retry `attempt` (attempt 0 uses the base seed
  // itself) — the same golden-ratio mix the chaos campaigns use, so the
  // circuit breaker's "distinct seeds" guarantee is auditable from the
  // attempt records.
  static uint64_t attempt_seed(uint64_t base, int attempt);

  Resolved resolve(const JobSpec& spec, int rung);
  // Runs one attempt: arm faults, resume from the job's newest frame in
  // `generations` when one exists, run to the end or a drain, classify.
  // `generations` is the durable root's log (nullptr = not durable); the
  // attempt appends its checkpoints to it under the job's id. `memory` is
  // the budget this attempt's live allocations charge (the scheduler passes
  // a per-attempt view of the tenant partition; nullptr = unbudgeted).
  Result run_attempt(const Resolved& rj, int attempt_index, uint64_t seed,
                     rt::GenerationLog* generations, const std::vector<rt::ChaosFault>& faults,
                     rt::MemoryBudget* memory) const;
  // Attempt-granularity transition: `failures` counts consecutive failures
  // INCLUDING this one when it failed; `attempt_index` is the index just run.
  Decision decide(const Result& r, int attempt_index, int failures) const;
  // ddmin the job's fault schedule down to a minimal still-failing repro
  // (unbudgeted, non-durable attempt-0 replays).
  std::vector<rt::ChaosFault> minimize_repro(const Resolved& rj);

 private:
  bte::BteScenario base_;
  const SupervisorOptions* options_;
  bte::PhysicsCache physics_;
};

struct TenantSpec {
  std::string name;
  double weight = 1.0;  // fair-share weight: DRR quantum and budget partition
};

struct SchedulerOptions {
  // Durable root, retry/quarantine policies, defense stack and the *shared*
  // memory budget (partitioned per tenant at run() start).
  SupervisorOptions supervisor;
  int max_concurrency = 1;
  // Bound on admitted-but-not-dispatched jobs. 0 = unbounded: no
  // backpressure, no overload shedding, brownout and the auto watchdog
  // bound are disabled.
  int queue_capacity = 0;
  // Declared tenants; a tenant named only by job specs gets weight 1.0.
  std::vector<TenantSpec> tenants;
  // Predicted virtual seconds per abstract cost unit
  // (nsteps × nx × ny × ndirs × nbands); drives completion-event ordering
  // and retry_after estimates. Calibrate from a one-slot run when comparing
  // clocks across slot counts.
  double cost_per_unit_s = 5e-9;
  // Brownout ladder thresholds as queue-fill fractions (bounded queue only).
  double brownout_start = 0.60;
  double blackout_start = 0.85;
  // Starvation bound in virtual seconds; 0 = auto with a bounded queue
  // (4 × queue drain time), disabled with an unbounded one.
  double max_queue_age_s = 0.0;
  // Retry-storm damper.
  double storm_window_s = 4.0;
  int storm_threshold = 16;
  double storm_factor = 2.0;
};

// Throws std::invalid_argument on contradictory combinations.
void validate_scheduler_options(const SchedulerOptions& o);

// Deterministic service-cost prediction for one resolved configuration, in
// abstract cost units.
double predict_cost_units(const JobConfig& cfg, int nsteps);

// One entry of the open-loop arrival schedule. `vtime` is on the scheduler's
// virtual clock; arrivals must be sorted non-decreasing.
struct Arrival {
  double vtime = 0.0;
  JobSpec spec;
  bool adopted = false;  // re-adopted from an orphaned durable job dir
};

// Audit records the overload oracle consumes.
struct ShedAudit {
  std::string id;
  int priority = 0;
  int min_queued_priority = 0;  // over queue + the arrival at shed time
  double vtime = 0.0;
};
struct RejectAudit {
  std::string id;
  std::string tenant;
  double vtime = 0.0;
  double retry_after_s = 0.0;
};

struct TenantLedger {
  double weight = 1.0;
  int64_t budget_capacity = 0;  // partition carve-out; 0 = unbudgeted
  int submitted = 0;            // arrivals billed to this tenant
  int admitted = 0;             // entered the queue
  int completed = 0;
  int cancelled = 0;
  int quarantined = 0;
  int shed = 0;
  int rejected = 0;
  double offered_units = 0.0;    // predicted cost of everything submitted
  double completed_units = 0.0;  // goodput: predicted cost of completions
};

struct SchedStats {
  int dispatched = 0;  // attempts started (Σ outcome attempt counts)
  int retries = 0;
  int brownout_degrades = 0;  // dispatches forced off the top rung by fill
  int watchdog_boosts = 0;
  int watchdog_violations = 0;  // queued past the starvation bound (want 0)
  int storm_damped = 0;         // backoffs stretched by the storm damper
  size_t max_queue_depth = 0;
  double max_queue_age_s = 0.0;  // oldest wait ever observed at dispatch
  double drain_vtime_s = 0.0;    // virtual clock when the last event settled
  std::vector<ShedAudit> shed_audits;  // overload (queue-full) sheds only
  std::vector<RejectAudit> rejects;
  std::map<std::string, TenantLedger> tenants;
};

struct ScheduleResult {
  // One outcome per *admitted* job, in completion order. Rejected arrivals
  // appear only in stats.rejects — backpressure means they never entered.
  std::vector<JobOutcome> outcomes;
  SchedStats stats;
};

class Scheduler {
 public:
  // `base` supplies the physical parameters (domain size, temperatures, dt);
  // each job overrides the discretization. Throws std::invalid_argument on
  // invalid options.
  Scheduler(const bte::BteScenario& base, SchedulerOptions options);
  ~Scheduler();

  // Crash restart: read the durable root's journal once and stage every job
  // whose last valid record is its admission as an adopted arrival at vtime
  // 0 of the next run(). Returns the adopted ids (sorted). Damaged lines
  // and unreadable specs are skipped and counted in `svc.journal.damaged`.
  // The generation log is not read here: an adopted job's first attempt
  // scans it.
  std::vector<std::string> adopt_orphans();

  // Drives the arrival schedule to completion: every admitted job reaches
  // exactly one terminal state. Throws std::invalid_argument — before any
  // job is admitted or any record is written — on an empty id, an id that
  // is not one printable word (no spaces, quotes, backslashes or '/'), an
  // unknown solver name (fallback rungs included), non-positive nsteps, a
  // fault that cannot be armed, a duplicate id or unsorted arrival times.
  // One run per Scheduler.
  ScheduleResult run(std::vector<Arrival> arrivals);

  const SchedulerOptions& options() const { return options_; }

 private:
  struct Job;
  struct Tenant;
  struct Slot;
  struct RetryEvent;

  std::string job_dir(const std::string& id) const;
  Tenant& tenant_of(const std::string& name);
  double predicted_cost(const JobSpec& spec, int rung);
  int brownout_level() const;
  void enqueue(size_t ji);
  void handle_arrival(Arrival&& a);
  void dispatch_ready();
  bool pick_next(size_t* out_ji);
  void execute_wave();
  void sync_durable();
  void process_completion(size_t slot_index);
  void settle_terminal(size_t ji, TerminalState state, std::string detail);
  void check_starvation();
  size_t total_queued() const;

  SchedulerOptions options_;
  AttemptEngine engine_;  // holds &options_.supervisor
  std::unique_ptr<rt::ThreadPool> pool_;

  // Event-loop state (valid during run()).
  double vnow_ = 0.0;
  uint64_t seq_ = 0;  // tie-break for deterministic event ordering
  std::vector<std::unique_ptr<Job>> jobs_;
  std::vector<std::string> tenant_order_;  // deterministic DRR rotation
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  size_t rr_index_ = 0;
  bool rr_fresh_ = true;  // grant a quantum on the next visit of rr_index_
  std::vector<Slot> slots_;
  std::vector<RetryEvent> retry_heap_;
  std::vector<double> retry_times_;  // sliding window for storm detection
  double quantum_units_ = 0.0;
  double age_bound_s_ = 0.0;  // resolved starvation bound (0 = disabled)
  std::unique_ptr<JobJournal> journal_;  // the durable root's records (null: none)
  std::unique_ptr<rt::GenerationLog> generations_;  // every job's frames (null: none)
  std::vector<Arrival> adopted_;  // staged by adopt_orphans()
  bool ran_ = false;
  ScheduleResult result_;
};

}  // namespace finch::svc
