#pragma once
// Shared recovery machinery for the distributed BTE solvers.
//
// Every resilient solver follows the same state machine per step:
//
//   RUN ──fault site throws / drops──▶ RETRY (bounded exponential backoff)
//    │                                    │ budget exhausted
//    ▼                                    ▼
//   VALIDATE (StepHealth: NaN/Inf scan + transfer checksums)
//    │ healthy                            │ unhealthy
//    ▼                                    ▼
//   CHECKPOINT (periodic policy)       ROLLBACK to last checkpoint, REPLAY
//
//   RUN ──rank/device dead (heartbeat)──▶ EVICT + REDISTRIBUTE:
//     repartition the victim's shard over the survivors, restore the last
//     (topology-independent) checkpoint at the shrunk size, REPLAY
//
// Retries handle transient faults whose failure is visible at the site
// (kernel launch failure, detected transfer mismatch, dropped halo message);
// rollback+replay handles corruption that is only visible after the fact
// (non-finite values that made it into solver state). Both are bounded so a
// hard fault surfaces as ResilienceError instead of a livelock. Permanent
// faults (RankFailure, DeviceLoss) have no retry path at all: the survivors
// shrink the topology (N → M ranks/devices), restore from the last global
// checkpoint, and continue — an eviction with no survivors left is the one
// permanent fault that still raises ResilienceError.
//
// All recovery costs are *virtual* seconds charged to the solver's phase
// breakdown (detection under `recovery`, state respread under
// `redistribution`), so benchmarks can plot recovery overhead vs. fault rate
// on the same axes as the paper's phase figures.
//
// This header holds the options, their validation, the stats and the backoff
// rule; the machinery that runs them lives in distributed_engine.cpp.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "runtime/cancel.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/fault.hpp"
#include "runtime/memory.hpp"
#include "runtime/straggler.hpp"

namespace finch::bte {

// Raised when recovery is exhausted (retry budget and rollback budget spent).
class ResilienceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Silent-data-corruption (SDC) defense knobs. Off by default: the ABFT
// checksums, sentinel audits, and localized repair run only when a solver is
// explicitly asked to pay for them, so fault-free runs stay bit-identical to
// the unguarded path with zero audit time.
struct SdcOptions {
  bool enabled = false;
  // Elements (cells for ledgers over per-rank intensity arrays) per ABFT
  // block: the granularity of both detection and localized repair.
  int block_cells = 16;
  // Redundant sentinel cells recomputed each step from the previous state —
  // the cross-rank "did my neighbor's update agree with mine" audit that
  // bounds detection latency to one step even off the transfer paths.
  int sentinel_cells = 4;
  // Relative per-step drift tolerance for the energy-balance invariant. The
  // explicit scheme changes total energy a little every step (boundary
  // heating), so the tolerance is generous; violations are recorded
  // (ResilienceStats::invariant_violations), not health-failing — the
  // invariant is a tripwire for systematic corruption, while bit-exact
  // detection is the checksums' job.
  double energy_drift_tol = 0.05;
};

// Durable-run configuration: with a non-empty `dir` the solver commits every
// periodic checkpoint as one `checkpoint_<seq>.bin` generation file carrying
// its run manifest, so a SIGKILLed/OOMed process restarts bit-exactly via
// rt::find_latest_generation() and resume_from() (see runtime/checkpoint.hpp).
struct DurableOptions {
  std::string dir;           // empty: in-memory checkpoints only (not durable)
  int disk_generations = 2;  // on-disk generation files retained (>= 1)
};

struct ResilienceOptions {
  rt::FaultInjector* injector = nullptr;  // null: no injection (guards still run)
  rt::CheckpointPolicy checkpoint{/*interval=*/8};
  int max_retries = 4;          // per fault site, per step
  int max_rollbacks = 64;       // per run() call
  double backoff_base_s = 50e-6;  // virtual seconds; doubles per attempt
  double backoff_max_s = 5e-3;    // ceiling on one backoff wait (<= 0: uncapped)
  // Failure-detection model for permanent faults (rank death, device loss).
  rt::HeartbeatModel heartbeat;
  // Silent-corruption defense (ABFT checksums + invariants + block repair).
  SdcOptions sdc;
  // Fail-slow defense (straggler detection, exchange watchdog, speculative
  // re-execution, dynamic rebalancing). Off by default like the SDC layer.
  //
  // Mitigation precedence (most to least drastic, each preempting the next):
  //
  //   1. EVICTION — a Dead heartbeat verdict (miss_threshold consecutive
  //      missed beats, or a hang that survives every Suspect-level watchdog
  //      retry) removes the victim permanently. Pending speculation and
  //      rebalance state for it is discarded: there is no rank left to
  //      mitigate.
  //   2. REBALANCE — a *chronic* straggler first sheds load structurally
  //      (shard migration, bounded by max_rebalances). Rebalancing resets the
  //      detector cold, so speculation cannot fire against the pre-migration
  //      timings.
  //   3. SPECULATION — only a chronic straggler that rebalancing did not (or
  //      could not, budget spent / rebalance disabled) cure gets its shard
  //      duplicated on the least-loaded survivor.
  //
  // The Suspect heartbeat window (suspect_after <= missed < miss_threshold)
  // is where 2 and 3 live; validate_resilience_options therefore rejects a
  // straggler defense armed with an empty Suspect window — with
  // suspect_after == miss_threshold every late rank jumps straight to the
  // Dead verdict and the mitigations it asked for can never engage.
  rt::StragglerOptions straggler;
  // Durable runs: on-disk checkpoint generations + manifest sidecar.
  DurableOptions durable;
  // Cooperative cancellation: consulted at every step boundary; a hit drains
  // (a final generation carrying the reason) and returns instead of
  // aborting. Null: off.
  rt::CancelToken* cancel = nullptr;
  // Resource-exhaustion defense: AllocFailure / MemoryPressure faults run
  // this budget's relief chain (drop the second checkpoint generation, shrink
  // scratch, spill to disk) before anything fatal. Null: faults are counted
  // and charged but nothing degrades.
  rt::MemoryBudget* memory = nullptr;
};

// Verdict of the per-step validation pass.
struct StepHealth {
  bool finite_ok = true;    // no NaN/Inf in updated fields
  bool transfer_ok = true;  // round-trip / message checksums matched
  bool sdc_ok = true;       // ABFT block audit clean (or repaired in place)
  int64_t nonfinite_values = 0;
  std::string detail;  // first offending field/site, for diagnostics
  bool ok() const { return finite_ok && transfer_ok && sdc_ok; }
};

struct ResilienceStats {
  int64_t retries = 0;          // site-level retry attempts that were needed
  int64_t rollbacks = 0;        // checkpoint restores
  int64_t replayed_steps = 0;   // steps recomputed after rollbacks/evictions
  int64_t checkpoints = 0;      // snapshots taken
  int64_t validations = 0;      // StepHealth evaluations
  int64_t faults_detected = 0;  // unhealthy validations + caught TransientFaults
  int64_t evictions = 0;        // permanent failures survived (ranks/devices)
  double recovery_seconds = 0;  // virtual time spent on backoff/retransmit/replay
  double redistribution_seconds = 0;  // virtual time respreading shards onto survivors
  // ---- silent-corruption defense -----------------------------------------
  int64_t sdc_detections = 0;     // ABFT mismatches caught (blocks or sidecars)
  int64_t block_repairs = 0;      // blocks healed by sub-range recompute/repull
  int64_t repair_failures = 0;    // localized repair failed -> rollback path
  int64_t sentinel_checks = 0;    // redundant sentinel-cell comparisons run
  int64_t invariant_violations = 0;  // energy-balance drift beyond tolerance
  double audit_seconds = 0;       // virtual time in the audit phase
  // Steps between injection and detection, maximized over detections. The
  // per-step audit bounds this to 1 by construction; the stat proves it.
  int64_t max_detection_latency_steps = 0;
  // ---- fail-slow defense ---------------------------------------------------
  int64_t slow_steps = 0;         // compute supersteps stretched by a SlowRank
  int64_t jitter_events = 0;      // JitterKernel fires observed
  int64_t hang_events = 0;        // HangExchange fires observed
  int64_t hang_timeouts = 0;      // watchdog deadline expiries (bounded waits)
  int64_t hang_escalations = 0;   // persistent hangs escalated to eviction
  int64_t speculations = 0;       // supersteps with a speculative duplicate armed
  int64_t rebalances = 0;         // dynamic migrations away from a straggler
  double speculation_seconds = 0; // duplicated work on the critical path
  double rebalance_seconds = 0;   // shard motion of dynamic rebalances
  // ---- hardened checkpoint restore ----------------------------------------
  int64_t ckpt_restore_retries = 0;       // corrupted restore reads retried
  int64_t ckpt_generation_fallbacks = 0;  // restores that fell back a generation
  int64_t ckpt_hang_stalls = 0;           // hangs ridden out inside a restore
  // ---- resource-exhaustion defense -----------------------------------------
  int64_t alloc_failures = 0;    // AllocFailure fires ridden out via relief+retry
  int64_t pressure_events = 0;   // MemoryPressure fires absorbed
  int64_t reliefs = 0;           // relief-chain runs that freed something
  int64_t relieved_bytes = 0;    // total bytes freed by graceful degradation
  // ---- durable runs --------------------------------------------------------
  int64_t generations_committed = 0;  // durable generation files written
  int64_t resumes = 0;            // resume_from() restarts absorbed by this solver
  int64_t cancel_drains = 0;      // runs that drained on a cancel/deadline
};

// Exponential backoff cost for attempt k (0-based): base * 2^k, clamped to
// backoff_max_s so an unlucky retry chain cannot dominate the step time.
inline double backoff_delay(const ResilienceOptions& opt, int attempt) {
  const double d = opt.backoff_base_s * std::ldexp(1.0, attempt);
  return opt.backoff_max_s > 0 ? std::min(d, opt.backoff_max_s) : d;
}

// Rejects a nonsensical options bundle before a solver arms itself with it,
// naming the offending field and value — a misconfigured defense must fail
// loudly at enable_resilience() instead of silently misbehaving mid-run.
inline void validate_resilience_options(const ResilienceOptions& opt) {
  const auto fail = [](const std::string& msg) {
    throw std::invalid_argument("ResilienceOptions: " + msg);
  };
  if (opt.max_retries < 0)
    fail("max_retries must be >= 0 (got " + std::to_string(opt.max_retries) + ")");
  if (opt.max_rollbacks < 0)
    fail("max_rollbacks must be >= 0 (got " + std::to_string(opt.max_rollbacks) + ")");
  if (opt.backoff_base_s < 0)
    fail("backoff_base_s must be >= 0 (got " + std::to_string(opt.backoff_base_s) + ")");
  if (!(opt.heartbeat.period_s > 0))
    fail("heartbeat.period_s must be > 0, a zero heartbeat interval detects nothing (got " +
         std::to_string(opt.heartbeat.period_s) + ")");
  if (opt.heartbeat.miss_threshold < 1)
    fail("heartbeat.miss_threshold must be >= 1 (got " +
         std::to_string(opt.heartbeat.miss_threshold) + ")");
  if (opt.heartbeat.suspect_after < 1 || opt.heartbeat.suspect_after > opt.heartbeat.miss_threshold)
    fail("heartbeat.suspect_after must be in [1, miss_threshold] (got " +
         std::to_string(opt.heartbeat.suspect_after) + ")");
  if (opt.sdc.block_cells < 1)
    fail("sdc.block_cells must be >= 1 (got " + std::to_string(opt.sdc.block_cells) + ")");
  if (opt.sdc.sentinel_cells < 0)
    fail("sdc.sentinel_cells must be >= 0 (got " + std::to_string(opt.sdc.sentinel_cells) + ")");
  if (opt.sdc.energy_drift_tol < 0)
    fail("sdc.energy_drift_tol must be >= 0 (got " +
         std::to_string(opt.sdc.energy_drift_tol) + ")");
  const rt::StragglerOptions& st = opt.straggler;
  if (!(st.ewma_alpha > 0.0) || st.ewma_alpha > 1.0)
    fail("straggler.ewma_alpha must be in (0, 1] (got " + std::to_string(st.ewma_alpha) + ")");
  if (!(st.slow_ratio > 1.0))
    fail("straggler.slow_ratio must be > 1 (got " + std::to_string(st.slow_ratio) + ")");
  if (!(st.clip_ratio > st.slow_ratio))
    fail("straggler.clip_ratio must exceed slow_ratio or winsorizing would hide every "
         "straggler (got clip " + std::to_string(st.clip_ratio) + " vs slow " +
         std::to_string(st.slow_ratio) + ")");
  if (st.chronic_steps < 1)
    fail("straggler.chronic_steps must be >= 1 (got " + std::to_string(st.chronic_steps) + ")");
  if (!(st.deadline_factor > 1.0))
    fail("straggler.deadline_factor must be > 1, the watchdog would expire before the "
         "exchange it guards (got " + std::to_string(st.deadline_factor) + ")");
  if (st.max_rebalances < 1)
    fail("straggler.max_rebalances must be >= 1 (got " + std::to_string(st.max_rebalances) + ")");
  // Contradictory combos: each field is legal alone, the pair is nonsense.
  if (st.enabled && opt.heartbeat.suspect_after == opt.heartbeat.miss_threshold)
    fail("straggler defense with an empty Suspect window: suspect_after == miss_threshold (" +
         std::to_string(opt.heartbeat.suspect_after) +
         ") jumps every late rank straight to the Dead verdict, so the watchdog retries and "
         "speculation/rebalance it enables can never engage; lower suspect_after or raise "
         "miss_threshold");
  if (opt.checkpoint.interval <= 0 && opt.max_rollbacks > 0)
    fail("rollback budget with checkpointing disabled: checkpoint.interval " +
         std::to_string(opt.checkpoint.interval) + " never takes a snapshot, so max_rollbacks " +
         std::to_string(opt.max_rollbacks) +
         " has nothing to roll back to; set max_rollbacks = 0 or give checkpoint.interval a "
         "positive period");
  if (opt.durable.disk_generations < 1)
    fail("durable.disk_generations must be >= 1 (got " +
         std::to_string(opt.durable.disk_generations) + ")");
  if (!opt.durable.dir.empty() && opt.checkpoint.interval <= 0)
    fail("durable dir with checkpointing disabled: durable.dir '" + opt.durable.dir +
         "' promises restartability but checkpoint.interval " +
         std::to_string(opt.checkpoint.interval) +
         " never writes a generation, so a crash always restarts from step 0; give "
         "checkpoint.interval a positive period or clear durable.dir");
}

}  // namespace finch::bte
