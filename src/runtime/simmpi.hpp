#pragma once
// Virtual-time message-passing simulator.
//
// The paper's scaling experiments (Figs 4, 5, 9) ran on a cluster with up to
// 320 MPI processes. This machine has one core, so we reproduce the *timing*
// with a bulk-synchronous virtual clock while the *numerics* run for real on
// the undecomposed problem (domain decomposition does not change explicit-FV
// results, only who computes what).
//
// Model: execution is a sequence of supersteps. In a superstep every rank
// performs local compute (seconds, supplied by measured or modeled kernel
// cost) and exchanges point-to-point messages. Communication cost follows the
// standard alpha-beta (latency + size/bandwidth) model; a rank's superstep
// time is compute + its communication time, and the step completes when the
// slowest rank does. Collectives use tree/butterfly cost formulas.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "abft.hpp"
#include "fault.hpp"
#include "straggler.hpp"

namespace finch::rt {

struct CommModel {
  double latency_s = 2e-6;          // per-message alpha (typical intra-cluster MPI)
  double bandwidth_Bps = 12.5e9;    // ~100 Gb/s interconnect
  double drop_timeout_s = 200e-6;   // time a sender waits before retransmitting
  double per_message(int64_t bytes) const {
    return latency_s + static_cast<double>(bytes) / bandwidth_Bps;
  }
};

struct Message {
  int32_t src = 0;
  int32_t dst = 0;
  int64_t bytes = 0;
};

// The phase slots of PhaseTimes, in field order.
enum class PhaseSlot {
  Compute, PostProcess, Communication, FaultStall, Recovery, Redistribution, Audit,
  Speculation, Rebalance
};

// Per-phase accounting so breakdown figures (Figs 5 & 8) fall out directly.
struct PhaseTimes {
  double compute = 0.0;        // "solve for intensity"
  double post_process = 0.0;   // "temperature update"
  double communication = 0.0;  // halo exchange / reductions / H2D-D2H
  // Portion of `communication` caused by injected faults (drop timeouts,
  // retransmits, stuck-rank stalls) — already included in the total.
  double fault_stall = 0.0;
  // Permanent-fault handling, charged separately so benchmarks can plot the
  // shrink-to-survivors cost next to the paper's phase breakdowns:
  double recovery = 0.0;        // failure detection (suspicion timeout) + waits
  double redistribution = 0.0;  // respreading the dead worker's shard
  // ABFT verification cost: checksum maintenance, sidecar verification on
  // receipt, sentinel recomputation. Separate from compute so the silent-
  // corruption defense's overhead is visible in the breakdown figures.
  double audit = 0.0;
  // Straggler-mitigation cost, again separate so the fail-slow defense's
  // overhead sits next to the paper's breakdowns: the duplicated work a
  // speculative helper put on the critical path, and the data motion of a
  // dynamic rebalance away from a chronically slow rank.
  double speculation = 0.0;
  double rebalance = 0.0;
  double total() const {
    return compute + post_process + communication + recovery + redistribution + audit +
           speculation + rebalance;
  }
  double operator[](PhaseSlot slot) const;
  double& operator[](PhaseSlot slot);
};

// The one phase-accounting gateway. Every virtual second is charged here
// exactly once: added to its PhaseTimes slot, mirrored (when the global
// rt::Tracer is enabled) as a pid-1 span named after the slot on the ledger's
// track, and counted in `<prefix>.phase.<slot>_seconds`. BspSimulator charges
// through a "bsp" ledger and the multi-GPU solver through an "mgpu" one on its
// device clock, so both speak one phase vocabulary and reconcile the same
// way: per-slot span sums equal phases(), and phases().total() equals
// elapsed() to FP round-off (fault_stall nests inside communication).
class PhaseLedger {
 public:
  // The span / metric name of a slot: exactly the PhaseTimes field name.
  static const char* name(PhaseSlot slot);

  explicit PhaseLedger(std::string metric_prefix, int32_t track = 1)
      : prefix_(std::move(metric_prefix)), track_(track) {}

  // Charges `seconds` to `slot` at the running clock and advances it; a
  // non-positive charge is a no-op. `step` is the span's step attribute.
  void charge(PhaseSlot slot, double seconds, int64_t step);
  // The two halves of charge(), for a clock advance split across slots (a
  // speculation tail, a nested fault_stall overlay): advance() moves the
  // clock and returns its previous value; record() books `seconds` into
  // `slot` with a span starting at `start` and leaves the clock alone.
  double advance(double seconds);
  void record(PhaseSlot slot, double start, double seconds, int64_t step);

  const PhaseTimes& phases() const { return phases_; }
  double elapsed() const { return clock_; }
  // Routes the spans to virtual-timeline track `track`; `label` names it.
  void set_trace_track(int32_t track, const std::string& label = "");
  int32_t trace_track() const { return track_; }

 private:
  std::string prefix_;
  int32_t track_;
  double clock_ = 0.0;
  PhaseTimes phases_;
};

class BspSimulator {
 public:
  BspSimulator(int32_t nranks, CommModel model = {});

  int32_t nranks() const { return nranks_; }

  // Advances the clock by a compute phase: every rank busy for seconds[r].
  // `phase` routes the elapsed max-time into the matching PhaseTimes slot.
  enum class Phase { Compute, PostProcess, Communication, Audit };
  void compute_step(std::span<const double> seconds, Phase phase = Phase::Compute);
  // Convenience: all ranks take the same time.
  void uniform_compute(double seconds, Phase phase = Phase::Compute);

  // Point-to-point exchange: each rank pays alpha per message plus bytes/bw
  // for everything it sends and receives; the step costs the max over ranks.
  void exchange(std::span<const Message> messages);

  // Delivers one message payload over the (simulated) wire. The sender-side
  // ABFT sidecar is computed *before* the injector is consulted for a silent
  // BitFlipMessage fault on the in-flight data, so the receiver can verify
  // the payload against the returned sidecar and catch the flip. Timing is
  // charged by the surrounding exchange(); this handles only data + sidecar.
  BlockChecksum transmit(std::span<double> payload, std::string_view site);
  int64_t silent_flips() const { return silent_flips_; }

  // Charges fault-recovery time (backoff waits, retransmits, replays driven
  // by a caller's recovery logic) to the clock and the communication phase,
  // tagged as fault stall.
  void charge_fault(double seconds);

  // Allreduce of `bytes` per rank (recursive-doubling cost model).
  void allreduce(int64_t bytes);

  // Gather of `bytes` per rank to a root (linear-tree model).
  void gather(int64_t bytes_per_rank);

  double elapsed() const { return ledger_.elapsed(); }
  const PhaseTimes& phases() const { return ledger_.phases(); }
  const PhaseLedger& ledger() const { return ledger_; }
  PhaseLedger& ledger() { return ledger_; }
  // Charges `seconds` of caller-measured work (recovery waits, ABFT audit
  // work, ...) to `slot` at the current superstep.
  void charge(PhaseSlot slot, double seconds) { ledger_.charge(slot, seconds, trace_step_); }

  // Optional fault injection for exchanges: dropped messages pay a timeout
  // plus a retransmit, a stuck rank stretches the superstep. Null disables.
  void set_fault_injector(FaultInjector* injector) { faults_ = injector; }
  int64_t dropped_messages() const { return dropped_messages_; }
  int64_t stuck_events() const { return stuck_events_; }

  // ---- permanent failures (elastic shrink-to-survivors) --------------------
  //
  // A dead rank is noticed by the survivors after the heartbeat model's
  // suspicion timeout; evict_rank charges that detection latency to the
  // recovery phase and shrinks the simulator to the survivors. The caller
  // owns the shard redistribution (repartition + restore) and charges its
  // data motion through charge_redistribution.
  void set_heartbeat(HeartbeatModel model) { heartbeat_ = model; }
  const HeartbeatModel& heartbeat() const { return heartbeat_; }
  // Shrinks to nranks()-1 survivors. `rank` must be a live rank id; after the
  // call the caller must re-index its messages/compute spans to [0, nranks()).
  void evict_rank(int32_t rank);
  int32_t evictions() const { return evictions_; }

  // Models respreading `bytes` of checkpointed state over the survivors
  // (scatter through the interconnect), charged to the redistribution phase.
  void charge_redistribution(int64_t bytes);

  // ---- performance faults (straggler / hang resilience) --------------------
  //
  // Arms the straggler defense: compute supersteps feed the detector with
  // per-rank effective seconds, and exchanges run under a deadline watchdog
  // instead of waiting out an injected hang. Off (the default) the simulator
  // behaves exactly as before and charges nothing to the new phases.
  void set_straggler(StragglerOptions opt);
  const StragglerOptions& straggler_options() const { return stragopt_; }
  StragglerDetector& straggler() { return detector_; }
  const StragglerDetector& straggler() const { return detector_; }

  // Explicit deterministic injection: `rank` computes `factor`x slower from
  // now on (the SlowRank fault without consulting the injector's roulette).
  void set_slow_rank(int32_t rank, double factor);
  int32_t slow_rank() const { return slow_rank_; }

  // One-shot speculative re-execution, armed by the caller just before the
  // compute superstep: `helper` re-executes `victim`'s shard at nominal speed
  // after finishing its own, and the first finisher wins. The duplicated
  // seconds the helper adds to the critical path are charged to the
  // speculation phase; the numerics are untouched (both replicas compute the
  // same shard), so the result stays bit-exact by construction.
  void arm_speculation(int32_t victim, int32_t helper);

  // Drains a live-but-chronically-slow rank: shrinks to nranks()-1 without
  // the suspicion timeout an eviction charges (the rank is alive — draining
  // it is a scheduling decision, not a failure detection). The caller owns
  // the shard motion and bills it through charge_rebalance.
  void retire_rank(int32_t rank);
  // Models migrating `bytes` of live state between ranks during a dynamic
  // rebalance, charged to the rebalance phase.
  void charge_rebalance(int64_t bytes);

  // Set when the exchange watchdog escalated a persistent hang to a Dead
  // verdict: the rank the injector picked as hung. The caller routes it into
  // its eviction path and clears the flag.
  int32_t hang_suspect() const { return hang_suspect_; }
  void clear_hang_suspect() { hang_suspect_ = -1; }

  // Telemetry counters for the performance-fault taxonomy.
  int64_t slow_steps() const { return slow_steps_; }
  int64_t jitter_events() const { return jitter_events_; }
  int64_t hang_events() const { return hang_events_; }
  int64_t watchdog_timeouts() const { return watchdog_timeouts_; }
  int64_t retirements() const { return retirements_; }
  // Effective per-rank seconds of the most recent compute_step in `phase`
  // (faults applied, speculation applied) — the per-rank, per-phase telemetry
  // the detector and tests consume. Empty until that phase first runs.
  const std::vector<double>& last_rank_seconds(Phase phase) const;

  // The alpha-beta communication model, exposed so callers can price their
  // own repair traffic (e.g. re-pulling one corrupted halo message).
  const CommModel& comm_model() const { return model_; }

  // ---- observability (see OBSERVABILITY.md) --------------------------------
  //
  // When the global rt::Tracer is enabled, every clock charge is mirrored as
  // a complete event on virtual-timeline track `track` (pid 1), named after
  // its PhaseTimes slot; `label` names the track in the exported trace.
  // Charged seconds also feed the metrics registry (bsp.phase.*_seconds,
  // bsp.steps, bsp.exchange.*), so by construction the per-phase span sums
  // reconcile with phases() and their total with elapsed() (fault_stall is
  // nested inside communication, never additional).
  void set_trace_track(int32_t track, const std::string& label = "") {
    ledger_.set_trace_track(track, label);
  }
  int32_t trace_track() const { return ledger_.trace_track(); }

 private:
  // Shared by evict_rank and retire_rank: remaps the sticky slow-rank index,
  // disarms any pending speculation, and restarts the detector cold.
  void shrink_bookkeeping(int32_t removed_rank);
  // Advances the clock by a communication superstep of `seconds`, the last
  // `stall` of which is fault stall (nested, not additional).
  void charge_communication(double seconds, double stall);
  // Consults the injector for a HangExchange on a superstep of `nominal`
  // seconds; returns the extra stall. Without the defense the full
  // hang_seconds() timeout is paid; with it the watchdog charges one deadline
  // per attempt and escalates a persistent hang to hang_suspect_.
  double hang_penalty(double nominal);

  int32_t nranks_;
  CommModel model_;
  FaultInjector* faults_ = nullptr;
  HeartbeatModel heartbeat_;
  PhaseLedger ledger_{"bsp"};
  int64_t dropped_messages_ = 0;
  int64_t stuck_events_ = 0;
  int64_t silent_flips_ = 0;
  int32_t evictions_ = 0;
  // Straggler defense state.
  StragglerOptions stragopt_;
  StragglerDetector detector_;
  int32_t slow_rank_ = -1;
  double slow_factor_ = 1.0;
  int32_t spec_victim_ = -1;
  int32_t spec_helper_ = -1;
  int32_t hang_suspect_ = -1;
  int64_t slow_steps_ = 0;
  int64_t jitter_events_ = 0;
  int64_t hang_events_ = 0;
  int64_t watchdog_timeouts_ = 0;
  int32_t retirements_ = 0;
  int64_t trace_step_ = 0;  // superstep index attached to span attrs
  std::vector<std::vector<double>> rank_seconds_by_phase_{4};
  std::vector<double> scratch_;
};

}  // namespace finch::rt
