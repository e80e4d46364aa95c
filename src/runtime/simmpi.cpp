#include "simmpi.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "metrics.hpp"
#include "trace.hpp"

namespace finch::rt {

namespace {

int64_t virt_ns(double seconds) { return std::llround(seconds * 1e9); }

using Slot = PhaseSlot;

// Indexed by PhaseSlot: the field each slot charges and its span/metric name.
constexpr double PhaseTimes::*kSlotField[] = {
    &PhaseTimes::compute,     &PhaseTimes::post_process, &PhaseTimes::communication,
    &PhaseTimes::fault_stall, &PhaseTimes::recovery,     &PhaseTimes::redistribution,
    &PhaseTimes::audit,       &PhaseTimes::speculation,  &PhaseTimes::rebalance};
constexpr const char* kSlotName[] = {"compute",     "post_process", "communication",
                                     "fault_stall", "recovery",     "redistribution",
                                     "audit",       "speculation",  "rebalance"};

Slot slot_of(BspSimulator::Phase phase) {
  switch (phase) {
    case BspSimulator::Phase::Compute: return Slot::Compute;
    case BspSimulator::Phase::PostProcess: return Slot::PostProcess;
    case BspSimulator::Phase::Communication: return Slot::Communication;
    case BspSimulator::Phase::Audit: return Slot::Audit;
  }
  return Slot::Compute;
}

}  // namespace

// ---- PhaseLedger -----------------------------------------------------------

double PhaseTimes::operator[](PhaseSlot slot) const {
  return this->*kSlotField[static_cast<size_t>(slot)];
}
double& PhaseTimes::operator[](PhaseSlot slot) {
  return this->*kSlotField[static_cast<size_t>(slot)];
}

const char* PhaseLedger::name(Slot slot) { return kSlotName[static_cast<size_t>(slot)]; }

void PhaseLedger::set_trace_track(int32_t track, const std::string& label) {
  track_ = track;
  if (!label.empty()) Tracer::global().set_track_name(1, track, label);
}

double PhaseLedger::advance(double seconds) {
  const double start = clock_;
  clock_ += seconds;
  return start;
}

void PhaseLedger::record(Slot slot, double start, double seconds, int64_t step) {
  if (seconds <= 0.0) return;
  phases_[slot] += seconds;
  const char* slot_name = name(slot);
  Tracer& tr = Tracer::global();
  if (tr.enabled()) {
    SpanAttrs attrs;
    attrs.step = step;
    attrs.phase = slot_name;
    tr.record_complete(slot_name, virt_ns(start), virt_ns(seconds), track_, attrs);
  }
  MetricsRegistry::global().counter(prefix_ + ".phase." + slot_name + "_seconds").add(seconds);
}

void PhaseLedger::charge(Slot slot, double seconds, int64_t step) {
  if (seconds <= 0.0) return;
  record(slot, clock_, seconds, step);
  clock_ += seconds;
}

// ---- BspSimulator ------------------------------------------------------------

BspSimulator::BspSimulator(int32_t nranks, CommModel model) : nranks_(nranks), model_(model) {
  if (nranks < 1) throw std::invalid_argument("BspSimulator: nranks must be >= 1");
}

void BspSimulator::charge_communication(double seconds, double stall) {
  const double start = ledger_.advance(seconds);
  const double stall_charge = std::min(stall, seconds);
  ledger_.record(Slot::Communication, start, seconds, trace_step_);
  ledger_.record(Slot::FaultStall, start + (seconds - stall_charge), stall_charge, trace_step_);
}

void BspSimulator::compute_step(std::span<const double> seconds, Phase phase) {
  if (static_cast<int32_t>(seconds.size()) != nranks_)
    throw std::invalid_argument("compute_step: one entry per rank required");
  scratch_.assign(seconds.begin(), seconds.end());

  // Performance faults stretch individual ranks *before* the superstep max.
  if (faults_ != nullptr) {
    if (slow_rank_ < 0 && faults_->should_fault(FaultKind::SlowRank, "compute")) {
      // The fault is sticky: the victim's hardware stays slow until the rank
      // is drained or evicted (one slow rank at a time).
      slow_rank_ = static_cast<int32_t>(
          faults_->pick(FaultKind::SlowRank, "compute", static_cast<size_t>(nranks_)));
      slow_factor_ = faults_->slow_factor();
    }
    if (faults_->should_fault(FaultKind::JitterKernel, "compute")) {
      const size_t victim =
          faults_->pick(FaultKind::JitterKernel, "compute", static_cast<size_t>(nranks_));
      scratch_[victim] *= faults_->jitter_factor("compute");
      jitter_events_ += 1;
      MetricsRegistry::global().counter("bsp.jitter.events").add(1.0);
    }
  }
  if (slow_rank_ >= 0 && slow_rank_ < nranks_) {
    scratch_[static_cast<size_t>(slow_rank_)] *= slow_factor_;
    if (phase == Phase::Compute) slow_steps_ += 1;
  }

  // The detector sees the effective (faulted, pre-mitigation) timings: feeding
  // it mitigated numbers would mask the straggler and make the verdict flap.
  if (stragopt_.enabled && phase == Phase::Compute) detector_.observe(scratch_);

  // One-shot speculative re-execution, if armed: the helper re-runs the
  // victim's shard at nominal speed (seconds[victim], the unfaulted cost)
  // after its own work, and the first finisher wins.
  double spec_extra = 0.0;
  if (spec_victim_ >= 0 && spec_victim_ < nranks_ && spec_helper_ >= 0 &&
      spec_helper_ < nranks_) {
    const size_t v = static_cast<size_t>(spec_victim_);
    const size_t h = static_cast<size_t>(spec_helper_);
    const double helper_total = scratch_[h] + seconds[v];
    const double effective_victim = std::min(scratch_[v], helper_total);
    const double helper_busy =
        std::min(helper_total, std::max(scratch_[h], effective_victim));
    spec_extra = helper_busy - scratch_[h];
    scratch_[v] = effective_victim;
    scratch_[h] = helper_busy;
  }
  spec_victim_ = spec_helper_ = -1;

  const double step = *std::max_element(scratch_.begin(), scratch_.end());
  const double start = ledger_.advance(step);
  const double spec_charge = std::min(spec_extra, step);
  rank_seconds_by_phase_[static_cast<size_t>(phase)] = scratch_;
  ledger_.record(slot_of(phase), start, step - spec_charge, trace_step_);
  ledger_.record(Slot::Speculation, start + (step - spec_charge), spec_charge, trace_step_);
  if (phase == Phase::Compute) {
    trace_step_ += 1;
    MetricsRegistry::global().counter("bsp.steps").add(1.0);
  }
}

void BspSimulator::uniform_compute(double seconds, Phase phase) {
  std::vector<double> s(static_cast<size_t>(nranks_), seconds);
  compute_step(s, phase);
}

void BspSimulator::exchange(std::span<const Message> messages) {
  if (nranks_ == 1 || messages.empty()) return;
  std::vector<double> cost(static_cast<size_t>(nranks_), 0.0);
  double fault_cost = 0.0;
  int64_t bytes_total = 0;
  int64_t dropped_here = 0;
  for (const Message& m : messages) {
    if (m.src < 0 || m.src >= nranks_ || m.dst < 0 || m.dst >= nranks_)
      throw std::invalid_argument("exchange: rank out of range");
    if (m.src == m.dst) continue;  // local copies are free
    bytes_total += m.bytes;
    const double t = model_.per_message(m.bytes);
    cost[static_cast<size_t>(m.src)] += t;
    cost[static_cast<size_t>(m.dst)] += t;
    if (faults_ != nullptr && faults_->should_fault(FaultKind::DroppedMessage, "exchange")) {
      // The sender times out waiting for the ack, then retransmits.
      const double penalty = model_.drop_timeout_s + t;
      cost[static_cast<size_t>(m.src)] += penalty;
      cost[static_cast<size_t>(m.dst)] += penalty;
      fault_cost += penalty;
      dropped_messages_ += 1;
      dropped_here += 1;
    }
  }
  {
    auto& mx = MetricsRegistry::global();
    mx.counter("bsp.exchange.messages").add(static_cast<double>(messages.size()));
    mx.counter("bsp.exchange.bytes").add(static_cast<double>(bytes_total));
    if (dropped_here > 0)
      mx.counter("bsp.exchange.dropped").add(static_cast<double>(dropped_here));
  }
  double step = *std::max_element(cost.begin(), cost.end());
  if (faults_ != nullptr && faults_->should_fault(FaultKind::StuckRank, "exchange")) {
    // One rank stalls (page fault, OS jitter, failed NIC): since the superstep
    // completes when the slowest rank does, the stall lands on the clock.
    const double stall = faults_->stall_seconds(step);
    step += stall;
    fault_cost += stall;
    stuck_events_ += 1;
  }
  if (faults_ != nullptr) {
    const double stall = hang_penalty(step);
    step += stall;
    fault_cost += stall;
  }
  charge_communication(step, fault_cost);
}

double BspSimulator::hang_penalty(double nominal) {
  if (faults_ == nullptr || !faults_->should_fault(FaultKind::HangExchange, "exchange"))
    return 0.0;
  hang_events_ += 1;
  MetricsRegistry::global().counter("bsp.hang.events").add(1.0);
  if (!stragopt_.enabled) {
    // Unwatched hang: the job blocks until the (huge) stall clears on its own.
    return faults_->hang_seconds();
  }
  // Deadline watchdog: each attempt is bounded by deadline_factor x the
  // nominal exchange cost, and each expiry counts as a missed heartbeat.
  // Suspect verdicts retry (a transient hang clears and the retry goes
  // through); a Dead verdict — miss_threshold consecutive expiries — escalates
  // to the eviction path via hang_suspect().
  const double deadline =
      stragopt_.deadline_factor * std::max(nominal, model_.latency_s);
  double stall = 0.0;
  int misses = 0;
  for (;;) {
    misses += 1;
    watchdog_timeouts_ += 1;
    MetricsRegistry::global().counter("bsp.watchdog.timeouts").add(1.0);
    stall += deadline;
    if (heartbeat_.classify(misses) == HeartbeatModel::Verdict::Dead) {
      hang_suspect_ = static_cast<int32_t>(
          faults_->pick(FaultKind::HangExchange, "exchange", static_cast<size_t>(nranks_)));
      break;
    }
    if (!faults_->should_fault(FaultKind::HangExchange, "exchange-retry")) break;
    hang_events_ += 1;
  }
  return stall;
}

BlockChecksum BspSimulator::transmit(std::span<double> payload, std::string_view site) {
  const BlockChecksum sidecar = block_checksum(payload);
  if (faults_ != nullptr && faults_->should_fault(FaultKind::BitFlipMessage, site)) {
    faults_->flip_bit(payload, FaultKind::BitFlipMessage, site);
    silent_flips_ += 1;
  }
  return sidecar;
}

void BspSimulator::evict_rank(int32_t rank) {
  if (rank < 0 || rank >= nranks_) throw std::invalid_argument("evict_rank: rank out of range");
  if (nranks_ <= 1) throw std::invalid_argument("evict_rank: no survivors would remain");
  // Survivors confirm the death only after miss_threshold missed heartbeats;
  // that suspicion window is wall time the whole job loses.
  charge(Slot::Recovery, heartbeat_.suspicion_timeout());
  MetricsRegistry::global().counter("bsp.evictions").add(1.0);
  nranks_ -= 1;
  evictions_ += 1;
  shrink_bookkeeping(rank);
}

void BspSimulator::set_straggler(StragglerOptions opt) {
  stragopt_ = opt;
  detector_ = StragglerDetector(nranks_, opt);
}

void BspSimulator::set_slow_rank(int32_t rank, double factor) {
  if (rank < 0 || rank >= nranks_)
    throw std::invalid_argument("set_slow_rank: rank out of range");
  if (!(factor >= 1.0)) throw std::invalid_argument("set_slow_rank: factor must be >= 1");
  slow_rank_ = rank;
  slow_factor_ = factor;
}

void BspSimulator::arm_speculation(int32_t victim, int32_t helper) {
  if (victim < 0 || victim >= nranks_ || helper < 0 || helper >= nranks_)
    throw std::invalid_argument("arm_speculation: rank out of range");
  if (victim == helper) throw std::invalid_argument("arm_speculation: victim == helper");
  spec_victim_ = victim;
  spec_helper_ = helper;
}

void BspSimulator::retire_rank(int32_t rank) {
  if (rank < 0 || rank >= nranks_) throw std::invalid_argument("retire_rank: rank out of range");
  if (nranks_ <= 1) throw std::invalid_argument("retire_rank: no survivors would remain");
  // No suspicion timeout: the rank is alive and drained deliberately. The
  // only cost is the shard motion the caller bills via charge_rebalance.
  nranks_ -= 1;
  retirements_ += 1;
  MetricsRegistry::global().counter("bsp.retirements").add(1.0);
  shrink_bookkeeping(rank);
}

void BspSimulator::shrink_bookkeeping(int32_t removed_rank) {
  if (slow_rank_ == removed_rank) {
    slow_rank_ = -1;
    slow_factor_ = 1.0;
  } else if (slow_rank_ > removed_rank) {
    slow_rank_ -= 1;
  }
  spec_victim_ = spec_helper_ = -1;
  hang_suspect_ = -1;
  if (stragopt_.enabled) detector_.resize(nranks_);
}

void BspSimulator::charge_rebalance(int64_t bytes) {
  // Same scatter model as charge_redistribution, but the motion is a
  // scheduling decision (derating a straggler), not failure recovery — so it
  // lands in its own phase.
  charge(Slot::Rebalance, static_cast<double>(nranks_) * model_.latency_s +
                              static_cast<double>(bytes) / model_.bandwidth_Bps);
  MetricsRegistry::global().counter("bsp.rebalance.bytes").add(static_cast<double>(bytes));
}

const std::vector<double>& BspSimulator::last_rank_seconds(Phase phase) const {
  return rank_seconds_by_phase_[static_cast<size_t>(phase)];
}

void BspSimulator::charge_redistribution(int64_t bytes) {
  // The survivors re-read the checkpointed state and scatter it into the new
  // partitioning: one message per survivor plus the full image over the wire.
  charge(Slot::Redistribution, static_cast<double>(nranks_) * model_.latency_s +
                                   static_cast<double>(bytes) / model_.bandwidth_Bps);
  MetricsRegistry::global().counter("bsp.redistribution.bytes").add(static_cast<double>(bytes));
}

void BspSimulator::charge_fault(double seconds) { charge_communication(seconds, seconds); }

void BspSimulator::allreduce(int64_t bytes) {
  if (nranks_ == 1) return;
  // Recursive doubling: ceil(log2 p) rounds, each alpha + bytes/bw.
  const double rounds = std::ceil(std::log2(static_cast<double>(nranks_)));
  charge(Slot::Communication, rounds * model_.per_message(bytes));
  MetricsRegistry::global().counter("bsp.allreduce.bytes").add(static_cast<double>(bytes));
}

void BspSimulator::gather(int64_t bytes_per_rank) {
  if (nranks_ == 1) return;
  // Binomial-tree gather: log2 p rounds, message sizes double each round;
  // total data through the root is (p-1)*bytes.
  const double rounds = std::ceil(std::log2(static_cast<double>(nranks_)));
  const double volume = static_cast<double>(bytes_per_rank) * (nranks_ - 1);
  double step = rounds * model_.latency_s + volume / model_.bandwidth_Bps;
  double fault_cost = 0.0;
  if (faults_ != nullptr) {
    // A collective can hang just like a point-to-point exchange (one late
    // contributor blocks the tree), so it runs under the same watchdog.
    const double stall = hang_penalty(step);
    step += stall;
    fault_cost += stall;
  }
  charge_communication(step, fault_cost);
  MetricsRegistry::global().counter("bsp.gather.bytes").add(static_cast<double>(bytes_per_rank) * (nranks_ - 1));
}

}  // namespace finch::rt
