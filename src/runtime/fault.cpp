#include "fault.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "hash.hpp"
#include "metrics.hpp"

namespace finch::rt {

namespace {

double to_unit(uint64_t bits) {
  // 53 high bits -> [0, 1).
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::KernelLaunchFailure: return "kernel-launch-failure";
    case FaultKind::TransferCorruption: return "transfer-corruption";
    case FaultKind::DroppedMessage: return "dropped-message";
    case FaultKind::StuckRank: return "stuck-rank";
    case FaultKind::RankFailure: return "rank-failure";
    case FaultKind::DeviceLoss: return "device-loss";
    case FaultKind::BitFlipDeviceArray: return "bitflip-device-array";
    case FaultKind::BitFlipMessage: return "bitflip-message";
    case FaultKind::BitFlipReduction: return "bitflip-reduction";
    case FaultKind::SlowRank: return "slow-rank";
    case FaultKind::JitterKernel: return "jitter-kernel";
    case FaultKind::HangExchange: return "hang-exchange";
    case FaultKind::AllocFailure: return "alloc-failure";
    case FaultKind::MemoryPressure: return "memory-pressure";
  }
  return "unknown-fault";
}

namespace {

// Every kind belongs to exactly one class. The switch has no default on
// purpose: adding a FaultKind without classifying it is a -Werror=switch
// compile error here, and the runtime exhaustiveness test
// (Durability.FaultTaxonomyIsExhaustive) re-checks the same invariant.
enum class FaultClass { Transient, Permanent, Silent, Performance, Resource };

FaultClass classify(FaultKind kind) {
  switch (kind) {
    case FaultKind::KernelLaunchFailure:
    case FaultKind::TransferCorruption:
    case FaultKind::DroppedMessage:
      return FaultClass::Transient;
    case FaultKind::RankFailure:
    case FaultKind::DeviceLoss:
      return FaultClass::Permanent;
    case FaultKind::BitFlipDeviceArray:
    case FaultKind::BitFlipMessage:
    case FaultKind::BitFlipReduction:
      return FaultClass::Silent;
    case FaultKind::StuckRank:
    case FaultKind::SlowRank:
    case FaultKind::JitterKernel:
    case FaultKind::HangExchange:
      return FaultClass::Performance;
    case FaultKind::AllocFailure:
    case FaultKind::MemoryPressure:
      return FaultClass::Resource;
  }
  return FaultClass::Transient;
}

}  // namespace

bool fault_is_permanent(FaultKind kind) { return classify(kind) == FaultClass::Permanent; }

bool fault_is_silent(FaultKind kind) { return classify(kind) == FaultClass::Silent; }

bool fault_is_performance(FaultKind kind) { return classify(kind) == FaultClass::Performance; }

bool fault_is_resource(FaultKind kind) { return classify(kind) == FaultClass::Resource; }

void FaultInjector::set_policy(FaultKind kind, FaultPolicy policy) {
  global_[static_cast<size_t>(kind)] = policy;
  has_global_[static_cast<size_t>(kind)] = true;
}

void FaultInjector::set_site_policy(FaultKind kind, const std::string& site, FaultPolicy policy) {
  site_policies_[{static_cast<int>(kind), site}] = policy;
}

const FaultPolicy* FaultInjector::policy_for(FaultKind kind, std::string_view site) const {
  auto it = site_policies_.find(std::make_pair(static_cast<int>(kind), std::string(site)));
  if (it != site_policies_.end()) return &it->second;
  if (has_global_[static_cast<size_t>(kind)]) return &global_[static_cast<size_t>(kind)];
  return nullptr;
}

uint64_t FaultInjector::draw(FaultKind kind, std::string_view site, int64_t index,
                             uint64_t salt) const {
  uint64_t h = seed_;
  h = splitmix64(h ^ (static_cast<uint64_t>(kind) + 1));
  h = splitmix64(h ^ fnv1a64(site));
  h = splitmix64(h ^ static_cast<uint64_t>(index));
  return splitmix64(h ^ salt);
}

void FaultInjector::schedule_fault(FaultKind kind, const std::string& site, int64_t event_index) {
  if (event_index < 0) throw std::invalid_argument("schedule_fault: event_index must be >= 0");
  scheduled_[{static_cast<int>(kind), site}].insert(event_index);
}

int64_t FaultInjector::scheduled_pending() const {
  int64_t n = 0;
  for (const auto& [key, fires] : scheduled_) {
    const auto it = counters_.find(key);
    const int64_t next = it == counters_.end() ? 0 : it->second;
    for (int64_t e : fires)
      if (e >= next) n += 1;
  }
  return n;
}

bool FaultInjector::should_fault(FaultKind kind, std::string_view site) {
  const auto key = std::make_pair(static_cast<int>(kind), std::string(site));
  const int64_t index = counters_[key]++;
  stats_.consulted[static_cast<size_t>(kind)] += 1;

  // Scheduled fires (composed chaos schedules) take precedence over the
  // per-(kind, site) policy and ignore its probability / first_event / cap.
  bool fire = false;
  if (!scheduled_.empty()) {
    const auto it = scheduled_.find(key);
    fire = it != scheduled_.end() && it->second.count(index) > 0;
  }
  if (!fire) {
    const FaultPolicy* p = policy_for(kind, site);
    if (p == nullptr) return false;
    if (index < p->first_event) return false;
    if (p->max_injections >= 0 && fired_[key] >= p->max_injections) return false;
    if (p->every > 0)
      fire = (index - p->first_event) % p->every == 0;
    else
      fire = p->probability > 0.0 && to_unit(draw(kind, site, index, 0)) < p->probability;
  }
  if (!fire) return false;

  fired_[key] += 1;
  stats_.injected[static_cast<size_t>(kind)] += 1;
  events_.push_back({kind, std::string(site), index});
  // Metrics mirror: the conservation invariant (metrics == FaultStats) is
  // asserted by tests/trace_test.cpp.
  auto& mx = MetricsRegistry::global();
  mx.counter("fault.injected").add(1.0);
  mx.counter(std::string("fault.injected.") + fault_kind_name(kind)).add(1.0);
  return true;
}

size_t FaultInjector::corrupt(std::span<double> data, std::string_view site) {
  if (data.empty()) return 0;
  const uint64_t bits = draw(FaultKind::TransferCorruption, site,
                             static_cast<int64_t>(events_.size()), 0x5eedULL);
  const size_t idx = static_cast<size_t>(bits % data.size());
  switch (bits >> 62) {  // top two bits pick the poison
    case 0: data[idx] = std::numeric_limits<double>::quiet_NaN(); break;
    case 1: data[idx] = std::numeric_limits<double>::infinity(); break;
    default: data[idx] = -std::numeric_limits<double>::infinity(); break;
  }
  return idx;
}

size_t FaultInjector::flip_bit(std::span<double> data, FaultKind kind, std::string_view site) {
  if (data.empty()) return 0;
  const uint64_t bits = draw(kind, site, static_cast<int64_t>(events_.size()), 0xf11bULL);
  const size_t idx = static_cast<size_t>(bits % data.size());
  // Flip one of the 52 mantissa bits: the exponent is untouched, so a finite
  // value stays finite — the flip is invisible to every NaN/Inf guard.
  const int bit = static_cast<int>((bits >> 32) % 52);
  uint64_t pattern;
  std::memcpy(&pattern, &data[idx], sizeof(pattern));
  pattern ^= (1ULL << bit);
  std::memcpy(&data[idx], &pattern, sizeof(pattern));
  return idx;
}

size_t FaultInjector::flip_raw_bit(std::span<std::byte> data, FaultKind kind,
                                   std::string_view site) {
  if (data.empty()) return 0;
  const uint64_t bits = draw(kind, site, static_cast<int64_t>(events_.size()), 0xb17eULL);
  const size_t idx = static_cast<size_t>(bits % data.size());
  data[idx] ^= static_cast<std::byte>(1u << ((bits >> 32) % 8));
  return idx;
}

double FaultInjector::jitter_factor(std::string_view site) const {
  if (jitter_max_ <= 1.0) return 1.0;
  const uint64_t bits = draw(FaultKind::JitterKernel, site,
                             static_cast<int64_t>(events_.size()), 0x717eULL);
  return 1.0 + (jitter_max_ - 1.0) * to_unit(bits);
}

size_t FaultInjector::pick(FaultKind kind, std::string_view site, size_t n) const {
  if (n == 0) return 0;
  const uint64_t bits = draw(kind, site, static_cast<int64_t>(events_.size()), 0x7100ULL);
  return static_cast<size_t>(bits % n);
}

void FaultInjector::reset_counters() {
  counters_.clear();
  fired_.clear();
  stats_ = FaultStats{};
  events_.clear();
}

std::vector<FaultCounter> FaultInjector::export_counters() const {
  std::vector<FaultCounter> out;
  out.reserve(counters_.size());
  for (const auto& [key, consulted] : counters_) {
    FaultCounter c;
    c.kind = key.first;
    c.site = key.second;
    c.consulted = consulted;
    const auto fit = fired_.find(key);
    c.fired = fit == fired_.end() ? 0 : fit->second;
    out.push_back(std::move(c));
  }
  return out;
}

void FaultInjector::import_counters(const std::vector<FaultCounter>& counters,
                                    const std::vector<FaultEvent>& events) {
  reset_counters();
  for (const FaultCounter& c : counters) {
    if (c.kind < 0 || c.kind >= kNumFaultKinds)
      throw std::invalid_argument("import_counters: unknown fault kind");
    const auto key = std::make_pair(c.kind, c.site);
    counters_[key] = c.consulted;
    if (c.fired != 0) fired_[key] = c.fired;
    stats_.consulted[static_cast<size_t>(c.kind)] += c.consulted;
    stats_.injected[static_cast<size_t>(c.kind)] += c.fired;
  }
  // The event log's length keys victim/flip draws, and its sum must equal the
  // injected totals (the accounting invariant chaos oracles assert).
  events_ = events;
  int64_t injected = 0;
  for (int64_t v : stats_.injected) injected += v;
  if (injected != static_cast<int64_t>(events_.size()))
    throw std::invalid_argument("import_counters: event log does not match fired counters");
}

}  // namespace finch::rt
