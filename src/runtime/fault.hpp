#pragma once
// Deterministic fault injection for the simulated runtime.
//
// At the paper's scale (320 MPI ranks, multiple devices) transient faults are
// routine: a kernel launch fails, a PCIe transfer flips bits, a message is
// dropped, a rank stalls. The injector models these as typed faults drawn from
// a counter-keyed hash of a user seed, so a given (seed, site) pair always
// produces the same fault sequence regardless of how sites interleave — runs
// are reproducible and recovery logic can be tested deterministically.
//
// The runtime consults the injector at its natural fault sites —
// SimGpu::launch / memcpy_{h2d,d2h} and BspSimulator::exchange — so injected
// faults land inside the virtual-time model: a failed launch still pays its
// launch overhead, a dropped message pays a timeout plus the retransmit, a
// stuck rank stretches the superstep. Their cost therefore shows up in
// GpuCounters / PhaseTimes exactly like real faults would in a profile.

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace finch::rt {

enum class FaultKind : int {
  KernelLaunchFailure = 0,  // SimGpu::launch throws TransientFault
  TransferCorruption = 1,   // memcpy destination gets a non-finite element
  DroppedMessage = 2,       // exchange message lost; costs timeout + resend
  StuckRank = 3,            // one rank stalls, stretching the superstep
  // Permanent faults: the victim never comes back. Recovery is not a retry
  // but an eviction — survivors repartition the dead worker's shard and
  // restart from the last (topology-independent) checkpoint.
  RankFailure = 4,          // an MPI rank dies (node crash, OOM kill)
  DeviceLoss = 5,           // a GPU falls off the bus (XID error, ECC death)
  // Silent faults: a single bit flips inside a *finite* value — no NaN, no
  // Inf, no error code. The loud-fault guards above cannot see these; only
  // the ABFT checksum layer (abft.hpp) and physics invariants can.
  BitFlipDeviceArray = 6,   // flip in device-resident array storage
  BitFlipMessage = 7,       // flip in an in-flight halo / exchange payload
  BitFlipReduction = 8,     // flip in a reduction (gather) contribution
  // Performance faults: nothing crashes and no data is wrong — the victim is
  // just *slow*, which under a bulk-synchronous model taxes every rank. These
  // are invisible to error codes, NaN scans and checksums alike; only timing
  // telemetry (StragglerDetector) and deadlines (the exchange watchdog) see
  // them.
  SlowRank = 9,             // persistent multiplicative slowdown of one rank/device
  JitterKernel = 10,        // random per-step slowdown (OS noise, clock throttle)
  HangExchange = 11,        // an exchange stalls indefinitely; only a timeout cures it
  // Resource-exhaustion faults: the machine runs out of something. Nothing is
  // numerically wrong and nobody died — an allocation just failed, or external
  // memory pressure shrank the usable budget. The defense is graceful
  // degradation (free rebuildable state, spill, retry), never rollback.
  AllocFailure = 12,        // a device allocation fails (cudaMalloc OOM)
  MemoryPressure = 13,      // external pressure shrinks the effective budget
};
inline constexpr int kNumFaultKinds = 14;

// True for faults that kill their victim permanently (no retry can help).
bool fault_is_permanent(FaultKind kind);

// True for faults that corrupt data without any error signal (bit flips in
// finite values). Detection requires checksums / invariants, not NaN scans.
bool fault_is_silent(FaultKind kind);

// True for faults that cost only time (stalls, slowdowns, hangs): the numerics
// stay correct, so the defense is detection + mitigation, never rollback.
bool fault_is_performance(FaultKind kind);

// True for resource-exhaustion faults (failed allocations, memory pressure):
// the defense is graceful degradation through a MemoryBudget relief chain.
bool fault_is_resource(FaultKind kind);

const char* fault_kind_name(FaultKind kind);

// Failure-detection model for permanent faults: every rank/device emits a
// heartbeat each period_s; miss_threshold consecutive missed beats confirm
// the suspicion. Survivors therefore notice a death suspicion_timeout()
// virtual seconds after it happens — charged to the recovery phase.
struct HeartbeatModel {
  double period_s = 100e-6;
  int miss_threshold = 3;
  int suspect_after = 1;  // missed beats before a rank is merely *suspected*
  double suspicion_timeout() const { return period_s * miss_threshold; }

  // Three-state verdict: below suspect_after a rank is Alive, at or above
  // miss_threshold it is declared Dead (eviction), and in between it is
  // Suspect — late but possibly just slow, so the defense retries/mitigates
  // instead of evicting. This is the fail-slow gap a two-state detector has.
  enum class Verdict { Alive, Suspect, Dead };
  Verdict classify(int missed_beats) const {
    if (missed_beats >= miss_threshold) return Verdict::Dead;
    if (missed_beats >= suspect_after) return Verdict::Suspect;
    return Verdict::Alive;
  }

  // Beats a rank running `slowdown`x slower appears to miss: its heartbeats
  // still arrive, just stretched by the same factor, so the longest gap looks
  // like floor(slowdown) - 1 missed periods. A 2x-slow rank misses 1 beat —
  // Suspect under the defaults, never Dead.
  int misses_for_slowdown(double slowdown) const {
    if (!(slowdown > 1.0)) return 0;
    return static_cast<int>(slowdown) - 1;
  }
};

// Thrown by the runtime when a transient fault fires at a site whose failure
// mode is an error return (e.g. a kernel launch). Callers retry with backoff.
class TransientFault : public std::runtime_error {
 public:
  TransientFault(FaultKind kind, std::string site)
      : std::runtime_error(std::string(fault_kind_name(kind)) + " at " + site),
        kind_(kind),
        site_(std::move(site)) {}
  FaultKind kind() const { return kind_; }
  const std::string& site() const { return site_; }

 private:
  FaultKind kind_;
  std::string site_;
};

// Per-kind (optionally per-site) injection policy. `every` > 0 switches from
// probabilistic to scheduled injection: the fault fires on consultations
// first_event, first_event + every, ... which tests use for exact placement.
struct FaultPolicy {
  double probability = 0.0;
  int64_t max_injections = -1;  // cap on fires for this policy; -1 = unlimited
  int64_t first_event = 0;      // consultations before this index never fire
  int64_t every = 0;            // if > 0, deterministic schedule (probability ignored)
};

struct FaultEvent {
  FaultKind kind;
  std::string site;
  int64_t event_index = 0;  // per-(kind, site) consultation counter value
};

// One (kind, site) counter pair of an injector, in exportable form. Each
// durable generation's run manifest persists these so a restarted process
// resumes the fault draw sequence exactly where the killed process left it
// (counters key every draw).
struct FaultCounter {
  int kind = 0;
  std::string site;
  int64_t consulted = 0;  // consultations so far at this (kind, site)
  int64_t fired = 0;      // fires charged against this policy's cap
};

struct FaultStats {
  std::array<int64_t, kNumFaultKinds> injected{};
  std::array<int64_t, kNumFaultKinds> consulted{};
  int64_t total_injected() const {
    int64_t n = 0;
    for (int64_t v : injected) n += v;
    return n;
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0) : seed_(seed) {}

  uint64_t seed() const { return seed_; }

  // Policy for a kind at every site; site-specific policies take precedence.
  void set_policy(FaultKind kind, FaultPolicy policy);
  void set_site_policy(FaultKind kind, const std::string& site, FaultPolicy policy);

  // ---- composed schedules (chaos campaigns, runtime/chaos.hpp) -------------
  //
  // Arms one extra fire of `kind` at `site` on exactly the `event_index`-th
  // consultation of that (kind, site) counter. Policies hold ONE schedule per
  // (kind, site) — a second set_site_policy overwrites the first — so they
  // cannot express a multi-class mixture. Scheduled fires accumulate instead:
  // any number of faults across all five classes can be armed concurrently,
  // which is what lets a chaos schedule compose transient, permanent, silent
  // and performance faults in one run. A scheduled fire bypasses the policy's
  // probability / cap machinery but lands in the same stats / events /
  // metrics stream, and fires again after reset_counters() (the armed
  // schedule is configuration, like a policy, not consumable state).
  void schedule_fault(FaultKind kind, const std::string& site, int64_t event_index);
  // Armed fires whose consultation index has not been reached yet.
  int64_t scheduled_pending() const;

  // One consultation: advances the (kind, site) counter and reports whether a
  // fault fires there. Deterministic in (seed, kind, site, counter).
  bool should_fault(FaultKind kind, std::string_view site);

  // Deterministically overwrites one element of `data` with NaN or +/-Inf
  // (the corruption a checksum or finite-scan must catch). Returns the index.
  size_t corrupt(std::span<double> data, std::string_view site);

  // Silent corruption: flips one of the low 52 (mantissa) bits of one element
  // of `data`, keyed like every other draw. The value stays finite, so NaN
  // scans cannot see the damage — only an ABFT checksum can. Returns the
  // flipped element's index (0 if `data` is empty; nothing is written then).
  size_t flip_bit(std::span<double> data, FaultKind kind, std::string_view site);

  // Raw-byte analogue of flip_bit for serialized images (the checkpoint
  // restore path): flips one bit of one byte, so the damage must be caught by
  // the image's own checksum — ABFT ledgers never see it. Returns the index
  // of the flipped byte (0 if `data` is empty; nothing is written then).
  size_t flip_raw_bit(std::span<std::byte> data, FaultKind kind, std::string_view site);

  // Deterministic choice in [0, n): picks the victim of a permanent fault,
  // keyed like every other draw (seed, kind, site, events so far) so a given
  // seed always kills the same sequence of ranks/devices.
  size_t pick(FaultKind kind, std::string_view site, size_t n) const;

  // Extra virtual seconds a StuckRank fault adds on top of a step that would
  // have cost `base_seconds`.
  double stall_seconds(double base_seconds) const { return stall_factor_ * base_seconds; }
  void set_stall_factor(double factor) { stall_factor_ = factor; }

  // Multiplicative slowdown a SlowRank victim applies to all of its compute —
  // the fail-slow analogue of stall_factor (thermal throttling, a failing DIMM
  // retrying ECC, a neighbor hammering shared cache).
  double slow_factor() const { return slow_factor_; }
  void set_slow_factor(double factor) { slow_factor_ = factor; }

  // Random per-fire slowdown for JitterKernel: a factor drawn deterministically
  // in [1, jitter_max], keyed like every other draw.
  double jitter_factor(std::string_view site) const;
  void set_jitter_max(double factor) { jitter_max_ = factor; }

  // Virtual seconds an *unwatched* HangExchange stalls the superstep — the
  // stall clears only when this (huge, relative to a step) timeout elapses.
  // The exchange watchdog exists to replace this with bounded deadlines.
  double hang_seconds() const { return hang_seconds_; }
  void set_hang_seconds(double seconds) { hang_seconds_ = seconds; }

  const FaultStats& stats() const { return stats_; }
  const std::vector<FaultEvent>& events() const { return events_; }
  void reset_counters();

  // ---- durable-run state (runtime/manifest.hpp) ----------------------------
  //
  // The injector's RNG is stateless (every draw is keyed by seed + counters),
  // so its whole resumable state is the counter maps plus the event log (the
  // log's size keys victim/flip draws). export_counters() snapshots them;
  // import_counters() rebuilds counters, fired caps, stats and the event log
  // so a resumed run draws the exact sequence the killed run would have.
  std::vector<FaultCounter> export_counters() const;
  void import_counters(const std::vector<FaultCounter>& counters,
                       const std::vector<FaultEvent>& events);

 private:
  const FaultPolicy* policy_for(FaultKind kind, std::string_view site) const;
  uint64_t draw(FaultKind kind, std::string_view site, int64_t index, uint64_t salt) const;

  uint64_t seed_ = 0;
  double stall_factor_ = 10.0;
  double slow_factor_ = 4.0;
  double jitter_max_ = 3.0;
  double hang_seconds_ = 10e-3;
  std::array<FaultPolicy, kNumFaultKinds> global_{};
  std::array<bool, kNumFaultKinds> has_global_{};
  std::map<std::pair<int, std::string>, FaultPolicy, std::less<>> site_policies_;
  std::map<std::pair<int, std::string>, std::set<int64_t>, std::less<>> scheduled_;
  std::map<std::pair<int, std::string>, int64_t, std::less<>> counters_;
  std::map<std::pair<int, std::string>, int64_t, std::less<>> fired_;
  FaultStats stats_;
  std::vector<FaultEvent> events_;
};

}  // namespace finch::rt
