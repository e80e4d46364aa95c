#pragma once
// Chaos campaign engine: deterministic, seeded, multi-class fault schedules.
//
// The resilience layers were each proven against their own fault class in
// isolation — transient retries, permanent evictions, silent-corruption
// repair, fail-slow mitigation. A long-running service sees the classes
// *composed*: an SDC strike while a redistribution is in flight, a rank
// death mid-block-repair, a hang inside a checkpoint restore. The chaos
// engine generates seeded schedules that mix classes with configurable
// density, timing windows and co-occurrence targeting, and arms them on a
// FaultInjector as exact scheduled fires (FaultInjector::schedule_fault), so
// one replay drives every recovery path at once and a given (seed, index)
// reproduces the same run forever.
//
// Schedules round-trip through a small JSON form so a failing schedule —
// minimized by the delta-debugging shrinker in bte/chaos_campaign.hpp — is a
// replayable artifact: attach it to a bug, commit it as a regression test,
// upload it from CI.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fault.hpp"

namespace finch::rt {

struct JsonCursor;

// One armed fault: `count` fires of `kind` at `site`, placed on consultation
// indices first_event, first_event + stride, ... of that (kind, site)
// counter. Consultation indices, not step numbers: sites are consulted a
// site-dependent number of times per step (every halo message, once per
// exchange, ...), which is exactly the granularity recovery logic runs at.
struct ChaosFault {
  FaultKind kind = FaultKind::DroppedMessage;
  std::string site;
  int64_t first_event = 0;
  int64_t stride = 1;
  int64_t count = 1;
};

// The one fault codec, shared by chaos schedules, job files and durable job
// records: {"kind": K, "site": S, "first_event": N, "stride": N, "count": N}.
// fault_error() says why a fault cannot be armed (an empty site,
// first_event < 0, stride < 1 or count < 1), or returns "" when it can;
// fault_from_json() rejects such a fault like any malformed input, and
// svc::Scheduler::run() refuses a job spec that carries one.
std::string fault_error(const ChaosFault& f);
std::string fault_to_json(const ChaosFault& f);
ChaosFault fault_from_json(JsonCursor& c);

// A deterministic multi-class fault schedule replayed against one solver.
struct ChaosSchedule {
  uint64_t seed = 0;            // campaign seed it was drawn from
  int64_t index = 0;            // position within the campaign
  std::string solver = "cell";  // "cell" | "band" | "mgpu"
  int nparts = 4;               // ranks (cell/band) or devices (mgpu)
  int nsteps = 24;
  std::vector<ChaosFault> faults;

  // Distinct fault classes (transient / permanent / silent / performance /
  // resource) among the armed faults.
  int num_classes() const;
  int64_t total_fires() const;
};

// Replayable artifact form. schedule_from_json accepts exactly what
// schedule_to_json emits (plus whitespace); it throws std::invalid_argument
// on malformed input, never half-parses.
std::string schedule_to_json(const ChaosSchedule& sched);
ChaosSchedule schedule_from_json(std::string_view json);

// Inverse of fault_kind_name; throws std::invalid_argument on unknown names.
FaultKind fault_kind_from_name(std::string_view name);

// Density / shape knobs for generated schedules.
struct ChaosSpec {
  int nparts = 4;
  int nsteps = 24;
  int min_faults = 3;
  int max_faults = 7;
  int min_classes = 3;          // distinct classes each schedule must mix
  bool allow_permanent = true;  // RankFailure / DeviceLoss / escalating hangs
  // Cluster fire windows around one epoch of the run instead of spreading
  // them uniformly — co-occurrence targeting, the configuration that makes
  // cross-class interactions (repair during redistribution, flip during
  // restore) likely instead of coincidental.
  bool co_occur = true;
  double density = 1.0;  // scales per-fault fire counts
};

// One (kind, site) the generator may draw for a solver, with the rough
// consultation rate used to convert step windows into consultation indices.
struct ChaosMenuEntry {
  FaultKind kind;
  const char* site;
  double consults_per_step;  // at ChaosSpec::nparts parts; rough is fine
};

class ChaosEngine {
 public:
  explicit ChaosEngine(uint64_t seed) : seed_(seed) {}
  uint64_t seed() const { return seed_; }

  // Deterministic draw: (engine seed, solver, spec, index) always yields the
  // same schedule. Generated schedules respect survivor budgets (at most
  // nparts - 2 evictions can ever be triggered) so every schedule is
  // *survivable by design* — the oracle then has to prove the recovery
  // machinery actually survives it.
  ChaosSchedule generate(const std::string& solver, const ChaosSpec& spec, int64_t index) const;

  // Arms every fire of `sched` on the injector as exact scheduled indices.
  static void arm(FaultInjector& injector, const ChaosSchedule& sched);

  // The (kind, site) menu the generator draws from for `solver` — the sites
  // that solver actually consults. Throws std::invalid_argument for unknown
  // solver names.
  static const std::vector<ChaosMenuEntry>& site_menu(const std::string& solver);

 private:
  uint64_t seed_;
};

}  // namespace finch::rt
