#pragma once
// Chaos campaign driver: replay composed fault schedules against the three
// distributed solvers and judge every run with a recovery oracle.
//
// A campaign is (engine seed, solver, ChaosSpec, N): N generated schedules,
// each mixing several fault classes, each replayed on a fresh solver armed
// with the full defense stack. The oracle per run:
//
//   survived     — run() returned (no ResilienceError / budget exhaustion)
//   finite       — no NaN/Inf in the final temperature / intensity fields
//   bit_exact    — final fields bitwise equal to the fault-free reference run
//                  of the *same* solver/defense configuration
//   phases       — the phase ledger conserves the virtual clock
//                  (phases().total() == virtual_elapsed() up to accumulation-
//                  order ulps: the clock is one running sum, the ledger is
//                  per-phase bins summed later, so a tiny relative tolerance
//                  absorbs reordering while a double-charged or dropped
//                  backoff/stall — many orders of magnitude larger — fails)
//   accounting   — every injector fire is recorded in the event log
//
// A schedule that fails the oracle is handed to the shrinker: ddmin over the
// fault list, then per-fault fire-count and timing minimization, re-running
// the oracle at each candidate. The minimal failing schedule round-trips
// through JSON (runtime/chaos.hpp) as the replayable repro artifact.
//
// Everything is deterministic in (seed, index): wall-clock-driven mitigations
// (speculation, dynamic rebalance) are off by default in ChaosDefense because
// they change which recovery actions run from one execution to the next —
// the numerics stay exact, but "same schedule, same verdict" would not hold
// for the shrinker.
//
// Instrumented with rt::TraceSpan ("chaos.schedule", "chaos.shrink") and
// chaos.* metrics (OBSERVABILITY.md).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bte/resilience.hpp"
#include "bte/solver_factory.hpp"
#include "runtime/chaos.hpp"

namespace finch::bte {

// Defense stack a campaign arms on every solver under test.
struct ChaosDefense {
  int checkpoint_interval = 6;
  int max_retries = 4;
  int max_rollbacks = 64;
  bool sdc = true;        // ABFT checksums + sentinels + block repair
  bool straggler = true;  // detector + exchange watchdog (hang escalation)
  // Off by default: both react to *measured wall time*, so the set of
  // recovery actions they take differs run to run even under an identical
  // schedule — poison for delta debugging. Campaigns that only measure
  // survival (not shrink) may enable them.
  bool speculation = false;
  bool rebalance = false;

  ResilienceOptions to_options(rt::FaultInjector* injector) const;
};

// Oracle verdict for one schedule replay.
struct ChaosOutcome {
  rt::ChaosSchedule schedule;
  bool survived = false;
  bool finite = false;
  bool bit_exact = false;
  bool phases_conserved = false;
  bool injection_accounted = false;
  std::string detail;  // first oracle violation, or the terminating exception
  int64_t injected = 0;
  double virtual_seconds = 0;
  double recovery_virtual_seconds = 0;  // recovery + redistribution phases
  ResilienceStats stats;

  bool ok() const {
    return survived && finite && bit_exact && phases_conserved && injection_accounted;
  }
};

class ChaosCampaign {
 public:
  ChaosCampaign(const BteScenario& scenario, std::shared_ptr<const BtePhysics> physics,
                ChaosDefense defense = {});

  const ChaosDefense& defense() const { return defense_; }

  // Replays one schedule on a fresh solver and judges it. Deterministic: the
  // same schedule always yields the same outcome.
  ChaosOutcome run_schedule(const rt::ChaosSchedule& sched);

  // Generates and replays schedules [0, nschedules) of a campaign.
  std::vector<ChaosOutcome> run_campaign(const rt::ChaosEngine& engine, const std::string& solver,
                                         const rt::ChaosSpec& spec, int64_t nschedules);

  // Delta-debugs `failing` to a minimal schedule that still fails the oracle:
  // ddmin over the fault list, then fire counts shrunk to 1 and timings
  // zeroed where the failure persists. Returns `failing` unchanged if it does
  // not actually fail (nothing to shrink).
  rt::ChaosSchedule shrink(const rt::ChaosSchedule& failing);

 private:
  struct Reference {
    std::vector<double> T, I;
  };
  // Fault-free run of the same solver/defense configuration; cached per
  // (solver, nparts, nsteps).
  const Reference& reference(const std::string& solver, int nparts, int nsteps);

  BteScenario scen_;
  std::shared_ptr<const BtePhysics> phys_;
  ChaosDefense defense_;
  std::map<std::string, Reference> refs_;
  int64_t total_rollbacks_ = 0;
  int64_t total_repairs_ = 0;
};

}  // namespace finch::bte
