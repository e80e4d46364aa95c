#include "chaos_campaign.hpp"

#include <cmath>
#include <sstream>

#include "runtime/checkpoint.hpp"
#include "runtime/metrics.hpp"
#include "runtime/trace.hpp"

namespace finch::bte {

namespace {

// Injector seed for a schedule: distinct per (campaign seed, index) so flip
// positions and eviction victims vary across a campaign, fixed for a given
// schedule so a JSON replay reproduces the run bit for bit.
uint64_t injector_seed(const rt::ChaosSchedule& s) {
  return s.seed ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(s.index + 1));
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

bool all_finite_vec(const std::vector<double>& v) {
  return rt::all_finite(std::span<const double>(v));
}

// Phase-ledger conservation: every virtual-clock charge must also land in
// exactly one phase bin. The clock is one running sum while the ledger is
// per-phase bins summed at total() time, so under interleaved fault charges
// the two differ by accumulation-order ulps — hence a tiny relative
// tolerance. A double-charge or dropped charge shows up at the size of a
// whole backoff/stall, many orders of magnitude above it.
bool phase_ledger_ok(double total, double elapsed) {
  const double scale = std::max(std::abs(total), std::abs(elapsed));
  return std::abs(total - elapsed) <= 1e-9 * std::max(scale, 1e-12);
}

}  // namespace

ResilienceOptions ChaosDefense::to_options(rt::FaultInjector* injector) const {
  ResilienceOptions opt;
  opt.injector = injector;
  opt.checkpoint.interval = checkpoint_interval;
  opt.max_retries = max_retries;
  opt.max_rollbacks = max_rollbacks;
  opt.sdc.enabled = sdc;
  opt.straggler.enabled = straggler;
  opt.straggler.speculation = speculation;
  opt.straggler.rebalance = rebalance;
  return opt;
}

ChaosCampaign::ChaosCampaign(const BteScenario& scenario,
                             std::shared_ptr<const BtePhysics> physics, ChaosDefense defense)
    : scen_(scenario), phys_(std::move(physics)), defense_(defense) {}

const ChaosCampaign::Reference& ChaosCampaign::reference(const std::string& solver, int nparts,
                                                         int nsteps) {
  const std::string key =
      solver + "/" + std::to_string(nparts) + "/" + std::to_string(nsteps);
  const auto it = refs_.find(key);
  if (it != refs_.end()) return it->second;
  AnySolver s(solver, scen_, phys_, nparts);
  s.enable_resilience(defense_.to_options(nullptr));
  s.run(nsteps);
  Reference ref{s.temperature(), s.intensity()};
  return refs_.emplace(key, std::move(ref)).first->second;
}

ChaosOutcome ChaosCampaign::run_schedule(const rt::ChaosSchedule& sched) {
  rt::TraceSpan span("chaos.schedule", {.step = sched.index});
  ChaosOutcome out;
  out.schedule = sched;

  rt::FaultInjector injector(injector_seed(sched));
  rt::ChaosEngine::arm(injector, sched);
  // Resource-class defense: a generous budget, so AllocFailure/MemoryPressure
  // fires from the schedule are absorbed by graceful degradation (relief
  // chain) rather than admission failure. Reliefs only free rebuildable state,
  // so the bit-exactness oracle still holds. Declared before the solver so
  // device buffers release their reservations into a live budget.
  rt::MemoryBudget budget(/*capacity_bytes=*/int64_t{256} << 20);
  ResilienceOptions opt = defense_.to_options(&injector);
  opt.memory = &budget;

  std::vector<double> T, I;
  double total = 0, elapsed = 0;
  try {
    AnySolver s(sched.solver, scen_, phys_, sched.nparts);
    s.enable_resilience(opt);
    s.run(sched.nsteps);
    T = s.temperature();
    I = s.intensity();
    total = s.phase_total();
    elapsed = s.virtual_elapsed();
    out.stats = s.resilience_stats();
    out.survived = true;
  } catch (const std::exception& e) {
    out.detail = e.what();
  }

  out.injected = injector.stats().total_injected();
  if (out.survived) {
    out.virtual_seconds = elapsed;
    out.recovery_virtual_seconds =
        out.stats.recovery_seconds + out.stats.redistribution_seconds;
    out.finite = all_finite_vec(T) && all_finite_vec(I);
    const Reference& ref = reference(sched.solver, sched.nparts, sched.nsteps);
    out.bit_exact = bitwise_equal(T, ref.T) && bitwise_equal(I, ref.I);
    out.phases_conserved = phase_ledger_ok(total, elapsed);
    out.injection_accounted =
        out.injected == static_cast<int64_t>(injector.events().size());
    if (out.detail.empty() && !out.ok()) {
      std::ostringstream os;
      os << "oracle violation:";
      if (!out.finite) os << " non-finite fields;";
      if (!out.bit_exact) os << " diverged from fault-free reference;";
      if (!out.phases_conserved)
        os << " phase ledger " << total << " != clock " << elapsed << ";";
      if (!out.injection_accounted) os << " injection log mismatch;";
      out.detail = os.str();
    }
  }

  auto& mx = rt::MetricsRegistry::global();
  mx.counter("chaos.schedules").add(1);
  mx.counter(out.ok() ? "chaos.survived" : "chaos.failures").add(1);
  mx.counter("chaos.faults_injected").add(static_cast<double>(out.injected));
  mx.histogram("chaos.recovery_seconds").observe(out.recovery_virtual_seconds);
  const int64_t recoveries = out.stats.rollbacks + out.stats.evictions;
  if (recoveries > 0)
    mx.histogram("chaos.mttr").observe(out.recovery_virtual_seconds /
                                       static_cast<double>(recoveries));
  total_rollbacks_ += out.stats.rollbacks;
  total_repairs_ += out.stats.block_repairs;
  if (total_rollbacks_ > 0)
    mx.gauge("chaos.repair_rollback_ratio")
        .set(static_cast<double>(total_repairs_) / static_cast<double>(total_rollbacks_));
  return out;
}

std::vector<ChaosOutcome> ChaosCampaign::run_campaign(const rt::ChaosEngine& engine,
                                                      const std::string& solver,
                                                      const rt::ChaosSpec& spec,
                                                      int64_t nschedules) {
  std::vector<ChaosOutcome> outcomes;
  outcomes.reserve(static_cast<size_t>(nschedules));
  int64_t ok = 0;
  for (int64_t i = 0; i < nschedules; ++i) {
    outcomes.push_back(run_schedule(engine.generate(solver, spec, i)));
    ok += outcomes.back().ok() ? 1 : 0;
  }
  if (nschedules > 0)
    rt::MetricsRegistry::global()
        .gauge("chaos.survival_rate")
        .set(static_cast<double>(ok) / static_cast<double>(nschedules));
  return outcomes;
}

rt::ChaosSchedule ChaosCampaign::shrink(const rt::ChaosSchedule& failing) {
  rt::TraceSpan span("chaos.shrink", {.step = failing.index});
  auto& mx = rt::MetricsRegistry::global();
  const auto fails = [&](const rt::ChaosSchedule& s) {
    mx.counter("chaos.shrink_runs").add(1);
    return !run_schedule(s).ok();
  };
  if (!fails(failing)) return failing;
  rt::ChaosSchedule cur = failing;

  // ddmin over the fault list: drop chunks while the failure persists.
  size_t granularity = 2;
  while (cur.faults.size() >= 2) {
    const size_t chunk = std::max<size_t>(1, cur.faults.size() / granularity);
    bool reduced = false;
    for (size_t start = 0; start < cur.faults.size(); start += chunk) {
      rt::ChaosSchedule cand = cur;
      const auto first = cand.faults.begin() + static_cast<std::ptrdiff_t>(start);
      const auto last = cand.faults.begin() + static_cast<std::ptrdiff_t>(std::min(
                                                  start + chunk, cand.faults.size()));
      cand.faults.erase(first, last);
      if (!cand.faults.empty() && fails(cand)) {
        cur = std::move(cand);
        granularity = std::max<size_t>(2, granularity - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (chunk == 1) break;
      granularity = std::min(cur.faults.size(), granularity * 2);
    }
  }

  // Per-fault minimization: single fire, then earliest placement.
  for (size_t i = 0; i < cur.faults.size(); ++i) {
    if (cur.faults[i].count > 1) {
      rt::ChaosSchedule cand = cur;
      cand.faults[i].count = 1;
      if (fails(cand)) cur = std::move(cand);
    }
    if (cur.faults[i].first_event > 0) {
      rt::ChaosSchedule cand = cur;
      cand.faults[i].first_event = 0;
      if (fails(cand)) cur = std::move(cand);
    }
  }
  mx.counter("chaos.shrinks").add(1);
  return cur;
}

}  // namespace finch::bte
