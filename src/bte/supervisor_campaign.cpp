#include "supervisor_campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <stdexcept>

#include "runtime/chaos.hpp"
#include "runtime/hash.hpp"

namespace finch::bte {

namespace {

double unit(uint64_t seed, uint64_t i, uint64_t salt) {
  const uint64_t h = rt::splitmix64(seed ^ rt::splitmix64(i * 1315423911ull + salt));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool all_finite(const std::vector<double>& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

bool ledger_ok(double phase_total, double virtual_s) {
  const double scale = std::max({std::fabs(phase_total), std::fabs(virtual_s), 1e-12});
  return std::fabs(phase_total - virtual_s) <= 1e-9 * scale;
}

std::string config_key(const svc::JobConfig& cfg, int nsteps) {
  return cfg.solver + "/" + std::to_string(cfg.nparts) + "/" + std::to_string(cfg.nx) + "x" +
         std::to_string(cfg.ny) + "/" + std::to_string(cfg.ndirs) + "/" +
         std::to_string(cfg.nbands) + "/" + std::to_string(nsteps);
}

}  // namespace

int64_t SupervisorCampaign::probe_halo_consults(int nsteps) {
  auto it = probe_cache_.find(nsteps);
  if (it != probe_cache_.end()) return it->second;
  // Fault-free run of the canonical flaky configuration with an injector
  // attached: every should_fault() consultation is counted even when nothing
  // is armed, which yields the exact (TransferCorruption, halo) consultation
  // budget to place engineered fires on.
  BteScenario scen = base_;
  scen.nx = 16;
  scen.ny = 12;
  scen.ndirs = 8;
  scen.nbands = 8;
  scen.nsteps = nsteps;
  rt::FaultInjector injector(1);
  ChaosDefense defense;
  AnySolver solver("cell", scen, physics_.get(8, 8), 4);
  solver.enable_resilience(defense.to_options(&injector));
  solver.run(nsteps);
  int64_t consults = 0;
  for (const rt::FaultCounter& c : injector.export_counters()) {
    if (c.kind == static_cast<int>(rt::FaultKind::TransferCorruption) && c.site == "halo")
      consults = c.consulted;
  }
  if (consults <= 0)
    throw std::runtime_error("probe_halo_consults: no halo consultations recorded");
  probe_cache_[nsteps] = consults;
  return consults;
}

std::vector<svc::JobSpec> SupervisorCampaign::mixed_stream(uint64_t seed,
                                                           const StreamShape& shape) {
  std::vector<svc::JobSpec> jobs;
  jobs.reserve(static_cast<size_t>(shape.njobs));
  rt::ChaosEngine engine(seed ^ 0xc4a05c4a05ull);
  for (int i = 0; i < shape.njobs; ++i) {
    svc::JobSpec s;
    s.id = "job-" + std::to_string(i);
    const uint64_t h = rt::splitmix64(seed + 0x10001ull * static_cast<uint64_t>(i) + 1);
    s.seed = h | 1;
    s.solver = shape.solvers[h % shape.solvers.size()];
    s.nparts = s.solver == "mgpu" ? 2 + static_cast<int>((h >> 8) % 3)
                                  : 3 + static_cast<int>((h >> 8) % 2);
    const int span = std::max(1, shape.max_steps - shape.min_steps + 1);
    s.nsteps = shape.min_steps + static_cast<int>((h >> 16) % static_cast<uint64_t>(span));

    const double u = unit(seed, static_cast<uint64_t>(i), 7);
    double edge = shape.poison_fraction;
    if (u < edge) {
      // Poison: a scheduled corruption storm with no rollback budget — every
      // attempt dies immediately, deterministically, under any seed.
      s.solver = "cell";
      s.nparts = 4;
      s.max_rollbacks = 0;
      rt::ChaosFault f;
      f.kind = rt::FaultKind::TransferCorruption;
      f.site = "halo";
      f.first_event = 0;
      f.stride = 1;
      f.count = 5000;
      s.faults.push_back(f);
      jobs.push_back(std::move(s));
      continue;
    }
    edge += shape.flaky_fraction;
    if (u < edge) {
      // Flaky: two scheduled corruptions in well-separated steps with a
      // rollback budget of one per attempt and a checkpoint every step.
      // Attempt 0 absorbs the first fire, dies on the second; the retry
      // resumes from the durable generation just before the second fire with
      // a fresh budget, absorbs it on replay, completes.
      s.solver = "cell";
      s.nparts = 4;
      s.nsteps = std::max(6, s.nsteps);
      s.max_rollbacks = 1;
      s.ckpt_interval = 1;
      const int64_t consults = probe_halo_consults(s.nsteps);
      const int64_t per_step = consults / s.nsteps;
      const int s1 = s.nsteps / 3, s2 = (2 * s.nsteps) / 3;
      for (int step : {s1, s2}) {
        rt::ChaosFault f;
        f.kind = rt::FaultKind::TransferCorruption;
        f.site = "halo";
        f.first_event = step * per_step + per_step / 2;
        f.stride = 1;
        f.count = 1;
        s.faults.push_back(f);
      }
      jobs.push_back(std::move(s));
      continue;
    }
    edge += shape.deadline_fraction;
    if (u < edge) {
      s.deadline_steps = std::max(1, s.nsteps / 2);
      jobs.push_back(std::move(s));
      continue;
    }
    edge += shape.chaos_fraction;
    if (u < edge) {
      // Survivable-by-design composed schedule: recovery happens inside one
      // attempt (rollbacks, repairs, evictions), not via supervisor retries.
      rt::ChaosSpec cs;
      cs.nparts = s.nparts;
      cs.nsteps = s.nsteps;
      cs.allow_permanent = s.nparts >= 3;
      s.faults = engine.generate(s.solver, cs, i).faults;
      jobs.push_back(std::move(s));
      continue;
    }
    edge += shape.oversized_fraction;
    if (u < edge) {
      // Oversized: cannot fit a realistic budget at the top rung. Half of
      // them declare a fallback ladder (degrade), half do not (shed). Only
      // meaningful when the supervisor has a MemoryBudget — without one the
      // full-size job would actually run.
      s.nx = 320;
      s.ny = 320;
      if (unit(seed, static_cast<uint64_t>(i), 11) < 0.5) {
        svc::JobConfig f;
        f.nx = 16;
        f.ny = 12;
        s.fallbacks.push_back(f);
      }
      jobs.push_back(std::move(s));
      continue;
    }
    jobs.push_back(std::move(s));
  }
  return jobs;
}

const SupervisorCampaign::Reference& SupervisorCampaign::reference(const svc::JobConfig& cfg,
                                                                   int nsteps) {
  const std::string key = config_key(cfg, nsteps);
  auto it = refs_.find(key);
  if (it != refs_.end()) return it->second;
  BteScenario scen = base_;
  scen.nx = cfg.nx;
  scen.ny = cfg.ny;
  scen.ndirs = cfg.ndirs;
  scen.nbands = cfg.nbands;
  scen.nsteps = nsteps;
  ChaosDefense defense;
  AnySolver solver(cfg.solver, scen, physics_.get(cfg.nbands, cfg.ndirs), cfg.nparts);
  solver.enable_resilience(defense.to_options(nullptr));
  solver.run(nsteps);
  Reference ref;
  ref.T = solver.temperature();
  ref.I = solver.intensity();
  return refs_.emplace(key, std::move(ref)).first->second;
}

SupervisorReport SupervisorCampaign::run_stream(svc::Scheduler& scheduler,
                                                const std::vector<svc::JobSpec>& jobs) {
  std::vector<svc::Arrival> arrivals;
  for (const svc::JobSpec& spec : jobs) arrivals.push_back(svc::Arrival{0.0, spec, false});
  std::vector<svc::JobOutcome> outcomes;
  std::string refused;
  try {
    outcomes = scheduler.run(std::move(arrivals)).outcomes;
  } catch (const std::exception& e) {
    refused = std::string("stream refused: ") + e.what();
  }
  SupervisorReport report = judge(jobs, outcomes, scheduler.options().supervisor);
  if (!refused.empty()) report.violations.insert(report.violations.begin(), refused);
  return report;
}

std::vector<svc::Arrival> SupervisorCampaign::overload_stream(uint64_t seed,
                                                              const OverloadShape& shape,
                                                              double cost_per_unit_s,
                                                              int max_concurrency) {
  std::vector<svc::Arrival> arrivals;
  arrivals.reserve(static_cast<size_t>(shape.njobs));
  const int ntenants = std::max(1, shape.ntenants);
  const int nprios = std::max(1, shape.npriorities);
  double sum_units = 0.0;
  for (int i = 0; i < shape.njobs; ++i) {
    svc::JobSpec s;
    s.id = "ov-" + std::to_string(i);
    const uint64_t h = rt::splitmix64(seed + 0x20003ull * static_cast<uint64_t>(i) + 1);
    s.seed = h | 1;
    // Round-robin tenants so offered load is balanced by construction;
    // priorities hash independently of the tenant, so shedding pressure
    // cannot systematically starve one queue.
    s.tenant = "tenant-" + std::to_string(i % ntenants);
    s.priority = static_cast<int>((h >> 24) % static_cast<uint64_t>(nprios));
    s.solver = (h % 2) != 0 ? "band" : "cell";
    s.nparts = 3 + static_cast<int>((h >> 8) % 2);
    const int span = std::max(1, shape.max_steps - shape.min_steps + 1);
    s.nsteps = shape.min_steps + static_cast<int>((h >> 16) % static_cast<uint64_t>(span));

    const double u = unit(seed, static_cast<uint64_t>(i), 23);
    if (u < shape.flaky_fraction) {
      // Same engineered fail-once-resume-once job as the mixed stream, so
      // retries (and the storm damper) interleave with overload decisions.
      s.solver = "cell";
      s.nparts = 4;
      s.nsteps = std::max(6, s.nsteps);
      s.max_rollbacks = 1;
      s.ckpt_interval = 1;
      const int64_t consults = probe_halo_consults(s.nsteps);
      const int64_t per_step = consults / s.nsteps;
      for (int step : {s.nsteps / 3, (2 * s.nsteps) / 3}) {
        rt::ChaosFault f;
        f.kind = rt::FaultKind::TransferCorruption;
        f.site = "halo";
        f.first_event = step * per_step + per_step / 2;
        f.stride = 1;
        f.count = 1;
        s.faults.push_back(f);
      }
    } else if (u < shape.flaky_fraction + shape.deadline_fraction) {
      s.deadline_steps = std::max<int64_t>(1, s.nsteps / 2);
    }
    sum_units += static_cast<double>(s.nsteps) * s.nx * s.ny * s.ndirs * s.nbands;
    arrivals.push_back(svc::Arrival{0.0, std::move(s), /*adopted=*/false});
  }
  // Open-loop Poisson process on the virtual clock: arrival rate =
  // load_factor x the service rate of max_concurrency slots.
  const double mean_service_s =
      (sum_units / std::max(1, shape.njobs)) * cost_per_unit_s;
  const double rate = shape.load_factor * max_concurrency / mean_service_s;
  double t = 0.0;
  for (int i = 0; i < shape.njobs; ++i) {
    const double u = std::min(unit(seed, static_cast<uint64_t>(i), 31), 1.0 - 1e-12);
    t += -std::log(1.0 - u) / rate;
    arrivals[static_cast<size_t>(i)].vtime = t;
  }
  return arrivals;
}

OverloadReport SupervisorCampaign::judge_overload(const std::vector<svc::Arrival>& arrivals,
                                                  const svc::ScheduleResult& result,
                                                  const svc::SchedulerOptions& options,
                                                  double fairness_bound) {
  OverloadReport rep;
  rep.arrivals = static_cast<int>(arrivals.size());
  auto violate = [&rep](const std::string& what) { rep.violations.push_back(what); };

  // Every arrival is either rejected (backpressure, never entered) or
  // admitted with exactly one terminal outcome — a strict partition.
  std::set<std::string> rejected_ids;
  for (const svc::RejectAudit& r : result.stats.rejects) {
    if (!rejected_ids.insert(r.id).second) violate("'" + r.id + "' rejected twice");
    if (!(r.retry_after_s > 0.0))
      violate("'" + r.id + "' rejected without a positive retry_after");
  }
  std::set<std::string> outcome_ids;
  for (const svc::JobOutcome& o : result.outcomes)
    if (!outcome_ids.insert(o.spec.id).second)
      violate("'" + o.spec.id + "' has two terminal outcomes");
  std::vector<svc::JobSpec> admitted;
  for (const svc::Arrival& a : arrivals) {
    const bool rej = rejected_ids.count(a.spec.id) > 0;
    const bool out = outcome_ids.count(a.spec.id) > 0;
    if (rej == out)
      violate("'" + a.spec.id + "': " +
              (rej ? "both rejected and terminal" : "neither rejected nor terminal"));
    if (!rej) admitted.push_back(a.spec);
  }
  rep.admitted = static_cast<int>(admitted.size());
  rep.rejected = static_cast<int>(rejected_ids.size());
  rep.shed_overload = static_cast<int>(result.stats.shed_audits.size());

  // Base oracle (terminality, bit-exactness, accounting, resume, quarantine,
  // shed) over everything that entered the system.
  rep.base = judge(admitted, result.outcomes, options.supervisor);

  // Shedding is strictly lowest-priority-first: each audited eviction was at
  // the minimum priority present (queue + the arrival that displaced it).
  for (const svc::ShedAudit& s : result.stats.shed_audits)
    if (s.priority != s.min_queued_priority)
      violate("shed '" + s.id + "' at priority " + std::to_string(s.priority) +
              " while priority " + std::to_string(s.min_queued_priority) + " was queued");

  if (result.stats.watchdog_violations != 0)
    violate(std::to_string(result.stats.watchdog_violations) +
            " queued job(s) aged past the starvation bound");

  // Attempt-count conservation across threads: every dispatch produced
  // exactly one attempt record in exactly one outcome.
  int attempts = 0;
  for (const svc::JobOutcome& o : result.outcomes)
    attempts += static_cast<int>(o.attempts.size());
  if (attempts != result.stats.dispatched)
    violate("dispatched " + std::to_string(result.stats.dispatched) + " attempts but " +
            std::to_string(attempts) + " attempt records landed in outcomes");

  // Per-tenant ledger conservation, then the fairness bound: a tenant with
  // enough offered work to fill its weight-proportional share of the total
  // goodput must have received at least `fairness_bound` of that share.
  double total_goodput = 0.0, wsum = 0.0;
  for (const auto& [name, led] : result.stats.tenants) {
    total_goodput += led.completed_units;
    wsum += led.weight;
  }
  for (const auto& [name, led] : result.stats.tenants) {
    if (led.admitted + led.rejected != led.submitted)
      violate("tenant " + name + ": admitted " + std::to_string(led.admitted) +
              " + rejected " + std::to_string(led.rejected) + " != submitted " +
              std::to_string(led.submitted));
    const int terminal = led.completed + led.cancelled + led.quarantined + led.shed;
    if (terminal != led.admitted)
      violate("tenant " + name + ": " + std::to_string(terminal) +
              " terminal jobs != " + std::to_string(led.admitted) + " admitted");
    const double fair = wsum > 0.0 ? total_goodput * led.weight / wsum : 0.0;
    if (fair > 0.0 && led.offered_units >= fair) {
      rep.min_fair_share_ratio =
          std::min(rep.min_fair_share_ratio, led.completed_units / fair);
    }
  }
  if (rep.min_fair_share_ratio < fairness_bound)
    violate("fair-share goodput ratio " + std::to_string(rep.min_fair_share_ratio) +
            " below bound " + std::to_string(fairness_bound));
  return rep;
}

SupervisorReport SupervisorCampaign::judge(const std::vector<svc::JobSpec>& jobs,
                                           const std::vector<svc::JobOutcome>& outcomes,
                                           const svc::SupervisorOptions& options) {
  SupervisorReport report;
  report.total = static_cast<int>(jobs.size());
  report.outcomes = outcomes;
  std::map<std::string, const svc::JobOutcome*> by_id;
  for (const svc::JobOutcome& o : outcomes) by_id[o.spec.id] = &o;

  auto violate = [&report](const std::string& id, const std::string& what) {
    report.violations.push_back(id + ": " + what);
  };

  for (const svc::JobSpec& spec : jobs) {
    auto it = by_id.find(spec.id);
    if (it == by_id.end()) {
      ++report.nonterminal;
      violate(spec.id, "no outcome (job lost)");
      continue;
    }
    const svc::JobOutcome& o = *it->second;
    if (!spec.faults.empty()) ++report.faulted_jobs;
    if (o.degraded_rung >= 0) ++report.degraded;
    if (o.adopted) ++report.adopted;
    if (o.attempts.size() > 1) ++report.retried_jobs;

    // Per-attempt conservation laws, independent of the terminal state.
    for (size_t k = 0; k < o.attempts.size(); ++k) {
      const svc::AttemptRecord& a = o.attempts[k];
      if (a.injected != a.events_logged)
        violate(spec.id, "attempt " + std::to_string(k) + ": injected " +
                             std::to_string(a.injected) + " != events logged " +
                             std::to_string(a.events_logged));
      if (!ledger_ok(a.phase_total_s, a.virtual_s))
        violate(spec.id, "attempt " + std::to_string(k) + ": phase ledger does not conserve");
      for (size_t j = 0; j < k; ++j)
        if (o.attempts[j].injector_seed == a.injector_seed)
          violate(spec.id, "attempts " + std::to_string(j) + " and " + std::to_string(k) +
                               " reused one injector seed");
      if (k > 0 && !options.durable_root.empty()) {
        // Step 0 is never committed, so a retry has something to resume
        // from exactly when an earlier attempt left a generation on disk.
        bool on_disk = false;
        for (size_t j = 0; j < k; ++j)
          on_disk = on_disk || o.attempts[j].resumed || o.attempts[j].generations > 0;
        if (on_disk) ++report.resumable_retries;
        if (a.resumed) {
          ++report.resumed_retries;
        } else if (on_disk) {
          ++report.step0_replays;
          violate(spec.id, "attempt " + std::to_string(k) +
                               " replayed from step 0 past a durable checkpoint");
        }
      }
    }

    switch (o.state) {
      case svc::TerminalState::Pending:
        ++report.nonterminal;
        violate(spec.id, "left non-terminal");
        break;
      case svc::TerminalState::Completed: {
        ++report.completed;
        if (o.final_step < spec.nsteps)
          violate(spec.id, "completed at step " + std::to_string(o.final_step) + " of " +
                               std::to_string(spec.nsteps));
        if (!all_finite(o.temperature) || !all_finite(o.intensity))
          violate(spec.id, "completed with non-finite fields");
        const Reference& ref = reference(o.ran, spec.nsteps);
        if (!bits_equal(o.temperature, ref.T) || !bits_equal(o.intensity, ref.I))
          violate(spec.id, "completed fields are not bit-exact vs fault-free reference");
        break;
      }
      case svc::TerminalState::Cancelled:
        ++report.cancelled;
        if (o.detail.empty()) violate(spec.id, "cancelled without a reason");
        if (spec.deadline_steps > 0 && o.final_step >= spec.nsteps)
          violate(spec.id, "deadline job ran to completion instead of draining");
        break;
      case svc::TerminalState::Quarantined: {
        ++report.quarantined;
        if (o.attempts.empty()) violate(spec.id, "quarantined without any attempt");
        try {
          const rt::ChaosSchedule repro = rt::schedule_from_json(o.repro_json);
          (void)repro;
        } catch (const std::exception& e) {
          violate(spec.id, std::string("quarantine repro does not parse: ") + e.what());
        }
        break;
      }
      case svc::TerminalState::Shed:
        ++report.shed;
        if (!o.attempts.empty()) violate(spec.id, "shed job ran an attempt");
        break;
    }
  }
  return report;
}

}  // namespace finch::bte
