#include "scheduler.hpp"

#include <algorithm>
#include <deque>
#include <dirent.h>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <sys/stat.h>
#include <utility>

#include "job_file.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/trace.hpp"

namespace finch::svc {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr size_t kNone = static_cast<size_t>(-1);

bool known_solver(const std::string& s) { return s == "cell" || s == "band" || s == "mgpu"; }

void mkdir_p(const std::string& path) {
  std::string cur;
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!cur.empty()) ::mkdir(cur.c_str(), 0755);  // EEXIST is fine
      if (i < path.size()) cur.push_back('/');
      continue;
    }
    cur.push_back(path[i]);
  }
}

// Throws std::invalid_argument unless `spec` is well-formed (non-empty id,
// known solver names, positive nsteps).
void validate_spec(const JobSpec& spec) {
  if (spec.id.empty()) throw std::invalid_argument("job id must not be empty");
  if (spec.nsteps <= 0) throw std::invalid_argument("job '" + spec.id + "' has nsteps <= 0");
  if (!known_solver(spec.solver))
    throw std::invalid_argument("job '" + spec.id + "' names unknown solver '" + spec.solver +
                                "'");
  for (const JobConfig& f : spec.fallbacks) {
    if (!f.solver.empty() && !known_solver(f.solver))
      throw std::invalid_argument("job '" + spec.id + "' fallback names unknown solver '" +
                                  f.solver + "'");
  }
}

// Deterministic (sorted) scan of `durable_root` for job directories with a
// spec but no terminal record; ids in `skip` are ignored.
std::vector<JobSpec> scan_orphans(const std::string& durable_root,
                                  const std::set<std::string>& skip) {
  std::vector<JobSpec> orphans;
  if (durable_root.empty()) return orphans;
  DIR* d = ::opendir(durable_root.c_str());
  if (d == nullptr) return orphans;
  std::vector<std::string> names;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());  // deterministic adoption order
  for (const std::string& name : names) {
    if (skip.count(name)) continue;
    const std::string dir = durable_root + "/" + name;
    if (!file_exists(dir + "/job.json") || file_exists(dir + "/terminal.json")) continue;
    JobSpec spec;
    try {
      spec = job_from_json(read_text_file(dir + "/job.json"));
    } catch (const std::exception&) {
      continue;  // damaged spec: leave for inspection, do not adopt
    }
    if (spec.id != name) continue;
    orphans.push_back(std::move(spec));
  }
  return orphans;
}

}  // namespace

// ---- AttemptEngine ---------------------------------------------------------

AttemptEngine::AttemptEngine(const bte::BteScenario& base, const SupervisorOptions* options)
    : base_(base), options_(options) {}

uint64_t AttemptEngine::attempt_seed(uint64_t base, int attempt) {
  constexpr uint64_t kSeedMix = 0x9e3779b97f4a7c15ull;
  return attempt == 0 ? base : base ^ (kSeedMix * static_cast<uint64_t>(attempt + 1));
}

AttemptEngine::Resolved AttemptEngine::resolve(const JobSpec& spec, int rung) {
  JobConfig cfg;
  cfg.solver = spec.solver;
  cfg.nparts = spec.nparts;
  cfg.nx = spec.nx;
  cfg.ny = spec.ny;
  cfg.ndirs = spec.ndirs;
  cfg.nbands = spec.nbands;
  if (rung >= 0) {
    const JobConfig& f = spec.fallbacks[static_cast<size_t>(rung)];
    if (!f.solver.empty()) cfg.solver = f.solver;
    if (f.nparts > 0) cfg.nparts = f.nparts;
    if (f.nx > 0) cfg.nx = f.nx;
    if (f.ny > 0) cfg.ny = f.ny;
    if (f.ndirs > 0) cfg.ndirs = f.ndirs;
    if (f.nbands > 0) cfg.nbands = f.nbands;
  }
  Resolved rj;
  rj.spec = spec;
  rj.cfg = cfg;
  rj.scenario = base_;
  rj.scenario.nx = cfg.nx;
  rj.scenario.ny = cfg.ny;
  rj.scenario.ndirs = cfg.ndirs;
  rj.scenario.nbands = cfg.nbands;
  rj.scenario.nsteps = spec.nsteps;
  rj.physics = physics_.get(cfg.nbands, cfg.ndirs);
  return rj;
}

AttemptEngine::Result AttemptEngine::run_attempt(const Resolved& rj, int attempt_index,
                                                 uint64_t seed, const std::string& dir,
                                                 const std::vector<rt::ChaosFault>& faults,
                                                 rt::MemoryBudget* memory) const {
  Result r;
  r.rec.index = attempt_index;
  r.rec.injector_seed = seed;

  rt::FaultInjector injector(seed);
  rt::ChaosSchedule sched;
  sched.seed = rj.spec.seed;
  sched.index = attempt_index;
  sched.solver = rj.cfg.solver;
  sched.nparts = rj.cfg.nparts;
  sched.nsteps = rj.spec.nsteps;
  sched.faults = faults;
  rt::ChaosEngine::arm(injector, sched);

  bte::ResilienceOptions ropt = options_->defense.to_options(&injector);
  if (rj.spec.max_rollbacks >= 0) ropt.max_rollbacks = rj.spec.max_rollbacks;
  if (rj.spec.ckpt_interval >= 0) ropt.checkpoint.interval = rj.spec.ckpt_interval;
  rt::CancelToken token;
  if (rj.spec.deadline_steps > 0) token.set_step_deadline(rj.spec.deadline_steps);
  ropt.cancel = &token;
  ropt.memory = memory;
  if (!dir.empty()) ropt.durable.dir = dir;

  auto make = [&] {
    return std::make_unique<bte::AnySolver>(rj.cfg.solver, rj.scenario, rj.physics,
                                            rj.cfg.nparts);
  };
  std::unique_ptr<bte::AnySolver> solver;
  try {
    solver = make();
    bool resumed = false;
    if (!dir.empty()) {
      try {
        if (const std::optional<rt::Generation> gen = rt::find_latest_generation(dir)) {
          solver->resume_from(*gen, ropt);
          resumed = true;
        }
      } catch (const std::exception&) {
        solver = make();  // unreadable generations / mismatched rung: start fresh
      }
    }
    if (!resumed) solver->enable_resilience(ropt);
    r.rec.resumed = resumed;
    r.rec.start_step = solver->step_index();
    const int remaining = rj.spec.nsteps - static_cast<int>(solver->step_index());
    if (remaining > 0) solver->run(remaining);
  } catch (const std::exception& e) {
    r.rec.error = e.what();
  }
  if (solver) {
    r.rec.end_step = solver->step_index();
    r.rec.virtual_s = solver->virtual_elapsed();
    r.rec.phase_total_s = solver->phase_total();
    r.stats = solver->resilience_stats();
    r.rec.generations = r.stats.generations_committed;
  }
  r.rec.injected = injector.stats().total_injected();
  r.rec.events_logged = static_cast<int64_t>(injector.events().size());
  if (r.rec.error.empty() && solver) {
    if (r.rec.end_step >= rj.spec.nsteps) {
      r.completed = true;
      r.T = solver->temperature();
      r.I = solver->intensity();
    } else if (r.stats.cancel_drains > 0) {
      r.drained = true;
      r.drain_reason = token.drain_reason(r.rec.end_step, r.rec.virtual_s);
      if (r.drain_reason.empty()) r.drain_reason = "drained";
    } else {
      r.rec.error = "run stopped before step " + std::to_string(rj.spec.nsteps) +
                    " without a drain";
    }
  }
  // The solver's relief lambdas capture it; drop them while it is still
  // alive so a later reservation on a shared budget cannot fire a dangling
  // relief (the next attempt's solver re-registers its own chain).
  if (memory != nullptr) memory->clear_reliefs();
  return r;
}

AttemptEngine::Decision AttemptEngine::decide(const Result& r, int attempt_index,
                                              int failures) const {
  Decision d;
  if (r.completed) {
    d.next = Next::Complete;
    d.detail = attempt_index == 0
                   ? "completed"
                   : "completed after " + std::to_string(attempt_index) + " retries";
    return d;
  }
  if (r.drained) {
    d.next = Next::Drain;
    d.detail = r.drain_reason;
    return d;
  }
  const bool breaker = failures >= options_->quarantine.threshold;
  const bool budget_spent = attempt_index >= options_->retry.max_retries;
  if (breaker || budget_spent) {
    d.next = Next::Quarantine;
    std::string why = breaker ? "circuit breaker: " + std::to_string(failures) +
                                    " consecutive failures across distinct seeds"
                              : "retry budget exhausted after " + std::to_string(failures) +
                                    " failures";
    d.detail = why + "; last error: " + r.rec.error;
    return d;
  }
  d.next = Next::Retry;
  return d;
}

std::vector<rt::ChaosFault> AttemptEngine::minimize_repro(const Resolved& rj) {
  std::vector<rt::ChaosFault> cur = rj.spec.faults;
  if (cur.size() < 2 || !options_->quarantine.minimize_repro) return cur;
  int budget = options_->quarantine.max_shrink_runs;
  auto& mx = rt::MetricsRegistry::global();
  auto fails = [&](const std::vector<rt::ChaosFault>& cand) {
    if (budget <= 0) return false;
    --budget;
    mx.counter("svc.shrink_runs").add(1.0);
    // Repro predicate: a fresh, non-durable, attempt-0 replay still fails.
    return !run_attempt(rj, 0, rj.spec.seed, "", cand, nullptr).rec.error.empty();
  };
  // ddmin over the fault list (complement reduction), same shape as the
  // chaos-campaign shrinker.
  size_t n = 2;
  while (cur.size() >= 2 && budget > 0) {
    const size_t chunk = (cur.size() + n - 1) / n;
    bool reduced = false;
    for (size_t start = 0; start < cur.size() && !reduced; start += chunk) {
      std::vector<rt::ChaosFault> cand;
      for (size_t i = 0; i < cur.size(); ++i)
        if (i < start || i >= start + chunk) cand.push_back(cur[i]);
      if (!cand.empty() && cand.size() < cur.size() && fails(cand)) {
        cur = std::move(cand);
        n = std::max<size_t>(2, n - 1);
        reduced = true;
      }
    }
    if (!reduced) {
      if (n >= cur.size()) break;
      n = std::min(cur.size(), n * 2);
    }
  }
  return cur;
}

void validate_scheduler_options(const SchedulerOptions& o) {
  validate_supervisor_options(o.supervisor);
  if (o.max_concurrency < 1)
    throw std::invalid_argument("SchedulerOptions: max_concurrency must be >= 1");
  if (o.queue_capacity < 0)
    throw std::invalid_argument("SchedulerOptions: queue_capacity must be >= 0");
  if (o.cost_per_unit_s <= 0.0)
    throw std::invalid_argument("SchedulerOptions: cost_per_unit_s must be > 0");
  if (o.drr_quantum_units < 0.0)
    throw std::invalid_argument("SchedulerOptions: drr_quantum_units must be >= 0");
  if (!(o.brownout_start > 0.0) || o.brownout_start > o.blackout_start ||
      o.blackout_start > 1.0)
    throw std::invalid_argument(
        "SchedulerOptions: need 0 < brownout_start <= blackout_start <= 1");
  if (o.max_queue_age_s < 0.0)
    throw std::invalid_argument("SchedulerOptions: max_queue_age_s must be >= 0");
  if (!(o.watchdog_boost_frac > 0.0) || o.watchdog_boost_frac > 1.0)
    throw std::invalid_argument("SchedulerOptions: watchdog_boost_frac must be in (0, 1]");
  if (o.storm_window_s < 0.0)
    throw std::invalid_argument("SchedulerOptions: storm_window_s must be >= 0");
  if (o.storm_threshold < 1)
    throw std::invalid_argument("SchedulerOptions: storm_threshold must be >= 1");
  if (o.storm_factor < 1.0)
    throw std::invalid_argument("SchedulerOptions: storm_factor must be >= 1");
  std::set<std::string> names;
  for (const TenantSpec& t : o.tenants) {
    if (t.name.empty())
      throw std::invalid_argument("SchedulerOptions: tenant name must not be empty");
    if (!(t.weight > 0.0))
      throw std::invalid_argument("SchedulerOptions: tenant weight must be > 0");
    if (!names.insert(t.name).second)
      throw std::invalid_argument("SchedulerOptions: duplicate tenant '" + t.name + "'");
  }
}

double predict_cost_units(const JobConfig& cfg, int nsteps) {
  return static_cast<double>(nsteps) * cfg.nx * cfg.ny * cfg.ndirs * cfg.nbands;
}

// ---- internal state --------------------------------------------------------

struct Scheduler::Job {
  JobSpec spec;
  std::string dir;
  double arrival_v = 0.0;
  double enqueue_v = 0.0;
  double cost_units = 0.0;  // predicted; refined to the chosen rung at dispatch
  bool wd_flagged = false;  // already counted as a starvation violation
  int rung = -2;            // chosen once at first dispatch; retries reuse it
  AttemptEngine::Resolved rj;
  int64_t reserved = 0;  // admission bytes held on the tenant partition
  int attempt_next = 0;
  int failures = 0;
  double pending_backoff = 0.0;
  JobOutcome out;
};

struct Scheduler::Tenant {
  std::string name;
  double weight = 1.0;
  double deficit = 0.0;
  std::deque<size_t> q;  // FIFO of job indices
  std::unique_ptr<rt::MemoryBudget> partition;
};

struct Scheduler::Slot {
  size_t ji = 0;
  int attempt_index = 0;
  uint64_t seed = 0;
  double end_v = 0.0;  // predicted completion on the virtual clock
  uint64_t seq = 0;
  bool executed = false;
  // Per-attempt budget view of the tenant partition: relief lambdas the
  // attempt's solver registers stay private to its worker thread.
  std::unique_ptr<rt::MemoryBudget> view;
  AttemptEngine::Result result;
};

struct Scheduler::RetryEvent {
  double due = 0.0;
  uint64_t seq = 0;
  size_t ji = 0;
  // std::*_heap is a max-heap; invert for earliest-(due, seq)-first.
  bool operator<(const RetryEvent& o) const {
    if (due != o.due) return due > o.due;
    return seq > o.seq;
  }
};

// ---- construction ----------------------------------------------------------

Scheduler::Scheduler(const bte::BteScenario& base, SchedulerOptions options)
    : options_(std::move(options)), engine_(base, &options_.supervisor) {
  validate_scheduler_options(options_);
  if (!options_.supervisor.durable_root.empty()) mkdir_p(options_.supervisor.durable_root);
}

Scheduler::~Scheduler() = default;

std::string Scheduler::job_dir(const std::string& id) const {
  const std::string& root = options_.supervisor.durable_root;
  return root.empty() ? std::string() : root + "/" + id;
}

Scheduler::Tenant& Scheduler::tenant_of(const std::string& name) {
  auto it = tenants_.find(name);
  if (it != tenants_.end()) return *it->second;
  auto t = std::make_unique<Tenant>();
  t->name = name;
  Tenant& ref = *t;
  tenants_.emplace(name, std::move(t));
  tenant_order_.push_back(name);
  return ref;
}

double Scheduler::predicted_cost(const JobSpec& spec, int rung) {
  return predict_cost_units(engine_.resolve(spec, rung).cfg, spec.nsteps);
}

std::vector<std::string> Scheduler::adopt_orphans() {
  std::vector<std::string> ids;
  if (options_.supervisor.durable_root.empty()) return ids;
  rt::TraceSpan span("svc.adopt");
  std::set<std::string> skip;
  for (const Arrival& a : adopted_) skip.insert(a.spec.id);
  auto& mx = rt::MetricsRegistry::global();
  for (JobSpec& spec : scan_orphans(options_.supervisor.durable_root, skip)) {
    ids.push_back(spec.id);
    adopted_.push_back(Arrival{0.0, std::move(spec), /*adopted=*/true});
    mx.counter("svc.adopted").add(1.0);
  }
  return ids;
}

// ---- event loop ------------------------------------------------------------

size_t Scheduler::total_queued() const {
  size_t n = 0;
  for (const auto& [name, t] : tenants_) n += t->q.size();
  return n;
}

int Scheduler::brownout_level() const {
  if (options_.queue_capacity <= 0) return 0;
  const double fill =
      static_cast<double>(total_queued()) / static_cast<double>(options_.queue_capacity);
  if (fill >= options_.blackout_start) return 2;
  if (fill >= options_.brownout_start) return 1;
  return 0;
}

void Scheduler::enqueue(size_t ji) {
  Job& j = *jobs_[ji];
  j.enqueue_v = vnow_;
  tenant_of(j.spec.tenant).q.push_back(ji);
  const size_t depth = total_queued();
  result_.stats.max_queue_depth = std::max(result_.stats.max_queue_depth, depth);
  rt::MetricsRegistry::global()
      .gauge("svc.sched.queue_depth")
      .set(static_cast<double>(depth));
}

void Scheduler::handle_arrival(Arrival&& a) {
  auto& mx = rt::MetricsRegistry::global();
  TenantLedger& led = result_.stats.tenants[a.spec.tenant];
  const double cost = predicted_cost(a.spec, -1);
  ++led.submitted;
  led.offered_units += cost;
  mx.counter("svc.jobs_submitted").add(1.0);

  const int cap = options_.queue_capacity;
  if (cap > 0 && total_queued() >= static_cast<size_t>(cap)) {
    // Queue full. Only *fresh* queued jobs (no attempt yet) are sheddable —
    // a retrying job holds durable progress and a budget reservation, which
    // are worth more than a blank arrival. Find the lowest-priority victim;
    // ties break toward the youngest (keeps the closest-to-service job).
    size_t victim = kNone;
    int minp = std::numeric_limits<int>::max();
    for (const std::string& name : tenant_order_) {
      for (size_t ji : tenants_[name]->q) {
        const Job& cand = *jobs_[ji];
        if (cand.attempt_next > 0) continue;  // in-progress retry: not sheddable
        const int p = cand.spec.priority;
        if (p < minp ||
            (p == minp && victim != kNone && cand.enqueue_v >= jobs_[victim]->enqueue_v)) {
          minp = p;
          victim = ji;
        }
      }
    }
    if (victim == kNone || a.spec.priority <= minp) {
      // Backpressure: the arrival does not out-rank anything sheddable, so
      // it is refused with a deterministic drain-time estimate. It never
      // entered the system; no terminal state is fabricated.
      double queued_units = 0.0;
      for (const auto& [name, t] : tenants_)
        for (size_t ji : t->q) queued_units += jobs_[ji]->cost_units;
      RejectAudit rej;
      rej.id = a.spec.id;
      rej.tenant = a.spec.tenant;
      rej.vtime = vnow_;
      rej.retry_after_s = std::max(cost, queued_units / options_.max_concurrency) *
                          options_.cost_per_unit_s;
      result_.stats.rejects.push_back(std::move(rej));
      ++led.rejected;
      mx.counter("svc.sched.rejected").add(1.0);
      return;
    }
    // Shed the victim to admit the higher-priority arrival.
    Job& v = *jobs_[victim];
    auto& vq = tenant_of(v.spec.tenant).q;
    vq.erase(std::find(vq.begin(), vq.end(), victim));
    ShedAudit audit;
    audit.id = v.spec.id;
    audit.priority = v.spec.priority;
    audit.min_queued_priority = std::min(minp, a.spec.priority);
    audit.vtime = vnow_;
    result_.stats.shed_audits.push_back(std::move(audit));
    mx.counter("svc.sched.shed_priority." + std::to_string(v.spec.priority)).add(1.0);
    if (v.rung == -2) v.out.ran = engine_.resolve(v.spec, -1).cfg;
    settle_terminal(victim, TerminalState::Shed,
                    "shed under overload: queue full, lowest priority");
  }

  // Admit.
  auto job = std::make_unique<Job>();
  job->spec = std::move(a.spec);
  job->arrival_v = vnow_;
  job->cost_units = cost;
  job->dir = job_dir(job->spec.id);
  job->out.spec = job->spec;
  job->out.adopted = a.adopted;
  if (!job->dir.empty() && !a.adopted) {
    mkdir_p(job->dir);
    write_text_file_atomic(job->dir + "/job.json", job_to_json(job->spec));
  }
  jobs_.push_back(std::move(job));
  const size_t ji = jobs_.size() - 1;
  ++led.admitted;
  enqueue(ji);
}

bool Scheduler::pick_next(size_t* out_ji) {
  if (total_queued() == 0) return false;
  // Starvation watchdog: the oldest queued job past the boost threshold
  // jumps the fair-share rotation.
  if (age_bound_s_ > 0.0) {
    size_t oldest = kNone;
    Tenant* oldest_t = nullptr;
    double oldest_v = kInf;
    for (const std::string& name : tenant_order_) {
      Tenant& t = *tenants_[name];
      if (t.q.empty()) continue;
      const size_t ji = t.q.front();  // FIFO: the tenant's oldest is its front
      if (jobs_[ji]->enqueue_v < oldest_v) {
        oldest_v = jobs_[ji]->enqueue_v;
        oldest = ji;
        oldest_t = &t;
      }
    }
    if (oldest != kNone &&
        vnow_ - oldest_v >= options_.watchdog_boost_frac * age_bound_s_) {
      oldest_t->q.pop_front();
      ++result_.stats.watchdog_boosts;
      rt::MetricsRegistry::global().counter("svc.sched.watchdog_boosts").add(1.0);
      *out_ji = oldest;
      return true;
    }
  }
  // Deficit round-robin: each fresh visit grants quantum × weight; serve
  // while the deficit covers the head-of-line predicted cost.
  const size_t n = tenant_order_.size();
  for (size_t guard = 0; guard < n * 4096; ++guard) {
    Tenant& t = *tenants_[tenant_order_[rr_index_]];
    if (rr_fresh_) {
      if (!t.q.empty()) t.deficit += quantum_units_ * t.weight;
      rr_fresh_ = false;
    }
    if (t.q.empty()) {
      t.deficit = 0.0;
      rr_index_ = (rr_index_ + 1) % n;
      rr_fresh_ = true;
      continue;
    }
    const size_t ji = t.q.front();
    if (t.deficit + 1e-9 >= jobs_[ji]->cost_units) {
      t.deficit -= jobs_[ji]->cost_units;
      t.q.pop_front();
      *out_ji = ji;
      return true;
    }
    rr_index_ = (rr_index_ + 1) % n;
    rr_fresh_ = true;
  }
  // Pathological quantum (user-set far below job costs): serve head-of-line
  // of the first non-empty tenant rather than spinning.
  for (const std::string& name : tenant_order_) {
    Tenant& t = *tenants_[name];
    if (t.q.empty()) continue;
    *out_ji = t.q.front();
    t.q.pop_front();
    return true;
  }
  return false;
}

void Scheduler::dispatch_ready() {
  auto& mx = rt::MetricsRegistry::global();
  while (slots_.size() < static_cast<size_t>(options_.max_concurrency)) {
    size_t ji = kNone;
    if (!pick_next(&ji)) break;
    Job& j = *jobs_[ji];
    mx.gauge("svc.sched.queue_depth").set(static_cast<double>(total_queued()));
    const double age = vnow_ - j.enqueue_v;
    result_.stats.max_queue_age_s = std::max(result_.stats.max_queue_age_s, age);
    mx.histogram("svc.sched.queue_age").observe(age);

    if (j.rung == -2) {
      // First dispatch: choose the rung once (retries must resume the same
      // configuration's generations). Brownout forces the floor up under
      // pressure; within the allowed range the first rung whose demand fits
      // the tenant partition wins — pure arithmetic, budget untouched.
      const int level = brownout_level();
      const int nfall = static_cast<int>(j.spec.fallbacks.size());
      int lo = -1;
      if (level >= 1 && nfall > 0) lo = 0;
      if (level >= 2 && nfall > 0) lo = nfall - 1;
      if (lo > -1) {
        ++result_.stats.brownout_degrades;
        mx.counter("svc.sched.brownout_degrades").add(1.0);
      }
      rt::MemoryBudget* part = tenant_of(j.spec.tenant).partition.get();
      int chosen = -2;
      bte::MemoryDemand demand;
      for (int rung = lo; rung < nfall; ++rung) {
        AttemptEngine::Resolved cand = engine_.resolve(j.spec, rung);
        bte::MemoryDemand d = bte::estimate_memory_demand(
            cand.cfg.solver, cand.scenario, *cand.physics, cand.cfg.nparts);
        const bool fits = part == nullptr || part->capacity() <= 0 ||
                          part->in_use() + d.total_bytes() <= part->capacity();
        if (fits) {
          chosen = rung;
          j.rj = std::move(cand);
          demand = d;
          break;
        }
      }
      if (chosen == -2) {
        j.out.ran = engine_.resolve(j.spec, -1).cfg;
        settle_terminal(ji, TerminalState::Shed,
                        "admission: no rung of the fallback ladder fits the tenant partition");
        continue;
      }
      j.rung = chosen;
      j.out.ran = j.rj.cfg;
      j.out.degraded_rung = chosen;
      if (chosen >= 0) mx.counter("svc.degraded").add(1.0);
      j.cost_units = predict_cost_units(j.rj.cfg, j.spec.nsteps);
      if (part != nullptr && part->capacity() > 0) {
        j.reserved = demand.admission_bytes();
        if (!part->try_reserve(j.reserved)) {
          j.reserved = 0;
          settle_terminal(ji, TerminalState::Shed, "admission: reservation failed");
          continue;
        }
      }
    }

    Slot s;
    s.ji = ji;
    s.attempt_index = j.attempt_next;
    s.seed = AttemptEngine::attempt_seed(j.spec.seed, s.attempt_index);
    s.seq = seq_++;
    s.end_v = vnow_ + std::max(j.cost_units * options_.cost_per_unit_s, 1e-12);
    rt::MemoryBudget* part = tenant_of(j.spec.tenant).partition.get();
    if (part != nullptr)
      s.view = std::make_unique<rt::MemoryBudget>(part->capacity(), part);
    slots_.push_back(std::move(s));
    ++result_.stats.dispatched;
    mx.counter("svc.sched.dispatched").add(1.0);
  }
}

void Scheduler::execute_wave() {
  std::vector<size_t> todo;
  for (size_t i = 0; i < slots_.size(); ++i)
    if (!slots_[i].executed) todo.push_back(i);
  if (todo.empty()) return;
  rt::SpanAttrs wattrs;
  wattrs.step = static_cast<int64_t>(todo.size());
  rt::TraceSpan wave("svc.sched.wave", wattrs);
  auto run_one = [&](int64_t k) {
    Slot& s = slots_[todo[static_cast<size_t>(k)]];
    Job& j = *jobs_[s.ji];
    rt::SpanAttrs attrs;
    attrs.step = s.attempt_index;
    rt::TraceSpan aspan("svc.attempt", attrs);
    s.result =
        engine_.run_attempt(j.rj, s.attempt_index, s.seed, j.dir, j.spec.faults, s.view.get());
    s.executed = true;
  };
  if (todo.size() == 1 || options_.max_concurrency <= 1) {
    for (size_t k = 0; k < todo.size(); ++k) run_one(static_cast<int64_t>(k));
  } else {
    if (!pool_)
      pool_ = std::make_unique<rt::ThreadPool>(
          static_cast<unsigned>(options_.max_concurrency));
    pool_->parallel_for(0, static_cast<int64_t>(todo.size()), run_one, /*grain=*/1);
  }
}

void Scheduler::settle_terminal(size_t ji, TerminalState state, std::string detail) {
  Job& j = *jobs_[ji];
  j.out.state = state;
  j.out.detail = std::move(detail);
  j.out.time_to_terminal_s = vnow_ - j.arrival_v;  // sojourn: queue wait included
  Tenant& t = tenant_of(j.spec.tenant);
  if (j.reserved > 0 && t.partition != nullptr) t.partition->release(j.reserved);
  j.reserved = 0;
  if (!j.dir.empty()) {
    try {
      write_text_file_atomic(j.dir + "/terminal.json", terminal_to_json(state, j.out.detail));
    } catch (const std::exception& e) {
      j.out.detail += " (terminal record not durable: " + std::string(e.what()) + ")";
    }
  }
  auto& mx = rt::MetricsRegistry::global();
  mx.counter(std::string("svc.jobs_") + terminal_state_name(state)).add(1.0);
  mx.histogram(std::string("svc.latency.") + terminal_state_name(state))
      .observe(j.out.time_to_terminal_s);
  TenantLedger& led = result_.stats.tenants[j.spec.tenant];
  switch (state) {
    case TerminalState::Completed:
      ++led.completed;
      led.completed_units += j.cost_units;
      mx.counter("svc.sched.goodput_units." + j.spec.tenant).add(j.cost_units);
      break;
    case TerminalState::Cancelled: ++led.cancelled; break;
    case TerminalState::Quarantined: ++led.quarantined; break;
    case TerminalState::Shed: ++led.shed; break;
    case TerminalState::Pending: break;
  }
  result_.outcomes.push_back(j.out);
}

void Scheduler::process_completion(size_t slot_index) {
  if (!slots_[slot_index].executed) execute_wave();
  Slot s = std::move(slots_[slot_index]);
  slots_.erase(slots_.begin() + static_cast<long>(slot_index));
  Job& j = *jobs_[s.ji];
  AttemptEngine::Result r = std::move(s.result);
  r.rec.backoff_s = j.pending_backoff;
  j.pending_backoff = 0.0;
  j.out.attempts.push_back(r.rec);
  j.out.stats = r.stats;
  j.out.final_step = r.rec.end_step;
  j.attempt_next = s.attempt_index + 1;
  if (!r.completed && !r.drained) ++j.failures;

  auto& mx = rt::MetricsRegistry::global();
  const AttemptEngine::Decision d = engine_.decide(r, s.attempt_index, j.failures);
  switch (d.next) {
    case AttemptEngine::Next::Complete:
      j.out.temperature = std::move(r.T);
      j.out.intensity = std::move(r.I);
      settle_terminal(s.ji, TerminalState::Completed, d.detail);
      return;
    case AttemptEngine::Next::Drain:
      settle_terminal(s.ji, TerminalState::Cancelled, d.detail);
      return;
    case AttemptEngine::Next::Quarantine: {
      rt::ChaosSchedule repro;
      repro.seed = j.spec.seed;
      repro.index = 0;
      repro.solver = j.rj.cfg.solver;
      repro.nparts = j.rj.cfg.nparts;
      repro.nsteps = j.spec.nsteps;
      repro.faults = engine_.minimize_repro(j.rj);
      j.out.repro_json = rt::schedule_to_json(repro);
      if (!j.dir.empty()) {
        j.out.repro_path = j.dir + "/QUARANTINE_repro.json";
        try {
          write_text_file_atomic(j.out.repro_path, j.out.repro_json);
        } catch (const std::exception&) {
          j.out.repro_path.clear();
        }
      }
      settle_terminal(s.ji, TerminalState::Quarantined, d.detail);
      return;
    }
    case AttemptEngine::Next::Retry: {
      double backoff =
          backoff_with_jitter(options_.supervisor.retry, j.spec.id, j.failures - 1);
      // Retry-storm damper: correlated failures inside the sliding window
      // stretch the backoff so requeues spread out instead of thundering.
      retry_times_.push_back(vnow_);
      while (!retry_times_.empty() &&
             retry_times_.front() < vnow_ - options_.storm_window_s)
        retry_times_.erase(retry_times_.begin());
      if (static_cast<int>(retry_times_.size()) > options_.storm_threshold) {
        backoff *= options_.storm_factor;
        ++result_.stats.storm_damped;
        mx.counter("svc.sched.storm_damped").add(1.0);
      }
      j.pending_backoff = backoff;
      ++result_.stats.retries;
      mx.counter("svc.retries").add(1.0);
      mx.counter("svc.backoff_seconds").add(backoff);
      RetryEvent ev;
      ev.due = vnow_ + backoff;
      ev.seq = seq_++;
      ev.ji = s.ji;
      retry_heap_.push_back(ev);
      std::push_heap(retry_heap_.begin(), retry_heap_.end());
      return;
    }
  }
}

void Scheduler::check_starvation() {
  if (age_bound_s_ <= 0.0) return;
  auto& mx = rt::MetricsRegistry::global();
  for (const auto& [name, t] : tenants_) {
    for (size_t ji : t->q) {
      Job& j = *jobs_[ji];
      if (!j.wd_flagged && vnow_ - j.enqueue_v > age_bound_s_) {
        j.wd_flagged = true;
        ++result_.stats.watchdog_violations;
        mx.counter("svc.sched.watchdog_violations").add(1.0);
      }
    }
  }
}

ScheduleResult Scheduler::run(std::vector<Arrival> arrivals) {
  if (ran_) throw std::invalid_argument("Scheduler::run: one run per scheduler");
  ran_ = true;
  rt::TraceSpan span("svc.sched");

  // Adopted orphans rejoin the stream at vtime 0, ahead of fresh arrivals.
  if (!adopted_.empty()) {
    arrivals.insert(arrivals.begin(), std::make_move_iterator(adopted_.begin()),
                    std::make_move_iterator(adopted_.end()));
    adopted_.clear();
  }
  std::set<std::string> ids;
  double prev = 0.0;
  for (const Arrival& a : arrivals) {
    validate_spec(a.spec);
    if (a.vtime < prev)
      throw std::invalid_argument("Scheduler::run: arrivals must be sorted by vtime");
    prev = a.vtime;
    if (!ids.insert(a.spec.id).second)
      throw std::invalid_argument("Scheduler::run: duplicate job id '" + a.spec.id + "'");
  }

  // Tenant table: declared specs first (deterministic rotation order), then
  // any tenant the arrivals name.
  for (const TenantSpec& ts : options_.tenants) tenant_of(ts.name).weight = ts.weight;
  for (const Arrival& a : arrivals) tenant_of(a.spec.tenant);

  // Partition the shared budget by fair-share weight.
  rt::MemoryBudget* root = options_.supervisor.memory;
  if (root != nullptr) {
    double wsum = 0.0;
    for (const std::string& name : tenant_order_) wsum += tenants_[name]->weight;
    for (const std::string& name : tenant_order_) {
      Tenant& t = *tenants_[name];
      const int64_t share =
          root->capacity() > 0
              ? static_cast<int64_t>(static_cast<double>(root->capacity()) * t.weight / wsum)
              : 0;
      t.partition = std::make_unique<rt::MemoryBudget>(share, root);
      result_.stats.tenants[name].budget_capacity = share;
    }
  }
  for (const std::string& name : tenant_order_)
    result_.stats.tenants[name].weight = tenants_[name]->weight;

  // Auto quantum: the largest arrival is servable within one DRR visit.
  double max_cost = 0.0, sum_cost = 0.0;
  for (const Arrival& a : arrivals) {
    const double c = predicted_cost(a.spec, -1);
    max_cost = std::max(max_cost, c);
    sum_cost += c;
  }
  quantum_units_ =
      options_.drr_quantum_units > 0.0 ? options_.drr_quantum_units : std::max(1.0, max_cost);
  const double mean_cost_s =
      arrivals.empty() ? 0.0
                       : (sum_cost / static_cast<double>(arrivals.size())) *
                             options_.cost_per_unit_s;
  age_bound_s_ = options_.max_queue_age_s > 0.0
                     ? options_.max_queue_age_s
                     : (options_.queue_capacity > 0
                            ? 4.0 * options_.queue_capacity * mean_cost_s /
                                  options_.max_concurrency
                            : 0.0);

  size_t ai = 0;
  while (true) {
    dispatch_ready();
    double t_done = kInf;
    size_t done_idx = kNone;
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].end_v < t_done ||
          (slots_[i].end_v == t_done && slots_[i].seq < slots_[done_idx].seq)) {
        t_done = slots_[i].end_v;
        done_idx = i;
      }
    }
    const double t_retry = retry_heap_.empty() ? kInf : retry_heap_.front().due;
    const double t_arr = ai < arrivals.size() ? arrivals[ai].vtime : kInf;
    const double t = std::min({t_done, t_retry, t_arr});
    if (t == kInf) break;
    vnow_ = std::max(vnow_, t);
    if (t_done <= t_retry && t_done <= t_arr) {
      process_completion(done_idx);
    } else if (t_retry <= t_arr) {
      std::pop_heap(retry_heap_.begin(), retry_heap_.end());
      const RetryEvent ev = retry_heap_.back();
      retry_heap_.pop_back();
      enqueue(ev.ji);  // fair share applies to retries too
    } else {
      handle_arrival(std::move(arrivals[ai++]));
    }
    check_starvation();
  }
  result_.stats.drain_vtime_s = vnow_;
  rt::MetricsRegistry::global().gauge("svc.sched.queue_depth").set(0.0);
  return std::move(result_);
}

}  // namespace finch::svc
