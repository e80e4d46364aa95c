#include "distributed_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string_view>

#include "runtime/metrics.hpp"

namespace finch::bte {

namespace {

// Mirrors a solver's recovery tallies into the global metrics registry under
// `solver.*` names (OBSERVABILITY.md). ResilienceStats counters only grow, so
// publication is delta-based against `published` — the caller keeps one
// previously-published copy per solver and calls this at the end of run();
// repeated runs then accumulate correctly instead of double-counting.
void publish_resilience_metrics(const ResilienceStats& now, ResilienceStats& published) {
  auto& mx = rt::MetricsRegistry::global();
  const auto count = [&mx](const char* name, int64_t cur, int64_t prev) {
    if (cur > prev) mx.counter(name).add(static_cast<double>(cur - prev));
  };
  const auto secs = [&mx](const char* name, double cur, double prev) {
    if (cur > prev) mx.counter(name).add(cur - prev);
  };
  count("solver.retries", now.retries, published.retries);
  count("solver.rollbacks", now.rollbacks, published.rollbacks);
  count("solver.replayed_steps", now.replayed_steps, published.replayed_steps);
  count("solver.checkpoints", now.checkpoints, published.checkpoints);
  count("solver.validations", now.validations, published.validations);
  count("solver.faults_detected", now.faults_detected, published.faults_detected);
  count("solver.evictions", now.evictions, published.evictions);
  count("solver.sdc_detections", now.sdc_detections, published.sdc_detections);
  count("solver.block_repairs", now.block_repairs, published.block_repairs);
  count("solver.repair_failures", now.repair_failures, published.repair_failures);
  count("solver.sentinel_checks", now.sentinel_checks, published.sentinel_checks);
  count("solver.invariant_violations", now.invariant_violations, published.invariant_violations);
  count("solver.hang_escalations", now.hang_escalations, published.hang_escalations);
  count("solver.speculations", now.speculations, published.speculations);
  count("solver.rebalances", now.rebalances, published.rebalances);
  count("solver.ckpt_restore_retries", now.ckpt_restore_retries, published.ckpt_restore_retries);
  count("solver.ckpt_generation_fallbacks", now.ckpt_generation_fallbacks,
        published.ckpt_generation_fallbacks);
  count("solver.ckpt_hang_stalls", now.ckpt_hang_stalls, published.ckpt_hang_stalls);
  count("solver.alloc_failures", now.alloc_failures, published.alloc_failures);
  count("solver.pressure_events", now.pressure_events, published.pressure_events);
  count("solver.reliefs", now.reliefs, published.reliefs);
  count("solver.relieved_bytes", now.relieved_bytes, published.relieved_bytes);
  count("run.generations_committed", now.generations_committed, published.generations_committed);
  count("run.resumes", now.resumes, published.resumes);
  count("cancel.drains", now.cancel_drains, published.cancel_drains);
  secs("solver.recovery_seconds", now.recovery_seconds, published.recovery_seconds);
  secs("solver.redistribution_seconds", now.redistribution_seconds, published.redistribution_seconds);
  secs("solver.audit_seconds", now.audit_seconds, published.audit_seconds);
  secs("solver.speculation_seconds", now.speculation_seconds, published.speculation_seconds);
  secs("solver.rebalance_seconds", now.rebalance_seconds, published.rebalance_seconds);
  published = now;
}

// ---- hardened checkpoint restore --------------------------------------------
//
// The restore path is itself a fault surface: the process re-reading an image
// can hang mid-read ("HangExchange @ ckpt-restore") and the bytes it reads can
// take a flip in flight ("BitFlipMessage @ ckpt-restore") — cross-class
// interactions the per-step defenses never see because they strike *during*
// recovery. This loader hardens every rollback / eviction restore:
//
//   for each checkpoint generation (newest first):
//     for each read attempt (<= max_retries):
//       ride out an injected hang (bounded: the heartbeat suspicion timeout
//         when the fail-slow defense is armed, the raw hang timeout otherwise),
//       read a fresh copy of the image, apply any injected in-flight flip,
//       deserialize — the image checksums catch torn/flipped bytes — and
//       return on success; on CheckpointError charge a backoff and re-read.
//     every read of this generation corrupted -> fall back one generation
//     (older step, more replay, still bit-exact).
//
// Only when every read of every generation fails does the restore surface
// ResilienceError. `charge_stall(seconds)` bills virtual stall time to the
// caller's recovery phase. Tallies land in ResilienceStats::ckpt_*.
template <typename ChargeStall>
rt::Snapshot load_checkpoint_guarded(const rt::CheckpointStore& store,
                                     const ResilienceOptions& opt, ResilienceStats& stats,
                                     ChargeStall&& charge_stall) {
  if (store.generations() == 0) throw rt::CheckpointError("no checkpoint saved");
  std::string last_error;
  for (int gen = 0; gen < store.generations(); ++gen) {
    for (int attempt = 0; attempt <= opt.max_retries; ++attempt) {
      if (opt.injector != nullptr &&
          opt.injector->should_fault(rt::FaultKind::HangExchange, "ckpt-restore")) {
        stats.ckpt_hang_stalls += 1;
        charge_stall(opt.straggler.enabled ? opt.heartbeat.suspicion_timeout()
                                           : opt.injector->hang_seconds());
      }
      std::vector<std::byte> image = store.image_copy(gen);
      if (opt.injector != nullptr && !image.empty() &&
          opt.injector->should_fault(rt::FaultKind::BitFlipMessage, "ckpt-restore"))
        opt.injector->flip_raw_bit(image, rt::FaultKind::BitFlipMessage, "ckpt-restore");
      try {
        return rt::deserialize(image);
      } catch (const rt::CheckpointError& err) {
        last_error = err.what();
        stats.ckpt_restore_retries += 1;
        charge_stall(backoff_delay(opt, attempt));
        // With no injector the bytes cannot change between reads; re-reading
        // the same in-memory image would fail identically, so fall through to
        // the older generation at once.
        if (opt.injector == nullptr) break;
      }
    }
    if (gen + 1 < store.generations()) stats.ckpt_generation_fallbacks += 1;
  }
  throw ResilienceError("checkpoint restore failed on every generation: " + last_error);
}

// ---- durable-run helpers ----------------------------------------------------

// Order-sensitive bitwise FNV-1a accumulator over the run configuration. The
// manifest records the hash so resume_from() can refuse to graft a checkpoint
// onto a solver built from a different scenario/topology — a silent mismatch
// would "resume" into garbage that still looks finite.
struct ConfigHasher {
  uint64_t h = 0xcbf29ce484222325ULL;
  ConfigHasher& mix_bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
    return *this;
  }
  ConfigHasher& mix(double v) { return mix_bytes(&v, sizeof v); }
  ConfigHasher& mix(int64_t v) { return mix_bytes(&v, sizeof v); }
  ConfigHasher& mix(const std::string& s) {
    mix(static_cast<int64_t>(s.size()));
    return mix_bytes(s.data(), s.size());
  }
  uint64_t value() const { return h; }
};

// Step-boundary consult of the resource fault class. MemoryPressure models an
// external squeeze (co-tenant, OS): the usable budget transiently halves and
// the relief chain restores headroom. AllocFailure models a failed first
// allocation attempt inside the step: relief runs, then the retried
// allocation is charged one backoff of virtual stall time. Both are absorbed
// — graceful degradation only ever frees rebuildable state (the second
// checkpoint generation, scratch, the in-memory images once spilled to disk),
// so the numerical trajectory stays bit-exact. `charge_stall(seconds)` bills
// the caller's recovery phase.
template <typename ChargeStall>
void consult_resource_faults(const ResilienceOptions& opt, ResilienceStats& stats,
                             std::string_view site, ChargeStall&& charge_stall) {
  if (opt.injector == nullptr) return;
  const auto relieve = [&](int64_t headroom) {
    if (opt.memory == nullptr) return;
    const int64_t freed = opt.memory->run_relief(headroom);
    if (freed > 0) {
      stats.reliefs += 1;
      stats.relieved_bytes += freed;
    }
  };
  if (opt.injector->should_fault(rt::FaultKind::MemoryPressure, site)) {
    stats.pressure_events += 1;
    if (opt.memory != nullptr) opt.memory->spike(0.5);
    relieve(0);
  }
  if (opt.injector->should_fault(rt::FaultKind::AllocFailure, site)) {
    stats.alloc_failures += 1;
    relieve(0);
    charge_stall(backoff_delay(opt, 0));
  }
}

// The run state a durable generation carries beside the fields. The
// injector's whole resumable state (counters + event log) rides along so a
// restarted process draws the exact fault sequence the killed one would have;
// the store stamps the generation's step and sequence number.
rt::RunManifest run_manifest(const ResilienceOptions& opt, const char* solver, int nparts,
                             uint64_t config_hash, const std::string& cancel_reason) {
  rt::RunManifest m;
  m.config_hash = config_hash;
  m.injector_seed = opt.injector != nullptr ? opt.injector->seed() : 0;
  m.solver = solver;
  m.nparts = nparts;
  if (opt.injector != nullptr) {
    m.injector_counters = opt.injector->export_counters();
    m.injector_events = opt.injector->events();
  }
  m.cancel_reason = cancel_reason;
  return m;
}

// Refuses to resume a generation on the wrong solver or problem — a silent
// mismatch would continue into a finite-looking but wrong trajectory.
void check_generation_matches(const rt::Generation& gen, std::string_view solver,
                              uint64_t config_hash) {
  if (gen.manifest.solver != solver)
    throw rt::CheckpointError("generation solver mismatch: " + gen.path + " was written by a '" +
                              gen.manifest.solver + "' solver but a '" + std::string(solver) +
                              "' solver is resuming");
  if (gen.manifest.config_hash != config_hash)
    throw rt::CheckpointError("generation config-hash mismatch: " + gen.path +
                              " was written by a run with a different scenario/discretization; "
                              "refusing to resume");
}

}  // namespace


// ---- Upwind --------------------------------------------------------------------

Upwind::Upwind(const BteScenario& scen, const BtePhysics& phys)
    : phys_(&phys),
      nx_(scen.nx),
      ny_(scen.ny),
      dt_(scen.dt),
      hx_(scen.lx / scen.nx),
      ax_(scen.dt / (scen.lx / scen.nx)),
      ay_(scen.dt / (scen.ly / scen.ny)),
      T_cold_(scen.T_cold),
      T_hot_(scen.T_hot),
      hot_w_(scen.hot_w),
      hot_xc_(scen.hot_center_frac * scen.lx) {}

double Upwind::wall_temperature(double x) const {
  const double rr = x - hot_xc_;
  return T_cold_ + (T_hot_ - T_cold_) * std::exp(-2.0 * rr * rr / (hot_w_ * hot_w_));
}

// ---- BandLayout ----------------------------------------------------------------

BandLayout::Ranges BandLayout::equal(int nb, int n) {
  Ranges ranges(static_cast<size_t>(n));
  for (int p = 0; p < n; ++p) ranges[static_cast<size_t>(p)] = {p * nb / n, (p + 1) * nb / n};
  return ranges;
}

BandLayout::Ranges BandLayout::derated(int nb, int n, int32_t victim, double slowdown) {
  std::vector<double> w(static_cast<size_t>(n), 1.0);
  w[static_cast<size_t>(victim)] = 1.0 / slowdown;
  double total = 0.0;
  for (double x : w) total += x;
  Ranges ranges(w.size());
  double cum = 0.0;
  int lo = 0;
  for (size_t p = 0; p < w.size(); ++p) {
    cum += w[p];
    int hi = p + 1 == w.size()
                 ? nb
                 : static_cast<int>(std::lround(static_cast<double>(nb) * cum / total));
    hi = std::clamp(hi, lo, nb);
    ranges[p] = {lo, hi};
    lo = hi;
  }
  return ranges;
}

BandLayout::BandLayout(const BteScenario& scen, std::shared_ptr<const BtePhysics> phys)
    : phys_(std::move(phys)),
      T_init_(scen.T_init),
      ncell_(scen.nx * scen.ny),
      nd_(phys_->num_dirs()),
      nb_(phys_->num_bands()) {
  T.assign(static_cast<size_t>(ncell_), T_init_);
  G.resize(static_cast<size_t>(ncell_) * static_cast<size_t>(nb_));
}

void BandLayout::assign(const Ranges& ranges) {
  slices.assign(ranges.size(), Slice{});
  for (size_t p = 0; p < ranges.size(); ++p) {
    Slice& s = slices[p];
    s.b_lo = ranges[p].first;
    s.b_hi = ranges[p].second;
    const size_t bl = static_cast<size_t>(s.bands());
    s.I.resize(static_cast<size_t>(ncell_) * bl * static_cast<size_t>(nd_));
    s.I_new.resize(s.I.size());
    s.Io.resize(static_cast<size_t>(ncell_) * bl);
    s.beta.resize(s.Io.size());
    for (int b = s.b_lo; b < s.b_hi; ++b) {
      const double i0 = phys_->table.I0(b, T_init_);
      const double be = phys_->table.beta(b, T_init_);
      const size_t lb = static_cast<size_t>(b - s.b_lo);
      for (size_t c = 0; c < static_cast<size_t>(ncell_); ++c) {
        s.Io[c * bl + lb] = i0;
        s.beta[c * bl + lb] = be;
        for (size_t d = 0; d < static_cast<size_t>(nd_); ++d)
          s.I[(c * bl + lb) * static_cast<size_t>(nd_) + d] = i0;
      }
    }
  }
}

void BandLayout::sweep(const Upwind& up, const Slice& s, const std::vector<double>& src,
                       std::vector<double>& out) const {
  const size_t bl = static_cast<size_t>(s.bands());
  const size_t nd = static_cast<size_t>(nd_);
  const int nx = up.nx(), ny = up.ny();
  for (int b = s.b_lo; b < s.b_hi; ++b) {
    const size_t lb = static_cast<size_t>(b - s.b_lo);
    const auto at = [&](int32_t c, int d) {
      return src[(static_cast<size_t>(c) * bl + lb) * nd + static_cast<size_t>(d)];
    };
    for (int d = 0; d < nd_; ++d) {
      const Upwind::Ray ray = up.ray(b, d);
      for (int j = 0; j < ny; ++j)
        for (int i = 0; i < nx; ++i) {
          const int32_t c = j * nx + i;
          const size_t cb = static_cast<size_t>(c) * bl + lb;
          const size_t ci = cb * nd + static_cast<size_t>(d);
          out[ci] = up(ray, c, i, j, src[ci], s.Io[cb], s.beta[cb], at);
        }
    }
  }
}

void BandLayout::sweep(const Upwind& up, const Slice& s, std::span<const int32_t> cells,
                       const std::vector<double>& src, std::vector<double>& out) const {
  const size_t bl = static_cast<size_t>(s.bands());
  const size_t nd = static_cast<size_t>(nd_);
  const int nx = up.nx();
  for (int b = s.b_lo; b < s.b_hi; ++b) {
    const size_t lb = static_cast<size_t>(b - s.b_lo);
    const auto at = [&](int32_t c, int d) {
      return src[(static_cast<size_t>(c) * bl + lb) * nd + static_cast<size_t>(d)];
    };
    for (int d = 0; d < nd_; ++d) {
      const Upwind::Ray ray = up.ray(b, d);
      for (int32_t c : cells) {
        const size_t cb = static_cast<size_t>(c) * bl + lb;
        const size_t ci = cb * nd + static_cast<size_t>(d);
        out[ci] = up(ray, c, c % nx, c / nx, src[ci], s.Io[cb], s.beta[cb], at);
      }
    }
  }
}

void BandLayout::reduce(const Slice& s, size_t begin, size_t end, double* out) const {
  // Rows idx = c * bands + local band are consecutive runs of nd intensities.
  phys_->directions.band_sums(s.I.data() + begin * static_cast<size_t>(nd_), 1, end - begin,
                              out + begin);
}

void BandLayout::reduce_into_G(const Slice& s) {
  const size_t bl = static_cast<size_t>(s.bands());
  for (size_t c = 0; c < static_cast<size_t>(ncell_); ++c)
    phys_->directions.band_sums(s.I.data() + c * bl * static_cast<size_t>(nd_), 1, bl,
                                G.data() + c * static_cast<size_t>(nb_) + static_cast<size_t>(s.b_lo));
}

void BandLayout::scatter_into_G(const Slice& s, std::span<const double> payload) {
  const size_t bl = static_cast<size_t>(s.bands());
  for (int b = s.b_lo; b < s.b_hi; ++b)
    for (size_t c = 0; c < static_cast<size_t>(ncell_); ++c)
      G[c * static_cast<size_t>(nb_) + static_cast<size_t>(b)] =
          payload[c * bl + static_cast<size_t>(b - s.b_lo)];
}

void BandLayout::update_temperature() {
  const size_t nb = static_cast<size_t>(nb_);
  for (size_t c = 0; c < static_cast<size_t>(ncell_); ++c) {
    const double Tc = phys_->table.solve_temperature({G.data() + c * nb, nb}, T[c]);
    T[c] = Tc;
    for (Slice& s : slices) {
      const size_t cb = c * static_cast<size_t>(s.bands());
      phys_->table.equilibrium(Tc, s.b_lo, s.b_hi, s.Io.data() + cb, s.beta.data() + cb);
    }
  }
}

std::vector<double> BandLayout::gather_intensity() const {
  const size_t nd = static_cast<size_t>(nd_), nb = static_cast<size_t>(nb_);
  std::vector<double> out(static_cast<size_t>(ncell_) * nd * nb);
  for (const Slice& s : slices) {
    const size_t bl = static_cast<size_t>(s.bands());
    for (int b = s.b_lo; b < s.b_hi; ++b) {
      const size_t lb = static_cast<size_t>(b - s.b_lo);
      for (size_t c = 0; c < static_cast<size_t>(ncell_); ++c)
        for (size_t d = 0; d < nd; ++d)
          out[c * nd * nb + d + nd * static_cast<size_t>(b)] = s.I[(c * bl + lb) * nd + d];
    }
  }
  return out;
}

void BandLayout::gather_coefficients(std::vector<double>& Io, std::vector<double>& beta) const {
  for (const Slice& s : slices) {
    const size_t bl = static_cast<size_t>(s.bands());
    for (int b = s.b_lo; b < s.b_hi; ++b)
      for (size_t c = 0; c < static_cast<size_t>(ncell_); ++c) {
        const size_t g = c * static_cast<size_t>(nb_) + static_cast<size_t>(b);
        const size_t l = c * bl + static_cast<size_t>(b - s.b_lo);
        Io[g] = s.Io[l];
        beta[g] = s.beta[l];
      }
  }
}

void BandLayout::import_state(const rt::Snapshot& snap) {
  const auto& I = snap.field("I");
  const auto& Io = snap.field("Io");
  const auto& beta = snap.field("beta");
  T = snap.field("T");
  const size_t nd = static_cast<size_t>(nd_), nb = static_cast<size_t>(nb_);
  for (Slice& s : slices) {
    const size_t bl = static_cast<size_t>(s.bands());
    for (int b = s.b_lo; b < s.b_hi; ++b) {
      const size_t lb = static_cast<size_t>(b - s.b_lo);
      for (size_t c = 0; c < static_cast<size_t>(ncell_); ++c) {
        s.Io[c * bl + lb] = Io[c * nb + static_cast<size_t>(b)];
        s.beta[c * bl + lb] = beta[c * nb + static_cast<size_t>(b)];
        for (size_t d = 0; d < nd; ++d)
          s.I[(c * bl + lb) * nd + d] = I[c * nd * nb + d + nd * static_cast<size_t>(b)];
      }
    }
  }
}

std::vector<int32_t> BandLayout::owner_counts() const {
  std::vector<int32_t> counts(static_cast<size_t>(nb_), 0);
  for (const Slice& s : slices)
    for (int b = s.b_lo; b < s.b_hi; ++b) counts[static_cast<size_t>(b)] += 1;
  return counts;
}

// ---- DistributedEngine ---------------------------------------------------------

DistributedEngine::DistributedEngine(const BteScenario& scenario,
                                     std::shared_ptr<const BtePhysics> physics, Sites sites)
    : scen_(scenario),
      phys_(std::move(physics)),
      upwind_(scen_, *phys_),
      nd_(phys_->num_dirs()),
      nb_(phys_->num_bands()),
      ncell_(scen_.nx * scen_.ny),
      sites_(sites) {}

void DistributedEngine::run(int nsteps) {
  if (!resilient_) {
    for (int i = 0; i < nsteps; ++i) {
      step();
      ++step_index_;
    }
    return;
  }
  const int64_t target = step_index_ + nsteps;
  int rollback_budget = res_.max_rollbacks;
  while (step_index_ < target) {
    // Cooperative cancellation: a cancel request or deadline drains at the
    // step boundary — a final generation at the current step, carrying the
    // reason — leaving the job resumable exactly like a crashed one.
    if (res_.cancel != nullptr && res_.cancel->should_drain(step_index_, virtual_elapsed())) {
      take_checkpoint(res_.cancel->drain_reason(step_index_, virtual_elapsed()));
      rstats_.cancel_drains += 1;
      break;
    }
    // Resource faults are consulted at the step boundary: pressure squeezes
    // the budget and runs the relief chain; a failed first allocation costs
    // one backoff of recovery time on top of the relief.
    consult_resource_faults(res_, rstats_, sites_.memory_site,
                            [this](double s) { charge_recovery(s); });
    // Permanent failures are discovered at step boundaries: an explicit
    // kill_rank, a hung exchange the watchdog escalated to a Dead verdict, or
    // an injected loss with a deterministically drawn victim.
    if (pending_kill_ < 0) pending_kill_ = hang_victim();
    if (pending_kill_ < 0 && res_.injector != nullptr &&
        res_.injector->should_fault(sites_.loss, sites_.loss_site))
      pending_kill_ = static_cast<int32_t>(
          res_.injector->pick(sites_.loss, sites_.loss_site, static_cast<size_t>(nparts_)));
    if (pending_kill_ >= 0) {
      const int32_t victim = pending_kill_;
      pending_kill_ = -1;
      evict_and_redistribute(victim);
      continue;
    }
    // Chronic stragglers are mitigated at the step boundary, never evicted:
    // the rank is alive and correct, just slow.
    maybe_mitigate_stragglers();
    health_ = StepHealth{};
    try {
      step();
      ++step_index_;
      validate();
    } catch (const rt::TransientFault& fault) {
      // A device retry budget ran out mid-step: some ranks advanced, some did
      // not. Only a rollback restores a consistent state.
      health_.transfer_ok = false;
      health_.detail = std::string("retries exhausted: ") + fault.what();
    }
    if (health_.ok()) {
      if (res_.checkpoint.due(step_index_)) take_checkpoint();
      continue;
    }
    rstats_.faults_detected += 1;
    if (rollback_budget-- <= 0)
      throw ResilienceError("rollback budget exhausted: " + health_.detail);
    // Replay is measured against the step the restore actually lands on — a
    // corrupted-newest-image restore can fall back a generation, losing more
    // than the distance to the latest checkpoint.
    const int64_t before = step_index_;
    restore_checkpoint();
    rstats_.rollbacks += 1;
    rstats_.replayed_steps += before - step_index_;
  }
  sync_fault_telemetry();
  publish_resilience_metrics(rstats_, published_);
}

void DistributedEngine::arm(const ResilienceOptions& options) {
  validate_resilience_options(options);
  res_ = options;
  resilient_ = true;
  register_memory_reliefs();
  attach_defenses();
}

void DistributedEngine::enable_resilience(const ResilienceOptions& options) {
  arm(options);
  if (!res_.durable.dir.empty())
    store_ = rt::CheckpointStore(res_.durable.dir, res_.durable.disk_generations);
  // The rollback target before any resilient step runs. Step 0 stays in
  // memory: the spec regenerates it bit-exactly, so a crash before the first
  // periodic generation restarts from step 0 and loses nothing.
  if (step_index_ == 0) {
    store_.hold(snapshot());
    rstats_.checkpoints += 1;
  } else {
    take_checkpoint();
  }
}

void DistributedEngine::resume_from(const rt::Generation& gen, const ResilienceOptions& options) {
  validate_resilience_options(options);
  if (options.durable.dir.empty())
    throw std::invalid_argument(
        "resume_from: options.durable.dir must name the generation's directory");
  check_generation_matches(gen, sites_.solver, config_hash());
  arm(options);
  restore(gen.state);
  // The restored image is the newest generation again, in memory and backed
  // by the file it came from, so resuming commits nothing. The generation's
  // older siblings stay its fallbacks.
  store_ = rt::CheckpointStore(res_.durable.dir, res_.durable.disk_generations);
  store_.resume(gen);
  rstats_.ckpt_generation_fallbacks += gen.skipped;
  // The injector resumes the exact draw sequence the killed process would
  // have produced from this generation — counters key every draw, the
  // event-log size keys victim and flip draws. State and counters come from
  // one file, so a fallback generation brings its own draw position.
  if (res_.injector != nullptr)
    res_.injector->import_counters(gen.manifest.injector_counters, gen.manifest.injector_events);
  rstats_.resumes += 1;
}

// Graceful degradation, cheapest first. Every relief frees only rebuildable
// state (an in-memory image a disk file still backs, scratch that is resized
// before each use), so the numerical trajectory is untouched.
void DistributedEngine::register_memory_reliefs() {
  if (res_.memory == nullptr) return;
  res_.memory->add_relief("ckpt-prev-generation",
                          [this] { return store_.drop_previous_generation(); });
  res_.memory->add_relief("scratch-shrink", [this] { return release_scratch(); });
  res_.memory->add_relief("ckpt-spill", [this] { return store_.spill(); });
}

int64_t DistributedEngine::release(std::vector<double>& scratch) {
  const int64_t freed = static_cast<int64_t>(scratch.capacity() * sizeof(double));
  scratch.clear();
  scratch.shrink_to_fit();
  return freed;
}

uint64_t DistributedEngine::config_hash() const {
  ConfigHasher h;
  h.mix(static_cast<int64_t>(scen_.nx)).mix(static_cast<int64_t>(scen_.ny));
  h.mix(scen_.lx).mix(scen_.ly);
  h.mix(static_cast<int64_t>(scen_.kind == BteScenario::Kind::CornerSource ? 1 : 0));
  h.mix(scen_.T_init).mix(scen_.T_cold).mix(scen_.T_hot);
  h.mix(scen_.hot_w).mix(scen_.hot_center_frac).mix(scen_.dt);
  h.mix(static_cast<int64_t>(nd_)).mix(static_cast<int64_t>(nb_));
  return h.value();
}

void DistributedEngine::kill_rank(int32_t rank) {
  if (!resilient_)
    throw std::logic_error("kill_rank: enable_resilience first (eviction needs a checkpoint)");
  if (rank < 0 || rank >= nparts_) throw std::invalid_argument("kill_rank: rank out of range");
  pending_kill_ = rank;
}

void DistributedEngine::evict_and_redistribute(int32_t victim) {
  if (nparts_ <= 1) {
    const bool device = sites_.loss == rt::FaultKind::DeviceLoss;
    throw ResilienceError((device ? "device " : "rank ") + std::to_string(victim) +
                          (device ? " lost" : " failed") + " with no survivors");
  }
  rstats_.faults_detected += 1;
  rstats_.recovery_seconds += detect_loss(victim);
  // The survivors take over the victim's share on an equal layout over M
  // ranks and reload the last global checkpoint. The image is loaded through
  // the guarded path, before the shrink, so a restore that hangs or reads
  // corrupted bytes retries or falls back a generation instead of leaving a
  // half-shrunk topology behind.
  const int64_t before = step_index_;
  const rt::Snapshot snap = load_checkpoint_guarded(store_, res_, rstats_,
                                                    [this](double s) { charge_recovery(s); });
  build_topology(nparts_ - 1);
  rstats_.redistribution_seconds +=
      restore_moving(snap, Slot::Redistribution, store_.bytes_stored());
  rstats_.evictions += 1;
  rstats_.replayed_steps += before - step_index_;
}

// Dynamic rebalance away from a chronically slow (but alive) rank: the live
// state moves onto a new layout bit-exactly — no suspicion timeout, no
// rollback, no replayed steps — and the motion is the rebalance cost.
void DistributedEngine::maybe_mitigate_stragglers() {
  if (!res_.straggler.enabled || !res_.straggler.rebalance || nparts_ <= 1) return;
  if (rstats_.rebalances >= res_.straggler.max_rebalances) return;
  const int32_t victim = detector().chronic_straggler();
  if (victim < 0) return;
  const rt::Snapshot live = snapshot();
  int64_t bytes = 0;
  for (const auto& f : live.fields) bytes += static_cast<int64_t>(f.second.size()) * 8;
  relayout_away(victim);
  rstats_.rebalance_seconds += restore_moving(live, Slot::Rebalance, bytes);
  rstats_.rebalances += 1;
  // Old per-rank timing history does not describe the new shares.
  detector().resize(nparts_);
}

void DistributedEngine::take_checkpoint(const std::string& cancel_reason) {
  if (res_.durable.dir.empty()) {
    store_.save(snapshot());
  } else {
    const rt::RunManifest m = run_manifest(res_, sites_.solver, nparts_, config_hash(),
                                           cancel_reason);
    store_.save(snapshot(), &m);
    rstats_.generations_committed += 1;
  }
  rstats_.checkpoints += 1;
}

void DistributedEngine::restore_checkpoint() {
  const rt::Snapshot snap = load_checkpoint_guarded(store_, res_, rstats_,
                                                    [this](double s) { charge_recovery(s); });
  rstats_.recovery_seconds += restore_moving(snap, Slot::Recovery, 0);
}

rt::Snapshot DistributedEngine::snapshot() const {
  rt::Snapshot snap;
  snap.step = step_index_;
  std::vector<double> Io(static_cast<size_t>(ncell_) * static_cast<size_t>(nb_));
  std::vector<double> beta(Io.size());
  gather_coefficients(Io, beta);
  snap.add("I", gather_intensity());
  snap.add("T", gather_temperature());
  snap.add("Io", Io);
  snap.add("beta", beta);
  return snap;
}

void DistributedEngine::restore(const rt::Snapshot& snap) {
  const size_t ncell = static_cast<size_t>(ncell_);
  const size_t nb = static_cast<size_t>(nb_);
  const auto& I = snap.field("I");
  const auto& T = snap.field("T");
  const auto& Io = snap.field("Io");
  const auto& beta = snap.field("beta");
  if (I.size() != ncell * static_cast<size_t>(nd_) * nb || T.size() != ncell ||
      Io.size() != ncell * nb || beta.size() != Io.size())
    throw rt::CheckpointError("snapshot does not match problem size");
  import_state(snap);
  // Restored state invalidates the step-to-step SDC bookkeeping.
  have_prev_energy_ = false;
  flip_step_ = -1;
  step_index_ = snap.step;
}

void DistributedEngine::validate() {
  rstats_.validations += 1;
  // Energy-balance tripwire: a per-step relative drift beyond the tolerance
  // is recorded, not health-failing (see SdcOptions).
  double energy = 0.0;
  if (res_.sdc.enabled && field_energy(energy)) {
    if (have_prev_energy_) {
      const double drift =
          std::abs(energy - prev_energy_) / std::max(std::abs(prev_energy_), 1e-300);
      if (drift > res_.sdc.energy_drift_tol) rstats_.invariant_violations += 1;
    }
    prev_energy_ = energy;
    have_prev_energy_ = true;
  }
  scan_fields();
}

void DistributedEngine::require_finite(std::span<const double> values, int rank,
                                       const char* field) {
  size_t bad = 0;
  if (rt::all_finite(values, &bad)) return;
  health_.finite_ok = false;
  health_.nonfinite_values += 1;
  health_.detail = (rank >= 0 ? "rank " + std::to_string(rank) + " " : std::string()) + field +
                   "[" + std::to_string(bad) + "] non-finite";
}

void DistributedEngine::charge_recovery(double seconds) {
  charge(Slot::Recovery, seconds);
  rstats_.recovery_seconds += seconds;
}

void DistributedEngine::charge_audit(double seconds) {
  charge(Slot::Audit, seconds);
  rstats_.audit_seconds += seconds;
}

void DistributedEngine::note_sdc_detection() {
  rstats_.sdc_detections += 1;
  // Every audit runs in the step its corruption lands in, so the observed
  // latency is one step unless a device flip was stamped earlier; the stat
  // records the bound actually achieved.
  const int64_t latency = flip_step_ >= 0 ? step_index_ + 1 - flip_step_ : 1;
  rstats_.max_detection_latency_steps = std::max(rstats_.max_detection_latency_steps, latency);
  flip_step_ = -1;
}

const std::vector<int32_t>& DistributedEngine::sentinel_cells() {
  if (sentinel_cells_.empty()) {
    const int n = std::min(res_.sdc.sentinel_cells, ncell_);
    for (int k = 0; k < n; ++k)
      sentinel_cells_.push_back(
          static_cast<int32_t>(static_cast<int64_t>(k + 1) * ncell_ / (n + 1)));
  }
  return sentinel_cells_;
}

}  // namespace finch::bte
