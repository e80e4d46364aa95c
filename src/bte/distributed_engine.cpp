#include "distributed_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace finch::bte {

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
    // step boundary — final checkpoint at the current step, manifest carrying
    // the reason — leaving the job resumable exactly like a crashed one.
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
  take_checkpoint();  // rollback target before any resilient step runs
}

void DistributedEngine::resume_from(const rt::RunManifest& manifest,
                                    const ResilienceOptions& options) {
  validate_resilience_options(options);
  if (options.durable.dir.empty())
    throw std::invalid_argument("resume_from: options.durable.dir must name the manifest's dir");
  check_manifest_matches(manifest, sites_.solver, config_hash());
  arm(options);
  store_ = rt::CheckpointStore(res_.durable.dir, res_.durable.disk_generations);
  store_.resume_sequence(manifest.saves);
  // Adopt the prior run's surviving generation files so the first
  // post-resume manifest keeps them as fallback: without them a second crash
  // with a damaged newest generation has nothing older to fall back to.
  store_.adopt_disk_paths(manifest.checkpoints);
  restore(load_manifest_checkpoint(manifest, rstats_));
  // The injector resumes the exact draw sequence the killed process would
  // have produced — counters key every draw, the event-log size keys victim
  // and flip draws.
  if (res_.injector != nullptr)
    res_.injector->import_counters(manifest.injector_counters, manifest.injector_events);
  rstats_.resumes += 1;
  // Re-checkpoint the restored state: primes the in-memory rollback target
  // (and a fresh generation file + manifest) without consuming any draws.
  take_checkpoint();
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
  store_.save(snapshot());
  rstats_.checkpoints += 1;
  write_run_manifest(res_, rstats_, sites_.solver, nparts_, config_hash(), store_,
                     cancel_reason);
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
