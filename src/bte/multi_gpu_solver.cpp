#include "multi_gpu_solver.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <stdexcept>

#include "runtime/metrics.hpp"

namespace finch::bte {

MultiGpuSolver::MultiGpuSolver(const BteScenario& scenario, std::shared_ptr<const BtePhysics> physics,
                               int num_devices, rt::GpuSpec spec)
    : DistributedEngine(scenario, std::move(physics),
                        {"mgpu", rt::FaultKind::DeviceLoss, "gpu", "mgpu-mem"}),
      spec_(std::move(spec)),
      layout_(scen_, phys_) {
  if (num_devices < 1) throw std::invalid_argument("MultiGpuSolver: num_devices >= 1");
  if (num_devices > nb_) throw std::invalid_argument("MultiGpuSolver: more devices than bands");
  // Interior/boundary split as in Fig. 6.
  for (int j = 0; j < scen_.ny; ++j)
    for (int i = 0; i < scen_.nx; ++i) {
      const int32_t c = j * scen_.nx + i;
      if (i == 0 || i == scen_.nx - 1 || j == 0 || j == scen_.ny - 1)
        boundary_cells_.push_back(c);
      else
        interior_cells_.push_back(c);
    }
  build_topology(num_devices);
}

// Fresh SimGpu instances (armed when resilience is), then the equal split and
// the one-time upload of each band slice (the movement plan's upload_once).
// An eviction follows it with a checkpoint restore that overwrites the T_init
// state with the survivors' truth.
void MultiGpuSolver::build_topology(int num_devices) {
  devices_.clear();
  for (int p = 0; p < num_devices; ++p) {
    devices_.push_back(std::make_unique<rt::SimGpu>(spec_));
    if (resilient_) {
      devices_.back()->set_fault_injector(res_.injector);
      devices_.back()->set_memory_budget(res_.memory);
    }
  }
  assign(BandLayout::equal(nb_, num_devices));
  detector_.resize(num_devices);
}

void MultiGpuSolver::relayout_away(int32_t victim) {
  assign(BandLayout::derated(nb_, nparts_, victim, detector_.slowdown(victim)));
}

void MultiGpuSolver::assign(const BandLayout::Ranges& ranges) {
  layout_.assign(ranges);
  mirrors_.assign(ranges.size(), Mirror{});
  nparts_ = static_cast<int>(ranges.size());
  for (size_t p = 0; p < ranges.size(); ++p) upload_slice(p);
}

// (Re)allocates device p's mirrors and uploads its band slice.
void MultiGpuSolver::upload_slice(size_t p) {
  const BandLayout::Slice& s = layout_.slices[p];
  Mirror& m = mirrors_[p];
  rt::SimGpu& gpu = *devices_[p];
  m.dev_I = gpu.allocate(s.I.size());
  m.dev_Iob = gpu.allocate(s.Io.size() + s.beta.size());
  gpu.memcpy_h2d(m.dev_I, s.I);
}

void MultiGpuSolver::upload_coefficients(size_t p) {
  const BandLayout::Slice& s = layout_.slices[p];
  iob_scratch_.resize(s.Io.size() + s.beta.size());
  std::copy(s.Io.begin(), s.Io.end(), iob_scratch_.begin());
  std::copy(s.beta.begin(), s.beta.end(),
            iob_scratch_.begin() + static_cast<std::ptrdiff_t>(s.Io.size()));
  devices_[p]->memcpy_h2d(mirrors_[p].dev_Iob, iob_scratch_);
}

void MultiGpuSolver::step() {
  double comm = 0;
  dev_seconds_.assign(mirrors_.size(), 0.0);
  kernel_seconds_.assign(mirrors_.size(), 0.0);

  for (size_t p = 0; p < mirrors_.size(); ++p) {
    BandLayout::Slice& s = layout_.slices[p];
    rt::SimGpu& gpu = *devices_[p];
    const double dev_before = gpu.stream_clock(0);
    const double copy_before = gpu.counters().copy_seconds;

    // Interior kernel on the device (really executes on the band slice).
    rt::KernelStats ks;
    ks.threads = static_cast<int64_t>(interior_cells_.size()) * nd_ * s.bands();
    ks.flops_per_thread = 40;  // per-DOF update + 4-face upwind flux
    ks.fma_fraction = 0.3;
    ks.dram_bytes_per_thread = 18;
    ks.divergence = 0.05;
    launch_with_retry(gpu, "bte_interior", ks,
                      [&] { layout_.sweep(upwind_, s, interior_cells_, s.I, s.I_new); });
    const double kernel_seconds = gpu.stream_clock(0) - dev_before;

    // Boundary cells on the CPU (the user-callback side of Fig. 6).
    const auto t0 = rt::Clock::now();
    layout_.sweep(upwind_, s, boundary_cells_, s.I, s.I_new);
    const double cpu_boundary = rt::seconds_since(t0);

    s.I.swap(s.I_new);

    // Refresh the device mirror with the interior results (what the real
    // kernel would have produced in place), then D2H the band slice for the
    // CPU post-step — the movement plan's per-step download. With the SDC
    // defense armed, the round trip additionally maintains the ABFT block
    // ledger, adopts the (possibly silently decayed) device copy, and heals
    // any corrupted block before the temperature update can consume it.
    if (resilient_ && res_.sdc.enabled)
      sdc_roundtrip(p);
    else
      roundtrip_with_guard(p);
    comm = std::max(comm, gpu.counters().copy_seconds - copy_before);
    kernel_seconds_[p] = kernel_seconds;
    dev_seconds_[p] = std::max(kernel_seconds, cpu_boundary);
  }

  // Straggler defense: the detector sees each device's raw (pre-mitigation)
  // modeled kernel time. Mitigated numbers would mask the straggler and make
  // the chronic verdict flap, and the measured host boundary sweep would let
  // host load hide a slow device; the compute charge still takes the max.
  // Speculation then duplicates the chronic straggler's shard on the
  // least-loaded device: whichever copy finishes first wins (results are
  // bit-identical — both ran the same sweep), so the step closes at
  // min(victim, helper+shard). The helper's extra busy time is the
  // speculation charge.
  double spec_extra = 0.0;
  const bool strag = resilient_ && res_.straggler.enabled;
  if (strag) detector_.observe(kernel_seconds_);
  if (strag && res_.straggler.speculation && nparts_ > 1) {
    const int32_t victim = detector_.chronic_straggler();
    const int32_t helper = victim >= 0 ? detector_.least_loaded(victim) : -1;
    if (victim >= 0 && helper >= 0) {
      const size_t v = static_cast<size_t>(victim), h = static_cast<size_t>(helper);
      const double helper_total = dev_seconds_[h] + detector_.fleet_median();
      const double eff_victim = std::min(dev_seconds_[v], helper_total);
      const double helper_busy = std::min(helper_total, std::max(dev_seconds_[h], eff_victim));
      spec_extra = helper_busy - dev_seconds_[h];
      dev_seconds_[v] = eff_victim;
      dev_seconds_[h] = helper_busy;
      rstats_.speculations += 1;
    }
  }
  const double max_compute = *std::max_element(dev_seconds_.begin(), dev_seconds_.end());
  const double spec_charge = std::min(spec_extra, max_compute);
  // Stats mirror the *charged* (capped) speculation time, the same quantity
  // the phase breakdown carries, so resilience_stats().speculation_seconds
  // equals phases().speculation exactly.
  rstats_.speculation_seconds += spec_charge;
  charge(Slot::Compute, max_compute - spec_charge);
  charge(Slot::Speculation, spec_charge);
  charge(Slot::Communication, comm);

  // Gather band sums, temperature update on the CPU (replicated).
  const auto t0 = rt::Clock::now();
  for (const BandLayout::Slice& s : layout_.slices) layout_.reduce_into_G(s);
  layout_.update_temperature();
  charge(Slot::PostProcess, rt::seconds_since(t0));

  // H2D: refreshed Io/beta go back to each device — the movement plan's
  // per-step upload.
  double up = 0;
  for (size_t p = 0; p < mirrors_.size(); ++p) {
    const double before = devices_[p]->counters().copy_seconds;
    upload_coefficients(p);
    up = std::max(up, devices_[p]->counters().copy_seconds - before);
  }
  charge(Slot::Communication, up);
}

// ---- resilience --------------------------------------------------------------

void MultiGpuSolver::launch_with_retry(rt::SimGpu& gpu, const std::string& name,
                                       const rt::KernelStats& ks,
                                       const std::function<void()>& body) {
  for (int attempt = 0;; ++attempt) {
    try {
      gpu.launch(name, ks, body);
      return;
    } catch (const rt::TransientFault&) {
      rstats_.faults_detected += 1;
      if (!resilient_ || attempt >= res_.max_retries)
        throw;  // unrecoverable here; run() or the caller decides
      charge_recovery(backoff_delay(res_, attempt));
      rstats_.retries += 1;
    }
  }
}

void MultiGpuSolver::roundtrip_with_guard(size_t p) {
  std::vector<double>& I = layout_.slices[p].I;
  Mirror& m = mirrors_[p];
  rt::SimGpu& gpu = *devices_[p];
  host_back_.resize(I.size());
  const uint64_t want = resilient_ ? rt::checksum_doubles(I) : 0;
  for (int attempt = 0;; ++attempt) {
    gpu.memcpy_h2d(m.dev_I, I);
    gpu.memcpy_d2h(host_back_, m.dev_I);
    if (!resilient_) return;
    if (rt::checksum_doubles(host_back_) == want) return;
    // Corrupted transfer: the band slice on the device (or the downloaded
    // copy) does not match the host truth. Re-drive the round trip.
    rstats_.faults_detected += 1;
    if (attempt >= res_.max_retries) {
      health_.transfer_ok = false;
      health_.detail = "device " + std::to_string(p) + " round-trip checksum mismatch";
      return;  // validation fails; run() rolls back and replays this step
    }
    charge_recovery(backoff_delay(res_, attempt));
    rstats_.retries += 1;
  }
}

// ---- silent-data-corruption defense ------------------------------------------

// SDC variant of the per-step round trip. Sequence, per device:
//   1. refresh the ABFT block ledger from the swept host truth,
//   2. upload; let the device storage decay (possible injected silent flip),
//   3. download and *adopt* the device copy — the device is authoritative for
//      its band slice, so a flip there would otherwise reach the answer,
//   4. verify the adopted slice against the ledger; every mismatching block
//      is recomputed from the previous state (sub-range re-execution) rather
//      than rolling the whole run back,
//   5. run the redundant sentinel-cell audit (cross-checks even the blocks
//      whose checksums matched).
// Ledger upkeep + verification + sentinels are charged to the audit phase;
// block recomputes to recovery.
void MultiGpuSolver::sdc_roundtrip(size_t p) {
  std::vector<double>& I = layout_.slices[p].I;
  Mirror& m = mirrors_[p];
  rt::SimGpu& gpu = *devices_[p];
  const size_t stride = static_cast<size_t>(layout_.slices[p].bands()) * static_cast<size_t>(nd_);

  auto a0 = rt::Clock::now();
  if (m.ledger.size() != I.size()) {
    const size_t block = static_cast<size_t>(std::max(1, res_.sdc.block_cells)) * stride;
    m.ledger = rt::BlockLedger(I.size(), block);
  }
  m.ledger.update(I);
  double audit_s = rt::seconds_since(a0);

  const int64_t flips_before = gpu.counters().silent_flips;
  gpu.memcpy_h2d(m.dev_I, I);
  gpu.decay(m.dev_I, "dev_I");
  host_back_.resize(I.size());
  gpu.memcpy_d2h(host_back_, m.dev_I);
  std::copy(host_back_.begin(), host_back_.end(), I.begin());
  if (gpu.counters().silent_flips > flips_before && flip_step_ < 0) flip_step_ = step_index_;

  a0 = rt::Clock::now();
  const std::vector<size_t> bad = m.ledger.verify(I);
  audit_s += rt::seconds_since(a0);
  for (size_t blk : bad) {
    note_sdc_detection();
    const auto r0 = rt::Clock::now();
    const bool healed = repair_block(p, blk);
    charge_recovery(rt::seconds_since(r0));
    if (!healed) {
      health_.sdc_ok = false;
      health_.detail = "device " + std::to_string(p) + " block " + std::to_string(blk) +
                       " failed twice; falling back to rollback";
    }
  }

  a0 = rt::Clock::now();
  audit_sentinels(p);
  audit_s += rt::seconds_since(a0);
  charge_audit(audit_s);
}

// Localized repair: recompute one block's step from the previous state (the
// shadow I_new holds after the swap) straight into the live array. The
// ledger's blocks align to whole cells, so the recompute is the exact
// computation the sweep performed originally — bit-identical by construction.
// Returns false when the block still mismatches afterwards (the "same block
// failed twice" case the caller escalates to checkpoint rollback).
bool MultiGpuSolver::repair_block(size_t p, size_t block) {
  BandLayout::Slice& s = layout_.slices[p];
  const Mirror& m = mirrors_[p];
  const size_t stride = static_cast<size_t>(s.bands()) * static_cast<size_t>(nd_);
  const rt::BlockLedger::Range range = m.ledger.range(block);
  repair_cells_.clear();
  for (size_t c = range.begin / stride; c * stride < range.end; ++c)
    repair_cells_.push_back(static_cast<int32_t>(c));
  layout_.sweep(upwind_, s, repair_cells_, s.I_new, s.I);
  const std::span<double> repaired =
      std::span<double>(s.I).subspan(range.begin, range.end - range.begin);
  // A repair hit by its own silent fault (site "repair") models the same
  // block failing twice — the localized path gives up and the run() loop
  // falls back to checkpoint rollback.
  if (res_.injector != nullptr &&
      res_.injector->should_fault(rt::FaultKind::BitFlipDeviceArray, "repair"))
    res_.injector->flip_bit(repaired, rt::FaultKind::BitFlipDeviceArray, "repair");
  if (!rt::block_checksum(repaired).matches(m.ledger.checksum(block))) {
    rstats_.repair_failures += 1;
    return false;
  }
  rstats_.block_repairs += 1;
  return true;
}

// Redundant sentinel cells: a deterministic handful of cells recomputed from
// the previous state and compared bit-exactly against the live array. This is
// the cross-rank redundancy audit of the design (in a real MPI deployment the
// sentinels of neighbouring ranks ride the halo messages): it catches
// corruption even on paths the checksums do not cover, bounding detection
// latency to one step.
void MultiGpuSolver::audit_sentinels(size_t p) {
  if (res_.sdc.sentinel_cells <= 0) return;
  const BandLayout::Slice& s = layout_.slices[p];
  const size_t stride = static_cast<size_t>(s.bands()) * static_cast<size_t>(nd_);
  const std::vector<int32_t>& cells = sentinel_cells();
  sentinel_scratch_.resize(s.I.size());
  layout_.sweep(upwind_, s, cells, s.I_new, sentinel_scratch_);
  for (int32_t c : cells) {
    rstats_.sentinel_checks += 1;
    const size_t off = static_cast<size_t>(c) * stride;
    if (std::memcmp(&s.I[off], &sentinel_scratch_[off], stride * sizeof(double)) == 0) continue;
    note_sdc_detection();
    const auto r0 = rt::Clock::now();
    const bool healed = repair_block(p, mirrors_[p].ledger.block_of(off));
    charge_recovery(rt::seconds_since(r0));
    if (!healed) {
      health_.sdc_ok = false;
      health_.detail = "device " + std::to_string(p) + " sentinel cell " + std::to_string(c) +
                       " repair failed";
    }
  }
}

void MultiGpuSolver::scan_fields() {
  for (size_t p = 0; p < layout_.slices.size(); ++p)
    require_finite(layout_.slices[p].I, static_cast<int>(p), "I");
  require_finite(layout_.T, -1, "T");
}

// Only rebuildable state is freed: the host staging buffers are resized
// before every transfer that uses them.
int64_t MultiGpuSolver::release_scratch() {
  return release(host_back_) + release(iob_scratch_) + release(sentinel_scratch_);
}

void MultiGpuSolver::import_state(const rt::Snapshot& snap) {
  layout_.import_state(snap);
  // Device mirrors must match the restored host truth before replay.
  for (size_t p = 0; p < mirrors_.size(); ++p) {
    devices_[p]->memcpy_h2d(mirrors_[p].dev_I, layout_.slices[p].I);
    upload_coefficients(p);
  }
}

double MultiGpuSolver::copy_seconds_total() const {
  double s = 0;
  for (const auto& dev : devices_) s += dev->counters().copy_seconds;
  return s;
}

double MultiGpuSolver::restore_moving(const rt::Snapshot& snap, Slot slot, int64_t) {
  const double copy_before = copy_seconds_total();
  restore(snap);
  const double spent = copy_seconds_total() - copy_before;
  charge(slot, spent);
  return spent;
}

double MultiGpuSolver::detect_loss(int32_t) {
  // Survivors notice the loss a suspicion timeout after it happens.
  const double timeout = res_.heartbeat.suspicion_timeout();
  charge(Slot::Recovery, timeout);
  return timeout;
}

void MultiGpuSolver::inject_slow_device(int32_t device, double factor) {
  if (device < 0 || device >= nparts_)
    throw std::invalid_argument("inject_slow_device: device out of range");
  devices_[static_cast<size_t>(device)]->set_slow(factor);
}

void MultiGpuSolver::attach_defenses() {
  for (auto& dev : devices_) {
    dev->set_fault_injector(res_.injector);
    dev->set_memory_budget(res_.memory);
  }
  if (res_.straggler.enabled) detector_ = rt::StragglerDetector(nparts_, res_.straggler);
  rehome_device_mirrors();
}

// The constructor allocated the device mirrors before a budget was attached,
// so they are invisible to it. Re-allocate + re-upload them through the
// now-budgeted devices: every mirror byte is then reserved against the budget
// (and released with the buffer), which is what makes MemoryPressure spikes
// and the relief-chain math operate on real occupancy instead of zero. Later
// reallocations (eviction rebuilds, rebalance layouts) are charged as a
// matter of course since the devices keep the budget pointer.
void MultiGpuSolver::rehome_device_mirrors() {
  if (res_.memory == nullptr) return;
  for (size_t p = 0; p < mirrors_.size(); ++p) upload_slice(p);
}

// Mirrors the per-device performance-fault counters into the run stats.
// Evictions recreate devices, so this is a floor, not an exact total.
void MultiGpuSolver::sync_fault_telemetry() {
  int64_t jitter = 0;
  int64_t slow = 0;
  for (const auto& dev : devices_) {
    jitter += dev->counters().jitter_events;
    if (dev->is_slow()) slow += 1;
  }
  rstats_.jitter_events = jitter;
  rstats_.slow_steps = std::max(rstats_.slow_steps, slow);
}

}  // namespace finch::bte
