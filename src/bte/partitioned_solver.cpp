#include "partitioned_solver.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <span>
#include <stdexcept>

#include "runtime/metrics.hpp"
#include "runtime/trace.hpp"

namespace finch::bte {

// ---- BspEngine -----------------------------------------------------------------

BspEngine::BspEngine(const BteScenario& scenario, std::shared_ptr<const BtePhysics> physics,
                     int nparts, Sites sites)
    : DistributedEngine(scenario, std::move(physics), sites), bsp_(nparts < 1 ? 1 : nparts) {}

void BspEngine::attach_defenses() {
  bsp_.set_fault_injector(res_.injector);
  bsp_.set_heartbeat(res_.heartbeat);
  if (res_.straggler.enabled) bsp_.set_straggler(res_.straggler);
}

int32_t BspEngine::hang_victim() {
  if (!res_.straggler.enabled || bsp_.hang_suspect() < 0) return -1;
  const int32_t victim = bsp_.hang_suspect();
  bsp_.clear_hang_suspect();
  rstats_.hang_escalations += 1;
  return victim;
}

double BspEngine::detect_loss(int32_t victim) {
  const double before = bsp_.phases().recovery;
  bsp_.evict_rank(victim);  // charges the heartbeat suspicion timeout
  return bsp_.phases().recovery - before;
}

double BspEngine::restore_moving(const rt::Snapshot& snap, Slot slot, int64_t bytes) {
  restore(snap);
  // A rollback reloads every rank's own state in place. Evictions and
  // rebalances scatter the image over the interconnect, so the cost model
  // charges it as a modeled transfer.
  if (slot == Slot::Recovery) return 0.0;
  const double before = bsp_.phases()[slot];
  if (slot == Slot::Redistribution)
    bsp_.charge_redistribution(bytes);
  else
    bsp_.charge_rebalance(bytes);
  return bsp_.phases()[slot] - before;
}

// Mirrors the BSP simulator's performance-fault telemetry into the stats
// block so benches read one struct.
void BspEngine::sync_fault_telemetry() {
  rstats_.slow_steps = bsp_.slow_steps();
  rstats_.jitter_events = bsp_.jitter_events();
  rstats_.hang_events = bsp_.hang_events();
  rstats_.hang_timeouts = bsp_.watchdog_timeouts();
  rstats_.speculation_seconds = bsp_.phases().speculation;
}

bool BspEngine::deliver(const char* site, const char* what) {
  for (int attempt = 0; res_.injector->should_fault(rt::FaultKind::DroppedMessage, site);
       ++attempt) {
    rstats_.faults_detected += 1;
    if (attempt >= res_.max_retries) {
      health_.transfer_ok = false;
      health_.detail = std::string(what) + " dropped after " + std::to_string(attempt) + " retries";
      return false;
    }
    const double delay = backoff_delay(res_, attempt);
    bsp_.charge_fault(delay);
    rstats_.recovery_seconds += delay;
    rstats_.retries += 1;
  }
  return true;
}

void BspEngine::arm_speculation_if_chronic() {
  if (!resilient_ || !res_.straggler.enabled || !res_.straggler.speculation) return;
  const int32_t victim = bsp_.straggler().chronic_straggler();
  if (victim < 0) return;
  const int32_t helper = bsp_.straggler().least_loaded(victim);
  if (helper < 0) return;
  bsp_.arm_speculation(victim, helper);
  rstats_.speculations += 1;
}

// ---- CellPartitionedSolver ---------------------------------------------------

CellPartitionedSolver::CellPartitionedSolver(const BteScenario& scenario,
                                             std::shared_ptr<const BtePhysics> physics, int nparts,
                                             mesh::PartitionMethod method)
    : BspEngine(scenario, std::move(physics), nparts,
                {"cell", rt::FaultKind::RankFailure, "cell-rank", "cell-mem"}),
      mesh_(mesh::Mesh::structured_quad(scenario.nx, scenario.ny, scenario.lx, scenario.ly)),
      method_(method) {
  if (nparts < 1) throw std::invalid_argument("CellPartitionedSolver: nparts >= 1");
  dofs_ = nd_ * nb_;
  build_topology(nparts);
}

// (Re)builds the rank layout for `nparts` parts: partition, halos, per-rank
// storage initialized at T_init, and the per-step communication volume.
void CellPartitionedSolver::build_topology(int nparts) {
  nparts_ = nparts;
  part_ = mesh::partition(mesh_, nparts, method_);
  ranks_.assign(static_cast<size_t>(nparts), Rank{});
  halo_messages_.clear();
  comm_.bytes_per_step = 0;
  comm_.messages_per_step = 0;
  const size_t dofs = static_cast<size_t>(dofs_), nb = static_cast<size_t>(nb_);

  for (int32_t p = 0; p < nparts; ++p) {
    Rank& r = ranks_[static_cast<size_t>(p)];
    r.global_to_local.assign(static_cast<size_t>(mesh_.num_cells()), -1);
    for (int32_t c = 0; c < mesh_.num_cells(); ++c)
      if (part_[static_cast<size_t>(c)] == p) {
        r.global_to_local[static_cast<size_t>(c)] = static_cast<int32_t>(r.owned.size());
        r.owned.push_back(c);
      }
    r.halo = mesh::build_halo(mesh_, part_, p);
    for (const auto& recv : r.halo.recvs)
      for (int32_t c : recv.cells) {
        r.global_to_local[static_cast<size_t>(c)] =
            static_cast<int32_t>(r.owned.size() + r.ghosts.size());
        r.ghosts.push_back(c);
      }
    const size_t nloc = r.owned.size() + r.ghosts.size();
    r.all_owned.resize(r.owned.size());
    std::iota(r.all_owned.begin(), r.all_owned.end(), size_t{0});
    r.I.resize(nloc * dofs);
    r.I_new.resize(r.owned.size() * dofs);
    r.Io.resize(r.owned.size() * nb);
    r.beta.resize(r.owned.size() * nb);
    r.T.assign(r.owned.size(), scen_.T_init);

    for (int b = 0; b < nb_; ++b) {
      const double i0 = phys_->table.I0(b, scen_.T_init);
      const double be = phys_->table.beta(b, scen_.T_init);
      for (size_t lc = 0; lc < nloc; ++lc)
        for (int d = 0; d < nd_; ++d) r.I[lc * dofs + static_cast<size_t>(d + nd_ * b)] = i0;
      for (size_t lc = 0; lc < r.owned.size(); ++lc) {
        r.Io[lc * nb + static_cast<size_t>(b)] = i0;
        r.beta[lc * nb + static_cast<size_t>(b)] = be;
      }
    }
  }
  // Per-step communication volume: every halo cell's full DOF vector.
  for (int32_t p = 0; p < nparts; ++p) {
    const Rank& r = ranks_[static_cast<size_t>(p)];
    comm_.bytes_per_step += static_cast<int64_t>(r.ghosts.size()) * dofs_ * 8;
    comm_.messages_per_step += static_cast<int64_t>(r.halo.recvs.size());
    for (const auto& recv : r.halo.recvs)
      halo_messages_.push_back({recv.peer, p, static_cast<int64_t>(recv.cells.size()) * dofs_ * 8});
  }
}

void CellPartitionedSolver::relayout_away(int32_t victim) {
  bsp_.retire_rank(victim);
  build_topology(nparts_ - 1);
}

void CellPartitionedSolver::exchange_halos() {
  // Pull model: each rank copies the owned values it needs from the peer
  // ranks (in a real MPI code this is the send/recv pair of the halo plan).
  rt::FaultInjector* fi = resilient_ ? res_.injector : nullptr;
  const size_t dofs = static_cast<size_t>(dofs_);
  const auto offset = [dofs](const Rank& rank, int32_t gc) {
    return static_cast<size_t>(rank.global_to_local[static_cast<size_t>(gc)]) * dofs;
  };
  for (Rank& r : ranks_) {
    for (const auto& recv : r.halo.recvs) {
      const Rank& peer = ranks_[static_cast<size_t>(recv.peer)];
      // A message lost for good leaves stale ghosts that would silently
      // poison the sweep; deliver() marks the step unhealthy, so run() rolls
      // back and replays.
      if (fi != nullptr && !deliver("halo", "halo message")) continue;
      const auto pull = [&] {
        for (int32_t gc : recv.cells)
          std::copy_n(&peer.I[offset(peer, gc)], dofs, &r.I[offset(r, gc)]);
      };
      pull();
      if (recv.cells.empty()) continue;
      // The ghost cells of one recv are contiguous local indices (appended
      // in recv order by build_topology), so the message is one span of r.I.
      const std::span<double> ghost(r.I.data() + offset(r, recv.cells[0]),
                                    recv.cells.size() * dofs);
      if (resilient_ && res_.sdc.enabled) {
        // ABFT sidecar: the wire seals the payload before it can flip; the
        // receiver verifies on receipt.
        const auto t0 = rt::Clock::now();
        const rt::BlockChecksum sidecar = bsp_.transmit(ghost, "halo");
        if (!rt::block_checksum(ghost).matches(sidecar)) {
          note_sdc_detection();
          // Localized repair: re-pull just this message from the peer's
          // (intact) owned values, priced as one extra message.
          charge_recovery(bsp_.comm_model().per_message(static_cast<int64_t>(ghost.size()) * 8));
          pull();
          // A repair that fails too (the retransmission is hit as well)
          // exhausts the localized path: fall back to rollback + replay.
          bsp_.transmit(ghost, "halo-repair");
          if (rt::block_checksum(ghost).matches(sidecar)) {
            rstats_.block_repairs += 1;
          } else {
            rstats_.repair_failures += 1;
            health_.sdc_ok = false;
            health_.detail = "halo message checksum failed twice; falling back to rollback";
          }
        }
        charge_audit(rt::seconds_since(t0));
      }
      // In-flight corruption of this message's payload lands in the ghost
      // region, where the next sweep drags it into owned state; the per-step
      // NaN/Inf validation catches it and triggers rollback + replay.
      if (fi != nullptr && fi->should_fault(rt::FaultKind::TransferCorruption, "halo"))
        fi->corrupt(ghost.first(dofs), "halo");
    }
  }
  comm_.total_bytes += comm_.bytes_per_step;
  bsp_.exchange(halo_messages_);
}

void CellPartitionedSolver::sweep(Rank& r, const std::vector<size_t>& cells,
                                  std::vector<double>& out) {
  const size_t dofs = static_cast<size_t>(dofs_), nb = static_cast<size_t>(nb_);
  const int nx = upwind_.nx();
  for (int b = 0; b < nb_; ++b) {
    const auto at = [&](int32_t gc, int d) {
      return r.I[static_cast<size_t>(r.global_to_local[static_cast<size_t>(gc)]) * dofs +
                 static_cast<size_t>(d + nd_ * b)];
    };
    for (int d = 0; d < nd_; ++d) {
      const Upwind::Ray ray = upwind_.ray(b, d);
      const size_t dof = static_cast<size_t>(d + nd_ * b);
      for (size_t lo : cells) {
        const int32_t c = r.owned[lo];
        const size_t cb = lo * nb + static_cast<size_t>(b);
        out[lo * dofs + dof] =
            upwind_(ray, c, c % nx, c / nx, r.I[lo * dofs + dof], r.Io[cb], r.beta[cb], at);
      }
    }
  }
}

void CellPartitionedSolver::temperature_rank(Rank& r) {
  phys_->table.update_temperature(phys_->directions, r.owned.size(), r.I.data(),
                                  {static_cast<size_t>(dofs_), 1}, r.T.data(), r.Io.data(),
                                  r.beta.data(), {static_cast<size_t>(nb_), 1});
}

void CellPartitionedSolver::step() {
  // Wall-clock span (pid 0); the virtual-time phase spans (pid 1) are emitted
  // by bsp_ as each superstep is charged.
  rt::SpanAttrs attrs;
  attrs.step = step_index_;
  rt::TraceSpan step_span("cell.step", attrs);
  exchange_halos();
  std::vector<double> rank_seconds(static_cast<size_t>(nparts_));
  {
    rt::TraceSpan sweep_span("cell.sweep", attrs);
    for (size_t p = 0; p < ranks_.size(); ++p) {
      const auto t0 = rt::Clock::now();
      sweep(ranks_[p], ranks_[p].all_owned, ranks_[p].I_new);
      rank_seconds[p] = rt::seconds_since(t0);
    }
  }
  arm_speculation_if_chronic();
  bsp_.compute_step(rank_seconds, rt::BspSimulator::Phase::Compute);
  if (resilient_ && res_.sdc.enabled) audit_sentinels();
  // Commit owned values; ghosts refresh at the next exchange.
  for (Rank& r : ranks_) std::copy(r.I_new.begin(), r.I_new.end(), r.I.begin());
  {
    rt::TraceSpan temp_span("cell.temperature", attrs);
    for (size_t p = 0; p < ranks_.size(); ++p) {
      const auto t0 = rt::Clock::now();
      temperature_rank(ranks_[p]);
      rank_seconds[p] = rt::seconds_since(t0);
    }
  }
  bsp_.compute_step(rank_seconds, rt::BspSimulator::Phase::PostProcess);
}

// Redundant recomputation of a few spread-out cells: each sentinel's sweep
// result is recomputed from the same sources and compared bit-for-bit against
// I_new before the commit, catching corruption that lands in freshly computed
// state — an audit channel independent of the message checksums. The
// redundant recompute is itself the repair.
void CellPartitionedSolver::audit_sentinels() {
  const auto t0 = rt::Clock::now();
  const size_t dofs = static_cast<size_t>(dofs_);
  for (Rank& r : ranks_) {
    sentinel_subset_.clear();
    for (int32_t gc : sentinel_cells()) {
      const int32_t lo = r.global_to_local[static_cast<size_t>(gc)];
      if (lo >= 0 && static_cast<size_t>(lo) < r.owned.size())
        sentinel_subset_.push_back(static_cast<size_t>(lo));
    }
    if (sentinel_subset_.empty()) continue;
    sentinel_scratch_.resize(r.I_new.size());
    sweep(r, sentinel_subset_, sentinel_scratch_);
    for (size_t lo : sentinel_subset_) {
      rstats_.sentinel_checks += 1;
      const size_t off = lo * dofs;
      if (std::memcmp(sentinel_scratch_.data() + off, r.I_new.data() + off,
                      dofs * sizeof(double)) != 0) {
        note_sdc_detection();
        std::copy_n(sentinel_scratch_.data() + off, dofs, r.I_new.data() + off);
        rstats_.block_repairs += 1;
      }
    }
  }
  charge_audit(rt::seconds_since(t0));
}

double CellPartitionedSolver::field_energy() const {
  rt::KahanSum e;
  for (const Rank& r : ranks_)
    for (size_t i = 0; i < r.owned.size() * static_cast<size_t>(dofs_); ++i) e.add(r.I[i]);
  return e.sum;
}

void CellPartitionedSolver::scan_fields() {
  for (size_t p = 0; p < ranks_.size(); ++p) {
    require_finite(ranks_[p].I, static_cast<int>(p), "I");
    require_finite(ranks_[p].T, static_cast<int>(p), "T");
  }
}

void CellPartitionedSolver::gather_coefficients(std::vector<double>& Io,
                                                std::vector<double>& beta) const {
  const size_t nb = static_cast<size_t>(nb_);
  for (const Rank& r : ranks_)
    for (size_t lo = 0; lo < r.owned.size(); ++lo) {
      const size_t gc = static_cast<size_t>(r.owned[lo]);
      std::copy_n(&r.Io[lo * nb], nb, &Io[gc * nb]);
      std::copy_n(&r.beta[lo * nb], nb, &beta[gc * nb]);
    }
}

void CellPartitionedSolver::import_state(const rt::Snapshot& snap) {
  const auto& I = snap.field("I");
  const auto& T = snap.field("T");
  const auto& Io = snap.field("Io");
  const auto& beta = snap.field("beta");
  const size_t dofs = static_cast<size_t>(dofs_), nb = static_cast<size_t>(nb_);
  for (Rank& r : ranks_) {
    // Owned cells take state from the global image; ghosts take the owner's
    // values too (the first exchange of the next step would refresh them to
    // exactly these values anyway).
    const auto scatter_cell = [&](size_t lc, size_t gc) {
      std::copy_n(&I[gc * dofs], dofs, &r.I[lc * dofs]);
    };
    for (size_t lo = 0; lo < r.owned.size(); ++lo) {
      const size_t gc = static_cast<size_t>(r.owned[lo]);
      scatter_cell(lo, gc);
      r.T[lo] = T[gc];
      std::copy_n(&Io[gc * nb], nb, &r.Io[lo * nb]);
      std::copy_n(&beta[gc * nb], nb, &r.beta[lo * nb]);
    }
    for (size_t gi = 0; gi < r.ghosts.size(); ++gi)
      scatter_cell(r.owned.size() + gi, static_cast<size_t>(r.ghosts[gi]));
  }
}

std::vector<int32_t> CellPartitionedSolver::owner_counts() const {
  std::vector<int32_t> counts(static_cast<size_t>(mesh_.num_cells()), 0);
  for (const Rank& r : ranks_)
    for (int32_t c : r.owned) counts[static_cast<size_t>(c)] += 1;
  return counts;
}

std::vector<double> CellPartitionedSolver::gather_intensity() const {
  const size_t dofs = static_cast<size_t>(dofs_);
  std::vector<double> out(static_cast<size_t>(mesh_.num_cells()) * dofs);
  for (const Rank& r : ranks_)
    for (size_t lo = 0; lo < r.owned.size(); ++lo)
      std::copy_n(&r.I[lo * dofs], dofs, &out[static_cast<size_t>(r.owned[lo]) * dofs]);
  return out;
}

std::vector<double> CellPartitionedSolver::gather_temperature() const {
  std::vector<double> out(static_cast<size_t>(mesh_.num_cells()));
  for (const Rank& r : ranks_)
    for (size_t lo = 0; lo < r.owned.size(); ++lo) out[static_cast<size_t>(r.owned[lo])] = r.T[lo];
  return out;
}

// ---- BandPartitionedSolver -----------------------------------------------------

BandPartitionedSolver::BandPartitionedSolver(const BteScenario& scenario,
                                             std::shared_ptr<const BtePhysics> physics, int nparts)
    : BspEngine(scenario, std::move(physics), nparts,
                {"band", rt::FaultKind::RankFailure, "band-rank", "band-mem"}),
      layout_(scen_, phys_) {
  if (nparts < 1) throw std::invalid_argument("BandPartitionedSolver: nparts >= 1");
  if (nparts > nb_) throw std::invalid_argument("BandPartitionedSolver: more parts than bands");
  build_topology(nparts);
}

void BandPartitionedSolver::assign(const BandLayout::Ranges& ranges) {
  layout_.assign(ranges);
  wire_.assign(ranges.size(), Wire{});
  nparts_ = static_cast<int>(ranges.size());
  // Per step: each rank contributes its slice of the per-cell, per-band sums
  // (allgather over ranks) before the temperature solve.
  comm_.bytes_per_step = static_cast<int64_t>(ncell_) * nb_ * 8;
  comm_.messages_per_step = nparts_;
}

void BandPartitionedSolver::relayout_away(int32_t victim) {
  assign(BandLayout::derated(nb_, nparts_, victim, bsp_.straggler().slowdown(victim)));
}

void BandPartitionedSolver::gather_rank(size_t p) {
  // One rank's contribution to the allgather of per-cell band sums (the only
  // cross-rank coupling): pack the slice into a contiguous payload, then
  // scatter it into the gathered sums.
  const BandLayout::Slice& s = layout_.slices[p];
  Wire& w = wire_[p];
  const size_t n = static_cast<size_t>(ncell_) * static_cast<size_t>(s.bands());
  w.payload.resize(n);
  layout_.reduce(s, 0, n, w.payload.data());

  const bool sdc = resilient_ && res_.sdc.enabled;
  if (sdc) {
    // Checksum the contribution before it goes on the wire; blocks align to
    // whole cells (cell-major payload) so a bad block maps to a cell range.
    const auto t0 = rt::Clock::now();
    const size_t block = static_cast<size_t>(std::max(1, res_.sdc.block_cells)) *
                         static_cast<size_t>(s.bands());
    if (w.ledger.size() != n || w.ledger.block_size() != block)
      w.ledger = rt::BlockLedger(n, block);
    w.ledger.update(w.payload);
    charge_audit(rt::seconds_since(t0));
  }

  rt::FaultInjector* fi = resilient_ ? res_.injector : nullptr;
  if (fi != nullptr) {
    // An undelivered contribution leaves last step's (stale, finite) sums in
    // G — invisible to the NaN scan, hence deliver()'s explicit health flag.
    if (!deliver("gather", "gather contribution")) return;
    if (fi->should_fault(rt::FaultKind::TransferCorruption, "gather"))
      fi->corrupt(w.payload, "gather");
    if (sdc && fi->should_fault(rt::FaultKind::BitFlipReduction, "gather"))
      fi->flip_bit(w.payload, rt::FaultKind::BitFlipReduction, "gather");
  }

  if (sdc) {
    // Verify the in-flight contribution against the sender's ledger; a bad
    // block is re-reduced from the slice (the reduction's intact inputs)
    // instead of rolling the whole run back.
    const auto t0 = rt::Clock::now();
    for (size_t blk : w.ledger.verify(w.payload)) {
      note_sdc_detection();
      const auto range = w.ledger.range(blk);
      layout_.reduce(s, range.begin, range.end, w.payload.data());
      const std::span<double> repaired =
          std::span<double>(w.payload).subspan(range.begin, range.end - range.begin);
      if (fi != nullptr && fi->should_fault(rt::FaultKind::BitFlipReduction, "gather-repair"))
        fi->flip_bit(repaired, rt::FaultKind::BitFlipReduction, "gather-repair");
      if (rt::block_checksum(repaired).matches(w.ledger.checksum(blk))) {
        rstats_.block_repairs += 1;
      } else {
        rstats_.repair_failures += 1;
        health_.sdc_ok = false;
        health_.detail = "gather block " + std::to_string(blk) +
                         " checksum failed twice; falling back to rollback";
      }
    }
    charge_audit(rt::seconds_since(t0));
  }
  layout_.scatter_into_G(s, w.payload);
}

void BandPartitionedSolver::step() {
  // Wall-clock span (pid 0); the virtual-time phase spans (pid 1) are emitted
  // by bsp_ as each superstep is charged.
  rt::SpanAttrs attrs;
  attrs.step = step_index_;
  rt::TraceSpan step_span("band.step", attrs);
  std::vector<double> rank_seconds(static_cast<size_t>(nparts_));
  {
    rt::TraceSpan sweep_span("band.sweep", attrs);
    for (size_t p = 0; p < layout_.slices.size(); ++p) {
      const auto t0 = rt::Clock::now();
      BandLayout::Slice& s = layout_.slices[p];
      layout_.sweep(upwind_, s, s.I, s.I_new);
      s.I.swap(s.I_new);
      rank_seconds[p] = rt::seconds_since(t0);
    }
  }
  arm_speculation_if_chronic();
  bsp_.compute_step(rank_seconds, rt::BspSimulator::Phase::Compute);

  {
    rt::TraceSpan gather_span("band.gather", attrs);
    for (size_t p = 0; p < layout_.slices.size(); ++p) gather_rank(p);
  }
  comm_.total_bytes += comm_.bytes_per_step;
  bsp_.gather(comm_.bytes_per_step / (nparts_ > 0 ? nparts_ : 1));
  if (resilient_ && res_.sdc.enabled) audit_sentinels();

  // Every rank solves the (replicated) temperature and refreshes its own
  // bands' Io/beta — executed once here since the result is identical.
  rt::TraceSpan temp_span("band.temperature", attrs);
  const auto t0 = rt::Clock::now();
  layout_.update_temperature();
  bsp_.uniform_compute(rt::seconds_since(t0), rt::BspSimulator::Phase::PostProcess);
}

// Cross-rank redundancy on the gathered sums: a few spread-out cells' full G
// rows are re-reduced from every owner rank's intensities and compared
// bit-for-bit against G before the temperature solve — this audits the
// scatter as well as the wire, independently of the per-rank ledgers. The
// re-reduction is the repair.
void BandPartitionedSolver::audit_sentinels() {
  const auto t0 = rt::Clock::now();
  std::vector<double> g;
  for (int32_t c : sentinel_cells()) {
    rstats_.sentinel_checks += 1;
    for (const BandLayout::Slice& s : layout_.slices) {
      const size_t bl = static_cast<size_t>(s.bands());
      g.resize(bl);
      phys_->directions.band_sums(s.I.data() + static_cast<size_t>(c) * bl * static_cast<size_t>(nd_),
                                  1, bl, g.data());
      for (int b = s.b_lo; b < s.b_hi; ++b) {
        const double gb = g[static_cast<size_t>(b - s.b_lo)];
        double& dst = layout_.G[static_cast<size_t>(c) * static_cast<size_t>(nb_) +
                                static_cast<size_t>(b)];
        if (std::memcmp(&gb, &dst, sizeof(double)) != 0) {
          note_sdc_detection();
          dst = gb;
          rstats_.block_repairs += 1;
        }
      }
    }
  }
  charge_audit(rt::seconds_since(t0));
}

void BandPartitionedSolver::scan_fields() {
  for (size_t p = 0; p < layout_.slices.size(); ++p)
    require_finite(layout_.slices[p].I, static_cast<int>(p), "I");
  // solve_temperature's bisection fallback returns a finite T even for NaN
  // band sums, so the gathered sums must be scanned directly.
  require_finite(layout_.G, -1, "G");
  require_finite(layout_.T, -1, "T");
}

int64_t BandPartitionedSolver::release_scratch() {
  int64_t freed = 0;
  for (Wire& w : wire_) freed += release(w.payload);
  return freed;
}

}  // namespace finch::bte
