#pragma once
// One distributed engine for the paper's executing partitionings (§III.C):
// cells with a halo exchange, bands with a gather, and bands on (simulated)
// GPUs with the Fig. 6 interior/boundary split. The paper's claim is that one
// description runs under every partitioning; here that is one engine.
// DistributedEngine owns, once, everything the strategies share:
//
//  * the resilient run() loop — cancel drain, resource faults, hang
//    escalation, permanent-fault victims, straggler rebalance, then
//    validate and checkpoint or roll back (the state machine documented in
//    resilience.hpp);
//  * enable_resilience / resume_from, eviction and rebalance orchestration,
//    checkpoints, and durable generations carrying their run manifest and
//    config hash;
//  * memory reliefs, SDC detection bookkeeping and stats publication;
//  * the upwind update (Upwind), and the band layout (BandLayout) the band
//    and multi-GPU strategies share.
//
// A strategy supplies only what differs: its step(), its storage layout and
// how it moves, its field scans, and its clock — the BSP simulator for the
// host strategies (BspEngine, partitioned_solver.hpp) or the device clock of
// MultiGpuSolver. Either way every virtual second lands in one
// rt::PhaseLedger, so all three report the same PhaseTimes vocabulary.

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bte_problem.hpp"
#include "resilience.hpp"
#include "runtime/simmpi.hpp"

namespace finch::bte {

// The explicit first-order upwind update of one (cell, direction, band) DOF
// on the structured 2-D mesh: specular x walls, the cold south wall and the
// hot-spot north wall. This is the one copy the distributed strategies run;
// it is arithmetically identical to DirectSolver's independent reference, so
// every partitioning reproduces it bit for bit.
class Upwind {
 public:
  Upwind(const BteScenario& scen, const BtePhysics& phys);

  // The constants of one (band, direction) pair, hoisted out of cell loops:
  // the group velocity and the face flux coefficients dt/h * (+-v).
  struct Ray {
    int b, d, rx;  // band, direction, its x-reflection
    double vx, vy, dt;
    double cw, ce, cs, cn;  // ax * -vx, ax * vx, ay * -vy, ay * vy
  };
  Ray ray(int b, int d) const {
    const double vg = phys_->bands[b].vg;
    const auto& dir = phys_->directions;
    const double vx = vg * dir.s[static_cast<size_t>(d)].x;
    const double vy = vg * dir.s[static_cast<size_t>(d)].y;
    return {b, d, dir.reflect_x[static_cast<size_t>(d)], vx, vy, dt_, ax_ * (-vx), ax_ * vx,
            ay_ * (-vy), ay_ * vy};
  }

  // Updated intensity of cell c = j * nx + i along `ray`, given its current
  // intensity Ic and equilibrium coefficients; `at(cell, dir)` reads a
  // neighbour's source intensity in the ray's band.
  template <typename At>
  double operator()(const Ray& r, int32_t c, int i, int j, double Ic, double Io, double beta,
                    At&& at) const {
    double val = Ic + r.dt * (Io - Ic) * beta;
    double Iw;
    if (i > 0)
      Iw = -r.vx > 0 ? Ic : at(c - 1, r.d);
    else
      Iw = -r.vx > 0 ? Ic : at(c, r.rx);
    val -= r.cw * Iw;
    double Ie;
    if (i < nx_ - 1)
      Ie = r.vx > 0 ? Ic : at(c + 1, r.d);
    else
      Ie = r.vx > 0 ? Ic : at(c, r.rx);
    val -= r.ce * Ie;
    double Is;
    if (j > 0)
      Is = -r.vy > 0 ? Ic : at(c - nx_, r.d);
    else
      Is = -r.vy > 0 ? Ic : phys_->table.I0(r.b, T_cold_);
    val -= r.cs * Is;
    double In;
    if (j < ny_ - 1)
      In = r.vy > 0 ? Ic : at(c + nx_, r.d);
    else
      In = r.vy > 0 ? Ic : phys_->table.I0(r.b, wall_temperature((i + 0.5) * hx_));
    val -= r.cn * In;
    return val;
  }

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  // Hot-wall temperature at position x along the north wall.
  double wall_temperature(double x) const;

 private:
  const BtePhysics* phys_;
  int nx_, ny_;
  double dt_, hx_, ax_, ay_;
  double T_cold_, T_hot_, hot_w_, hot_xc_;
};

// Contiguous band ownership shared by the band-partitioned and multi-GPU
// strategies: rank p owns bands [b_lo, b_hi) on every cell, with its
// intensities cell-major, and the temperature is replicated.
class BandLayout {
 public:
  struct Slice {
    int b_lo = 0, b_hi = 0;        // owned band range [b_lo, b_hi)
    std::vector<double> I, I_new;  // [cells * bands * nd]
    std::vector<double> Io, beta;  // [cells * bands]
    int bands() const { return b_hi - b_lo; }
  };
  using Ranges = std::vector<std::pair<int, int>>;
  // The equal contiguous split of nb bands over n ranks.
  static Ranges equal(int nb, int n);
  // A weighted split: `victim` keeps a share inversely proportional to its
  // observed `slowdown`, everyone else weight 1.
  static Ranges derated(int nb, int n, int32_t victim, double slowdown);

  BandLayout(const BteScenario& scen, std::shared_ptr<const BtePhysics> phys);

  // Rebuilds per-rank storage for `ranges`, initialized at T_init.
  void assign(const Ranges& ranges);
  // Upwind sweep of slice s, reading `src` and writing `out` (both
  // slice-shaped), over every cell or over `cells` only: per-cell results
  // depend only on src, Io and beta, so any subset recomputes bit-identically.
  void sweep(const Upwind& up, const Slice& s, const std::vector<double>& src,
             std::vector<double>& out) const;
  void sweep(const Upwind& up, const Slice& s, std::span<const int32_t> cells,
             const std::vector<double>& src, std::vector<double>& out) const;
  // Angular sums of slice entries [begin, end) (index = cell * bands + local
  // band) into out[begin, end).
  void reduce(const Slice& s, size_t begin, size_t end, double* out) const;
  // G's columns of slice s: reduced in place, or scattered from a payload
  // that reduce() produced.
  void reduce_into_G(const Slice& s);
  void scatter_into_G(const Slice& s, std::span<const double> payload);
  // Replicated temperature update: T from G, then every slice's Io/beta.
  void update_temperature();

  // Canonical global layout (see checkpoint.hpp).
  std::vector<double> gather_intensity() const;
  void gather_coefficients(std::vector<double>& Io, std::vector<double>& beta) const;
  void import_state(const rt::Snapshot& snap);
  // Per-band owner multiplicity.
  std::vector<int32_t> owner_counts() const;

  std::vector<Slice> slices;
  std::vector<double> T;  // replicated temperature [cells]
  std::vector<double> G;  // gathered band sums [cells * nb]

 private:
  std::shared_ptr<const BtePhysics> phys_;
  double T_init_;
  int ncell_, nd_, nb_;
};

class DistributedEngine {
 public:
  virtual ~DistributedEngine() = default;
  DistributedEngine(const DistributedEngine&) = delete;
  DistributedEngine& operator=(const DistributedEngine&) = delete;
  // Movable (callers return solvers by value), except once armed with a
  // ResilienceOptions::memory budget, whose relief callbacks capture `this`.
  DistributedEngine(DistributedEngine&&) = default;
  DistributedEngine& operator=(DistributedEngine&&) = default;

  // One timestep on every rank, without the run loop's bookkeeping.
  virtual void step() = 0;
  // Advances step_index() by `nsteps`. Resilient runs follow the recovery
  // state machine: a cancel drains at a step boundary, faults retry, roll
  // back or evict, and the final stats are published to the metrics
  // registry.
  void run(int nsteps);

  // Arms recovery with `options` and takes the first checkpoint: every step
  // of run() is then validated, and fault sites retry with bounded backoff.
  // A durable run keeps a step-0 checkpoint in memory only; later ones are
  // committed as generation files.
  void enable_resilience(const ResilienceOptions& options);
  bool resilient() const { return resilient_; }
  const ResilienceStats& resilience_stats() const { return rstats_; }
  const StepHealth& last_health() const { return health_; }
  int64_t step_index() const { return step_index_; }

  // Durable restart from `gen` (rt::find_latest_generation of the durable
  // dir `options` names): arms resilience, refuses a generation written by
  // another solver or configuration, restores its state and re-imports its
  // injector counter/event state. Nothing is committed; run() then continues
  // bit-exactly where the killed or drained process left off.
  void resume_from(const rt::Generation& gen, const ResilienceOptions& options);

  // Elastic shrink: kills `rank` (a device, for MultiGpuSolver) permanently.
  // The death is discovered at the next run() step boundary; the survivors
  // rebuild the layout over nparts()-1 ranks and restart from the last
  // topology-independent checkpoint. Requires enable_resilience. Injected
  // RankFailure / DeviceLoss faults drive the same path with a drawn victim.
  void kill_rank(int32_t rank);

  // Topology-independent snapshot in the canonical global layout ("I", "T",
  // "Io", "beta"): an image taken by any strategy at N ranks restores onto
  // any strategy at M ranks.
  rt::Snapshot snapshot() const;
  void restore(const rt::Snapshot& snap);
  // Owner multiplicity of each unit of the partition (cell or band); the
  // eviction invariant tests assert every entry is exactly 1.
  virtual std::vector<int32_t> owner_counts() const = 0;

  // The distributed fields, gathered to the canonical global ordering.
  virtual std::vector<double> gather_intensity() const = 0;
  virtual std::vector<double> gather_temperature() const = 0;

  int nparts() const { return nparts_; }
  // Virtual-time phase breakdown; equals virtual_elapsed() to FP round-off.
  const rt::PhaseTimes& phases() const { return ledger().phases(); }
  double virtual_elapsed() const { return ledger().elapsed(); }
  // Routes the virtual-time phase spans to Chrome-trace track `track` (see
  // OBSERVABILITY.md); `label` names it in the exported file.
  void set_trace_track(int32_t track, const std::string& label = "") {
    ledger().set_trace_track(track, label);
  }

 protected:
  using Slot = rt::PhaseSlot;
  using Clock = std::chrono::steady_clock;
  static double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

  // A strategy's identity in manifests and its step-boundary fault sites.
  struct Sites {
    const char* solver;       // manifest solver name
    rt::FaultKind loss;       // permanent-fault kind drawn at the boundary
    const char* loss_site;
    const char* memory_site;  // resource-fault site
  };
  DistributedEngine(const BteScenario& scenario, std::shared_ptr<const BtePhysics> physics,
                    Sites sites);

  // ---- the strategy's clock ------------------------------------------------
  virtual rt::PhaseLedger& ledger() = 0;
  virtual const rt::PhaseLedger& ledger() const = 0;
  virtual void charge(Slot slot, double seconds) = 0;
  // Hooks res_'s injector, heartbeat and straggler defense into the clock.
  virtual void attach_defenses() = 0;
  virtual rt::StragglerDetector& detector() = 0;
  // A rank an exchange watchdog escalated to a Dead verdict, or -1.
  virtual int32_t hang_victim() { return -1; }
  // Charges the detection latency of `victim`'s death (and forgets it);
  // returns the recovery seconds charged.
  virtual double detect_loss(int32_t victim) = 0;
  // Restores `snap` onto the current layout and bills its state motion
  // (`bytes` of it) to `slot`; returns the seconds billed.
  virtual double restore_moving(const rt::Snapshot& snap, Slot slot, int64_t bytes) = 0;
  // Mirrors the clock's performance-fault telemetry into rstats_.
  virtual void sync_fault_telemetry() = 0;

  // ---- the strategy's layout -----------------------------------------------
  // Equal layout over `nparts` ranks at T_init (sets nparts_).
  virtual void build_topology(int nparts) = 0;
  // Moves ownership away from the chronic straggler `victim`: the caller
  // restores the live state onto the new layout afterwards.
  virtual void relayout_away(int32_t victim) = 0;
  virtual void gather_coefficients(std::vector<double>& Io, std::vector<double>& beta) const = 0;
  // Scatters a size-checked canonical snapshot onto the current layout.
  virtual void import_state(const rt::Snapshot& snap) = 0;
  // The SDC energy invariant's current value; false when not available yet.
  virtual bool field_energy(double& energy) const = 0;
  // Finite-value scans of the distributed fields (see require_finite).
  virtual void scan_fields() = 0;
  // Frees rebuildable scratch for the memory relief chain; returns bytes.
  virtual int64_t release_scratch() = 0;

  // ---- shared helpers --------------------------------------------------------
  void charge_recovery(double seconds);
  void charge_audit(double seconds);
  void note_sdc_detection();
  // Deterministic spread-out cells the SDC sentinels recompute.
  const std::vector<int32_t>& sentinel_cells();
  // Marks the step unhealthy when `values` holds a NaN/Inf, naming
  // "[rank <rank> ]<field>[<index>]".
  void require_finite(std::span<const double> values, int rank, const char* field);
  static int64_t release(std::vector<double>& scratch);

  BteScenario scen_;
  std::shared_ptr<const BtePhysics> phys_;
  Upwind upwind_;
  int nd_, nb_, ncell_;
  int nparts_ = 0;

  bool resilient_ = false;
  ResilienceOptions res_;
  ResilienceStats rstats_;
  StepHealth health_;
  int64_t step_index_ = 0;
  int64_t flip_step_ = -1;  // step of the oldest undetected device flip

 private:
  void arm(const ResilienceOptions& options);
  void register_memory_reliefs();
  uint64_t config_hash() const;
  void take_checkpoint(const std::string& cancel_reason = "");
  void restore_checkpoint();
  void evict_and_redistribute(int32_t victim);
  void maybe_mitigate_stragglers();
  void validate();

  Sites sites_;
  ResilienceStats published_;  // last rstats_ mirrored into the metrics registry
  rt::CheckpointStore store_;
  int32_t pending_kill_ = -1;
  std::vector<int32_t> sentinel_cells_;
  double prev_energy_ = 0.0;
  bool have_prev_energy_ = false;
};

}  // namespace finch::bte
