#pragma once
// Executing distributed-memory solvers for the paper's two host partitioning
// strategies (§III.C, Fig. 3). Ranks are simulated in-process but own
// genuinely separate storage and move data only through explicit exchanges,
// so the communication pattern — and its volume — is real:
//
//  * CellPartitionedSolver — the mesh is split by the partitioner; every rank
//    owns its cells plus ghost copies of remote halo cells, refreshed by a
//    halo exchange each step ("communication between neighbors for all values
//    of I_db", Fig. 3 top).
//  * BandPartitionedSolver — every rank owns a contiguous band range on all
//    cells; the only cross-rank data motion is the gather of per-cell
//    band-directional sums before the temperature update ("the coupling of
//    the bands only occurs in the temperature update", §III.C).
//
// Both run on the shared DistributedEngine (run loop, recovery, checkpoints)
// with the BSP simulator as their clock, produce fields bit-identical to the
// serial DirectSolver — tested — and report the bytes they moved, which the
// perf models' figures price.

#include <cstdint>
#include <memory>
#include <vector>

#include "distributed_engine.hpp"
#include "mesh/partition.hpp"
#include "runtime/abft.hpp"
#include "runtime/simmpi.hpp"

namespace finch::bte {

struct CommVolume {
  int64_t bytes_per_step = 0;   // payload exchanged every step
  int64_t messages_per_step = 0;
  int64_t total_bytes = 0;      // accumulated over run()
};

// The engine on the BSP virtual clock: measured compute, modeled
// communication, heartbeat-timed evictions, the exchange watchdog's hang
// escalation, and speculation against a chronic straggler.
class BspEngine : public DistributedEngine {
 public:
  // Explicit deterministic performance fault: `rank` computes `factor`x
  // slower from now on (the SlowRank fault with a hand-placed victim). The
  // numerics are untouched — only the virtual clock feels it.
  void inject_slow_rank(int32_t rank, double factor) { bsp_.set_slow_rank(rank, factor); }
  const CommVolume& comm() const { return comm_; }

 protected:
  BspEngine(const BteScenario& scenario, std::shared_ptr<const BtePhysics> physics, int nparts,
            Sites sites);

  rt::PhaseLedger& ledger() override { return bsp_.ledger(); }
  const rt::PhaseLedger& ledger() const override { return bsp_.ledger(); }
  void charge(Slot slot, double seconds) override { bsp_.charge(slot, seconds); }
  void attach_defenses() override;
  rt::StragglerDetector& detector() override { return bsp_.straggler(); }
  int32_t hang_victim() override;
  double detect_loss(int32_t victim) override;
  double restore_moving(const rt::Snapshot& snap, Slot slot, int64_t bytes) override;
  void sync_fault_telemetry() override;

  // Consults the injector for dropped messages at `site`: each drop is
  // retransmitted after a bounded exponential backoff (charged as fault
  // stall). Returns false — and marks the step unhealthy with "<what>
  // dropped after N retries" — once the retry budget is spent.
  bool deliver(const char* site, const char* what);
  // Arms a one-shot speculative duplicate of the chronic straggler's shard
  // on the least-loaded survivor, just before the compute superstep.
  void arm_speculation_if_chronic();

  rt::BspSimulator bsp_;
  CommVolume comm_;
};

class CellPartitionedSolver : public BspEngine {
 public:
  CellPartitionedSolver(const BteScenario& scenario, std::shared_ptr<const BtePhysics> physics,
                        int nparts, mesh::PartitionMethod method = mesh::PartitionMethod::RCB);

  // Halo exchange (dropped messages retried, ABFT sidecars verified once
  // resilience is armed), sweep, sentinel audit, temperature update.
  void step() override;

  std::vector<double> gather_intensity() const override;
  std::vector<double> gather_temperature() const override;
  // Per-cell owner multiplicity.
  std::vector<int32_t> owner_counts() const override;

 private:
  struct Rank {
    std::vector<int32_t> owned;            // global cell ids
    std::vector<int32_t> ghosts;           // global cell ids of halo copies
    std::vector<int32_t> global_to_local;  // -1 if not present on this rank
    std::vector<double> I, I_new;          // [(owned+ghost) * dofs]
    std::vector<double> Io, beta;          // [owned * nbands]
    std::vector<double> T;                 // [owned]
    mesh::HaloPlan halo;
    std::vector<size_t> all_owned;         // 0..owned.size()-1 (sweep subset arg)
  };

  void build_topology(int nparts) override;
  // The cell partitioner has no weighted mode, so a chronic straggler is
  // drained: its whole shard moves to the survivors.
  void relayout_away(int32_t victim) override;
  void gather_coefficients(std::vector<double>& Io, std::vector<double>& beta) const override;
  void import_state(const rt::Snapshot& snap) override;
  double field_energy() const override;
  void scan_fields() override;
  int64_t release_scratch() override { return release(sentinel_scratch_); }

  void exchange_halos();
  // Sweep parameterized over the owned-cell subset and the output array:
  // per-cell results depend only on r.I/r.Io/r.beta, so recomputing any
  // subset (sentinel audit) reproduces the full sweep bit-identically.
  void sweep(Rank& r, const std::vector<size_t>& cells, std::vector<double>& out);
  void temperature_rank(Rank& r);
  void audit_sentinels();

  mesh::Mesh mesh_;
  mesh::PartitionMethod method_;
  std::vector<int32_t> part_;
  int dofs_;
  std::vector<Rank> ranks_;
  std::vector<rt::Message> halo_messages_;
  std::vector<double> sentinel_scratch_;  // recompute target ([owned * dofs])
  std::vector<size_t> sentinel_subset_;   // per-rank local indices, reused
};

class BandPartitionedSolver : public BspEngine {
 public:
  BandPartitionedSolver(const BteScenario& scenario, std::shared_ptr<const BtePhysics> physics,
                        int nparts);

  // Sweep, gather of the band sums (drops retried, ABFT-ledgered blocks
  // re-reduced once resilience is armed), sentinel audit, temperature.
  void step() override;

  std::vector<double> gather_intensity() const override { return layout_.gather_intensity(); }
  std::vector<double> gather_temperature() const override { return layout_.T; }
  const std::vector<double>& temperature() const { return layout_.T; }
  // Per-band owner multiplicity.
  std::vector<int32_t> owner_counts() const override { return layout_.owner_counts(); }

 private:
  // One rank's gather contribution: the payload a real MPI_Allgatherv would
  // put on the wire, and the ABFT ledger over it.
  struct Wire {
    rt::BlockLedger ledger;
    std::vector<double> payload;
  };

  void build_topology(int nparts) override { assign(BandLayout::equal(nb_, nparts)); }
  // Derate, not drain: the victim keeps a band share inversely proportional
  // to its observed slowdown and the survivors absorb the rest.
  void relayout_away(int32_t victim) override;
  void gather_coefficients(std::vector<double>& Io, std::vector<double>& beta) const override {
    layout_.gather_coefficients(Io, beta);
  }
  void import_state(const rt::Snapshot& snap) override { layout_.import_state(snap); }
  double field_energy() const override { return layout_.field_energy(); }
  void scan_fields() override;
  int64_t release_scratch() override;

  void assign(const BandLayout::Ranges& ranges);
  void gather_rank(size_t p);
  void audit_sentinels();

  BandLayout layout_;
  std::vector<Wire> wire_;
};

}  // namespace finch::bte
