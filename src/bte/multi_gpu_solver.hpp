#pragma once
// Executing multi-GPU hybrid solver — the configuration of Figs. 6-8:
// band-partitioned across devices ("each process is paired with one device.
// Partitioning between these is the same as the band-parallel strategy"),
// interior bulk on the (simulated) GPU, boundary cells and the temperature
// update on the CPU, per-step transfers following the movement plan.
//
// It runs on the shared DistributedEngine with the band layout of the
// band-partitioned solver; what the simulated devices add is their own clock
// and fault sites: per-device kernel launches, H2D/D2H byte counters and
// roofline-modeled times charged to an "mgpu" rt::PhaseLedger (spans and
// mgpu.phase.* counters carry the PhaseTimes names). Numerics are
// bit-identical to the serial DirectSolver (tested).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "distributed_engine.hpp"
#include "runtime/abft.hpp"
#include "runtime/simgpu.hpp"

namespace finch::bte {

class MultiGpuSolver : public DistributedEngine {
 public:
  MultiGpuSolver(const BteScenario& scenario, std::shared_ptr<const BtePhysics> physics,
                 int num_devices, rt::GpuSpec spec = rt::GpuSpec::a6000());

  // Interior kernel per device, boundary cells on the CPU, the host<->device
  // round trip (checksummed, or ABFT-ledgered with localized block repair
  // once resilience is armed), then the replicated temperature update.
  void step() override;

  // Explicit deterministic performance fault: every launch on `device` models
  // `factor`x slower from now on (SlowRank with a hand-placed victim). The
  // kernel's computed result is untouched.
  void inject_slow_device(int32_t device, double factor);

  const rt::SimGpu& device(int i) const { return *devices_[static_cast<size_t>(i)]; }
  const std::vector<double>& temperature() const { return layout_.T; }
  std::vector<double> gather_intensity() const override { return layout_.gather_intensity(); }
  std::vector<double> gather_temperature() const override { return layout_.T; }
  // Per-band owner multiplicity.
  std::vector<int32_t> owner_counts() const override { return layout_.owner_counts(); }

 private:
  struct Mirror {
    rt::DeviceBuffer dev_I;    // device mirror of the band slice
    rt::DeviceBuffer dev_Iob;  // device mirror of Io+beta
    // ABFT block ledger over the slice's I (blocks = cell ranges x its
    // bands). After step()'s swap the slice's I_new holds the previous
    // step's intensities — the shadow state the localized repair recomputes
    // from.
    rt::BlockLedger ledger;
  };

  // ---- engine hooks: the device clock ----
  rt::PhaseLedger& ledger() override { return ledger_; }
  const rt::PhaseLedger& ledger() const override { return ledger_; }
  void charge(Slot slot, double seconds) override { ledger_.charge(slot, seconds, step_index_); }
  void attach_defenses() override;
  rt::StragglerDetector& detector() override { return detector_; }
  double detect_loss(int32_t victim) override;
  // Bills the measured H2D re-upload of the restored state to `slot`.
  double restore_moving(const rt::Snapshot& snap, Slot slot, int64_t bytes) override;
  void sync_fault_telemetry() override;

  // ---- engine hooks: the band layout on devices ----
  // Recreates `num_devices` fresh devices with the equal split.
  void build_topology(int num_devices) override;
  // Derates the straggler on the *existing* devices: the slow hardware must
  // stay slow, it just owns fewer bands.
  void relayout_away(int32_t victim) override;
  void gather_coefficients(std::vector<double>& Io, std::vector<double>& beta) const override {
    layout_.gather_coefficients(Io, beta);
  }
  // Also refreshes every device mirror (the H2D re-upload restore_moving
  // bills).
  void import_state(const rt::Snapshot& snap) override;
  double field_energy() const override { return layout_.field_energy(); }
  void scan_fields() override;
  int64_t release_scratch() override;

  void assign(const BandLayout::Ranges& ranges);
  void upload_slice(size_t p);
  void upload_coefficients(size_t p);
  double copy_seconds_total() const;
  void rehome_device_mirrors();
  void launch_with_retry(rt::SimGpu& gpu, const std::string& name, const rt::KernelStats& ks,
                         const std::function<void()>& body);
  void roundtrip_with_guard(size_t p);
  void sdc_roundtrip(size_t p);
  bool repair_block(size_t p, size_t block);
  void audit_sentinels(size_t p);

  rt::GpuSpec spec_;
  BandLayout layout_;
  std::vector<Mirror> mirrors_;
  std::vector<std::unique_ptr<rt::SimGpu>> devices_;
  std::vector<int32_t> interior_cells_, boundary_cells_;
  std::vector<double> host_back_, iob_scratch_;
  rt::PhaseLedger ledger_{"mgpu", /*track=*/100};
  // Straggler defense: per-device modeled kernel times feed the detector;
  // dev_seconds_ (kernel or host boundary sweep, whichever is longer) is
  // the compute charge.
  rt::StragglerDetector detector_;
  std::vector<double> kernel_seconds_;
  std::vector<double> dev_seconds_;
  std::vector<int32_t> repair_cells_;     // scratch: cell list of one block
  std::vector<double> sentinel_scratch_;  // recompute target for sentinels
};

}  // namespace finch::bte
