#pragma once
// Simulated CUDA-like device.
//
// Substitution for the paper's NVIDIA A6000/A100 GPUs (none is available
// here). The device is real enough that kernels *execute*: launch bodies run
// on this thread, device buffers own storage, H2D/D2H copies move bytes, and
// streams order work and can overlap with host computation. A caller whose
// numerics read host storage — the DSL GPU target — prices its transfers
// with charge_copy instead of copying. What is modeled rather than measured
// is device *time*: a copy costs latency + bytes / PCIe bandwidth, and a
// kernel follows a roofline:
//
//   t_kernel = launch_overhead + max(flops / (peak * sm_util * issue_eff),
//                                    dram_bytes / mem_bandwidth)
//
// where sm_util captures wave quantization + divergence and issue_eff the
// FMA fraction of the instruction mix (peak assumes pure FMA issue). Hardware
// counters (SM utilization, achieved FLOP fraction, memory throughput
// fraction, transferred bytes) reproduce the profiling table in §III.D.

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault.hpp"
#include "memory.hpp"

namespace finch::rt {

struct GpuSpec {
  std::string name;
  double peak_dp_flops = 0;      // FP64 FMA peak
  double peak_sp_flops = 0;      // FP32 FMA peak
  double mem_bandwidth_Bps = 0;  // device DRAM
  double pcie_bandwidth_Bps = 0; // host<->device link
  double pcie_latency_s = 0;
  double launch_overhead_s = 0;
  int sm_count = 0;
  int max_threads_per_sm = 0;

  static GpuSpec a6000();
  static GpuSpec a100();
};

// Static kernel characteristics supplied by the code generator's analysis.
struct KernelStats {
  int64_t threads = 0;            // one per degree of freedom
  double flops_per_thread = 0;    // double-precision floating ops
  double dram_bytes_per_thread = 0;  // unique DRAM traffic after caching
  double fma_fraction = 0.5;      // fraction of flops issued as FMA
  double divergence = 0.0;        // warp-divergence waste, 0..1
  bool single_precision = false;
};

class SimGpu;

class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  // Buffers allocated under a MemoryBudget release their reservation on
  // destruction; ownership of the reservation moves with the buffer. Copies
  // duplicate the data but not the reservation (only SimGpu::allocate goes
  // through the budget's admission path).
  DeviceBuffer(const DeviceBuffer& o) : data_(o.data_) {}
  DeviceBuffer& operator=(const DeviceBuffer& o) {
    if (this != &o) {
      release_reservation();
      data_ = o.data_;
    }
    return *this;
  }
  DeviceBuffer(DeviceBuffer&& o) noexcept : data_(std::move(o.data_)), budget_(o.budget_) {
    o.data_.clear();
    o.budget_ = nullptr;
  }
  DeviceBuffer& operator=(DeviceBuffer&& o) noexcept {
    if (this != &o) {
      release_reservation();
      data_ = std::move(o.data_);
      budget_ = o.budget_;
      o.data_.clear();
      o.budget_ = nullptr;
    }
    return *this;
  }
  ~DeviceBuffer() { release_reservation(); }

  size_t size() const { return data_.size(); }
  // Raw device-side storage; only kernels (running "on the device") should
  // touch this directly.
  double* device_data() { return data_.data(); }
  const double* device_data() const { return data_.data(); }

 private:
  friend class SimGpu;
  explicit DeviceBuffer(size_t n) : data_(n) {}
  void release_reservation() {
    if (budget_ != nullptr) {
      budget_->release(static_cast<int64_t>(data_.size() * sizeof(double)));
      budget_ = nullptr;
    }
  }
  std::vector<double> data_;
  MemoryBudget* budget_ = nullptr;
};

struct GpuCounters {
  double kernel_seconds = 0;
  double copy_seconds = 0;
  int64_t bytes_h2d = 0;
  int64_t bytes_d2h = 0;
  double total_flops = 0;
  double total_dram_bytes = 0;
  int64_t kernel_launches = 0;
  // Aggregated utilization metrics over all launches (time-weighted).
  double sm_utilization = 0;      // 0..1
  double flop_fraction = 0;       // achieved / peak
  double mem_fraction = 0;        // achieved DRAM bw / peak
  // Injected-fault accounting: failed launches still pay their overhead and
  // corrupted transfers their full copy time; fault_seconds is that wasted
  // device time (a subset of kernel_seconds + copy_seconds).
  int64_t launch_failures = 0;
  int64_t transfer_corruptions = 0;
  double fault_seconds = 0;
  // Silent bit flips injected into device-resident storage (no time cost —
  // silent corruption is free for the hardware, expensive for the answer).
  int64_t silent_flips = 0;
  // Performance-fault accounting: JitterKernel fires and the extra kernel
  // seconds slow/jitter factors added on top of the modeled time (a subset of
  // kernel_seconds — the work is correct, just late).
  int64_t jitter_events = 0;
  double straggler_seconds = 0;
  // Resource-fault accounting: first-attempt allocation failures ridden out
  // through the relief chain, and external memory-pressure episodes absorbed.
  int64_t alloc_failures = 0;
  int64_t pressure_events = 0;
};

class SimGpu {
 public:
  explicit SimGpu(GpuSpec spec) : spec_(std::move(spec)) {}

  const GpuSpec& spec() const { return spec_; }

  // Optional fault injection: launches may throw TransientFault and copies may
  // corrupt their destination, per the injector's policies. Null disables.
  void set_fault_injector(FaultInjector* injector) { faults_ = injector; }
  FaultInjector* fault_injector() const { return faults_; }

  // Optional memory accounting: with a budget attached, allocations reserve
  // against it, resource faults (AllocFailure / MemoryPressure) consult the
  // injector here, and graceful degradation (the budget's relief chain) runs
  // before the fatal path — only a reservation that still does not fit after
  // every relief throws TransientFault(AllocFailure). Null disables.
  void set_memory_budget(MemoryBudget* budget) { budget_ = budget; }
  MemoryBudget* memory_budget() const { return budget_; }

  DeviceBuffer allocate(size_t doubles, std::string_view site = "alloc");

  // Streams are small integer handles; stream 0 always exists.
  int create_stream();

  // Prices a copy of `bytes` on `stream` without moving data: the one
  // transfer-time model (latency + bytes / PCIe bandwidth), charged to the
  // stream clock, the copy counters, the gpu.* metrics and the trace.
  // Returns the modeled seconds.
  enum class Copy { H2D, D2H };
  double charge_copy(Copy dir, int64_t bytes, int stream = 0);

  // Copies execute immediately (host blocks briefly in real CUDA too for
  // pageable memory), then are priced by charge_copy.
  void memcpy_h2d(DeviceBuffer& dst, std::span<const double> src, int stream = 0);
  void memcpy_d2h(std::span<double> dst, const DeviceBuffer& src, int stream = 0);

  // Consults the injector for a *silent* BitFlipDeviceArray fault and, when
  // one fires, flips a single mantissa bit of one element of `buf` in place.
  // No exception, no time charge, no NaN — exactly the ECC-escape failure
  // mode only an ABFT checksum can catch. Returns true iff a flip landed.
  bool decay(DeviceBuffer& buf, std::string_view site);

  // Launches `body` (the real computation over device buffers) and charges
  // the modeled kernel time to the stream.
  void launch(const std::string& kernel_name, const KernelStats& stats,
              const std::function<void()>& body, int stream = 0);

  // Blocks conceptually until all streams complete; returns device time.
  double synchronize();

  // Virtual timestamp of one stream (for overlap analysis).
  double stream_clock(int stream) const;

  const GpuCounters& counters() const { return counters_; }
  // Per-kernel cumulative seconds, keyed by kernel name.
  const std::map<std::string, double>& kernel_times() const { return kernel_times_; }

  // Models the utilization terms for a launch (exposed for tests/benches).
  double model_sm_utilization(const KernelStats& s) const;
  double model_kernel_seconds(const KernelStats& s) const;

  // Explicit deterministic injection of a persistent SlowRank fault on this
  // device: every subsequent launch's modeled time is multiplied by `factor`
  // (thermal throttling, a flaky VRM). A SlowRank fault fired by the injector
  // at the "launch" site sets the same state.
  void set_slow(double factor);
  bool is_slow() const { return slow_factor_ > 1.0; }
  double slow_factor() const { return slow_factor_; }

  // ---- observability (see OBSERVABILITY.md) --------------------------------
  //
  // When the global rt::Tracer is enabled, every launch and copy is emitted
  // as a complete event on virtual-timeline track `track + stream` (pid 1),
  // timestamped by the stream clock; `label` names track `track + 0`.
  // Launches/copies always feed the gpu.* metrics (launches, kernel/copy
  // seconds, bytes moved, failures, silent flips).
  void set_trace_track(int32_t track, const std::string& label = "");
  int32_t trace_track() const { return trace_track_; }

 private:
  // Mirrors `seconds` of stream-clock advance ending now on `stream` to the
  // tracer as a complete event named `name`.
  void trace_stream(const char* name, int stream, double seconds);
  GpuSpec spec_;
  FaultInjector* faults_ = nullptr;
  MemoryBudget* budget_ = nullptr;
  GpuCounters counters_;
  std::map<std::string, double> kernel_times_;
  std::vector<double> stream_clocks_{0.0};
  double weighted_sm_ = 0, weighted_flopfrac_ = 0, weighted_memfrac_ = 0;
  double slow_factor_ = 1.0;
  int32_t trace_track_ = 200;  // virtual-timeline track base for this device
};

}  // namespace finch::rt
