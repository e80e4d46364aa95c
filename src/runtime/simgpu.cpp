#include "simgpu.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "metrics.hpp"
#include "trace.hpp"

namespace finch::rt {

DeviceBuffer SimGpu::allocate(size_t doubles, std::string_view site) {
  const int64_t bytes = static_cast<int64_t>(doubles * sizeof(double));
  if (faults_ != nullptr && faults_->should_fault(FaultKind::MemoryPressure, site)) {
    counters_.pressure_events += 1;
    MetricsRegistry::global().counter("gpu.pressure_events").add(1.0);
    // External pressure (a co-tenant, the OS) transiently halves the usable
    // budget; the next reservation rides it out through the relief chain.
    if (budget_ != nullptr) budget_->spike(0.5);
  }
  if (faults_ != nullptr && faults_->should_fault(FaultKind::AllocFailure, site)) {
    // The first cudaMalloc attempt fails. Graceful degradation: run the
    // relief chain, then retry — only a retry that still does not fit is
    // allowed to reach the fatal path below.
    counters_.alloc_failures += 1;
    MetricsRegistry::global().counter("gpu.alloc_failures").add(1.0);
    if (budget_ != nullptr) budget_->run_relief(bytes);
  }
  if (budget_ != nullptr && !budget_->try_reserve(bytes))
    throw TransientFault(FaultKind::AllocFailure, std::string(site));
  DeviceBuffer buf(doubles);
  if (budget_ != nullptr) buf.budget_ = budget_;
  return buf;
}

void SimGpu::set_trace_track(int32_t track, const std::string& label) {
  trace_track_ = track;
  if (!label.empty()) Tracer::global().set_track_name(1, track, label);
}

void SimGpu::trace_stream(const char* name, int stream, double seconds) {
  Tracer& tr = Tracer::global();
  if (!tr.enabled() || seconds <= 0.0) return;
  const double end = stream_clocks_.at(static_cast<size_t>(stream));
  tr.record_complete(name, std::llround((end - seconds) * 1e9),
                     std::llround(seconds * 1e9), trace_track_ + stream);
}

GpuSpec GpuSpec::a6000() {
  GpuSpec s;
  s.name = "NVIDIA RTX A6000 (simulated)";
  s.peak_sp_flops = 38.7e12;
  s.peak_dp_flops = s.peak_sp_flops / 32.0;  // GA102: FP64 = 1/32 FP32
  s.mem_bandwidth_Bps = 768e9;
  s.pcie_bandwidth_Bps = 25e9;  // PCIe 4.0 x16 with pinned buffers
  s.pcie_latency_s = 10e-6;
  s.launch_overhead_s = 5e-6;
  s.sm_count = 84;
  s.max_threads_per_sm = 1536;
  return s;
}

GpuSpec GpuSpec::a100() {
  GpuSpec s;
  s.name = "NVIDIA A100 (simulated)";
  s.peak_sp_flops = 19.5e12;
  s.peak_dp_flops = 9.7e12;
  s.mem_bandwidth_Bps = 1555e9;
  s.pcie_bandwidth_Bps = 12e9;
  s.pcie_latency_s = 10e-6;
  s.launch_overhead_s = 5e-6;
  s.sm_count = 108;
  s.max_threads_per_sm = 2048;
  return s;
}

int SimGpu::create_stream() {
  stream_clocks_.push_back(0.0);
  return static_cast<int>(stream_clocks_.size()) - 1;
}

double SimGpu::charge_copy(Copy dir, int64_t bytes, int stream) {
  const double t = spec_.pcie_latency_s + static_cast<double>(bytes) / spec_.pcie_bandwidth_Bps;
  stream_clocks_.at(static_cast<size_t>(stream)) += t;
  counters_.copy_seconds += t;
  const bool h2d = dir == Copy::H2D;
  (h2d ? counters_.bytes_h2d : counters_.bytes_d2h) += bytes;
  trace_stream(h2d ? "h2d" : "d2h", stream, t);
  auto& mx = MetricsRegistry::global();
  mx.counter(h2d ? "gpu.bytes_h2d" : "gpu.bytes_d2h").add(static_cast<double>(bytes));
  mx.counter("gpu.copy_seconds").add(t);
  return t;
}

void SimGpu::memcpy_h2d(DeviceBuffer& dst, std::span<const double> src, int stream) {
  if (src.size() > dst.size()) throw std::invalid_argument("memcpy_h2d: source larger than buffer");
  std::memcpy(dst.data_.data(), src.data(), src.size() * sizeof(double));
  const double t =
      charge_copy(Copy::H2D, static_cast<int64_t>(src.size() * sizeof(double)), stream);
  if (faults_ != nullptr && faults_->should_fault(FaultKind::TransferCorruption, "h2d")) {
    faults_->corrupt(std::span<double>(dst.data_.data(), src.size()), "h2d");
    counters_.transfer_corruptions += 1;
    counters_.fault_seconds += t;  // the whole transfer must be redone
  }
}

void SimGpu::memcpy_d2h(std::span<double> dst, const DeviceBuffer& src, int stream) {
  if (dst.size() > src.size()) throw std::invalid_argument("memcpy_d2h: destination larger than buffer");
  std::memcpy(dst.data(), src.data_.data(), dst.size() * sizeof(double));
  const double t =
      charge_copy(Copy::D2H, static_cast<int64_t>(dst.size() * sizeof(double)), stream);
  if (faults_ != nullptr && faults_->should_fault(FaultKind::TransferCorruption, "d2h")) {
    faults_->corrupt(dst, "d2h");
    counters_.transfer_corruptions += 1;
    counters_.fault_seconds += t;
  }
}

bool SimGpu::decay(DeviceBuffer& buf, std::string_view site) {
  if (faults_ == nullptr || buf.size() == 0) return false;
  if (!faults_->should_fault(FaultKind::BitFlipDeviceArray, site)) return false;
  faults_->flip_bit(std::span<double>(buf.data_.data(), buf.size()),
                    FaultKind::BitFlipDeviceArray, site);
  counters_.silent_flips += 1;
  MetricsRegistry::global().counter("gpu.silent_flips").add(1.0);
  return true;
}

double SimGpu::model_sm_utilization(const KernelStats& s) const {
  if (s.threads <= 0) return 0.0;
  const double per_wave = static_cast<double>(spec_.sm_count) * spec_.max_threads_per_sm;
  const double waves = std::ceil(static_cast<double>(s.threads) / per_wave);
  // Tail-wave quantization: the final partial wave idles some SMs.
  const double quantization = static_cast<double>(s.threads) / (waves * per_wave);
  return std::clamp(quantization * (1.0 - s.divergence), 0.0, 1.0);
}

double SimGpu::model_kernel_seconds(const KernelStats& s) const {
  const double peak = s.single_precision ? spec_.peak_sp_flops : spec_.peak_dp_flops;
  const double sm_util = model_sm_utilization(s);
  // Peak assumes every issue slot is an FMA (2 flops); a mix with plain
  // add/mul/compare issues fewer flops per cycle.
  const double issue_eff = 0.5 + 0.5 * std::clamp(s.fma_fraction, 0.0, 1.0);
  const double total_flops = s.flops_per_thread * static_cast<double>(s.threads);
  const double total_bytes = s.dram_bytes_per_thread * static_cast<double>(s.threads);
  const double t_compute = total_flops / std::max(peak * sm_util * issue_eff, 1.0);
  const double t_mem = total_bytes / spec_.mem_bandwidth_Bps;
  return spec_.launch_overhead_s + std::max(t_compute, t_mem);
}

void SimGpu::launch(const std::string& kernel_name, const KernelStats& stats,
                    const std::function<void()>& body, int stream) {
  if (faults_ != nullptr && faults_->should_fault(FaultKind::KernelLaunchFailure, kernel_name)) {
    // A failed launch never runs the body but still burns the launch overhead
    // on the stream — the caller sees the time loss plus a TransientFault.
    stream_clocks_.at(static_cast<size_t>(stream)) += spec_.launch_overhead_s;
    counters_.launch_failures += 1;
    counters_.kernel_seconds += spec_.launch_overhead_s;
    counters_.fault_seconds += spec_.launch_overhead_s;
    trace_stream("launch_failure", stream, spec_.launch_overhead_s);
    MetricsRegistry::global().counter("gpu.launch.failures").add(1.0);
    throw TransientFault(FaultKind::KernelLaunchFailure, kernel_name);
  }
  if (body) body();  // the generated kernel really executes on device buffers
  double t = model_kernel_seconds(stats);
  // Performance faults stretch the modeled time; the computed result is
  // untouched, so the damage is purely schedule-level.
  if (faults_ != nullptr) {
    if (slow_factor_ <= 1.0 && faults_->should_fault(FaultKind::SlowRank, "launch"))
      slow_factor_ = faults_->slow_factor();  // sticky: the device stays slow
    if (faults_->should_fault(FaultKind::JitterKernel, "launch")) {
      const double jitter = faults_->jitter_factor("launch");
      counters_.straggler_seconds += t * (jitter - 1.0);
      counters_.jitter_events += 1;
      MetricsRegistry::global().counter("gpu.jitter.events").add(1.0);
      t *= jitter;
    }
  }
  if (slow_factor_ > 1.0) {
    counters_.straggler_seconds += t * (slow_factor_ - 1.0);
    t *= slow_factor_;
  }
  stream_clocks_.at(static_cast<size_t>(stream)) += t;
  counters_.kernel_seconds += t;
  counters_.kernel_launches += 1;
  if (Tracer::global().enabled()) {
    const double end = stream_clocks_.at(static_cast<size_t>(stream));
    Tracer::global().record_complete(kernel_name, std::llround((end - t) * 1e9),
                                     std::llround(t * 1e9), trace_track_ + stream);
  }
  {
    auto& mx = MetricsRegistry::global();
    mx.counter("gpu.launches").add(1.0);
    mx.counter("gpu.kernel_seconds").add(t);
  }
  const double flops = stats.flops_per_thread * static_cast<double>(stats.threads);
  const double bytes = stats.dram_bytes_per_thread * static_cast<double>(stats.threads);
  counters_.total_flops += flops;
  counters_.total_dram_bytes += bytes;
  kernel_times_[kernel_name] += t;

  const double peak = stats.single_precision ? spec_.peak_sp_flops : spec_.peak_dp_flops;
  weighted_sm_ += model_sm_utilization(stats) * t;
  weighted_flopfrac_ += (flops / t) / peak * t;
  weighted_memfrac_ += (bytes / t) / spec_.mem_bandwidth_Bps * t;
  counters_.sm_utilization = weighted_sm_ / counters_.kernel_seconds;
  counters_.flop_fraction = weighted_flopfrac_ / counters_.kernel_seconds;
  counters_.mem_fraction = weighted_memfrac_ / counters_.kernel_seconds;
}

void SimGpu::set_slow(double factor) {
  if (!(factor >= 1.0)) throw std::invalid_argument("SimGpu::set_slow: factor must be >= 1");
  slow_factor_ = factor;
}

double SimGpu::synchronize() {
  return *std::max_element(stream_clocks_.begin(), stream_clocks_.end());
}

double SimGpu::stream_clock(int stream) const { return stream_clocks_.at(static_cast<size_t>(stream)); }

}  // namespace finch::rt
