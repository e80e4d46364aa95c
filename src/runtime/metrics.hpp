#pragma once
// Process-wide metrics registry: named counters, gauges and histograms with
// stable dotted names (the full name registry is the table in
// OBSERVABILITY.md). Instrumentation sites call
//
//   rt::MetricsRegistry::global().counter("bsp.exchange.bytes").add(n);
//
// at *batch* granularity (per step / per launch / per transfer — never per
// bytecode eval), so the always-on cost is a handful of relaxed atomic adds
// per step. Values dump as deterministic sorted JSON (`--metrics-json` on the
// benches, MetricsRegistry::write_json elsewhere). reset() zeroes values but
// keeps registrations, so cached references stay valid across test cases.
// Clock and seconds_since are the one wall clock the phase and counter
// timers read.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <iosfwd>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>

namespace finch::rt {

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Monotonically increasing value (events, bytes, seconds of charged time).
class Counter {
 public:
  void add(double d = 1.0) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// Last-write-wins instantaneous value (queue depth, current partition count).
class Gauge {
 public:
  void set(double d) { v_.store(d, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// Power-of-two-bucketed distribution (batch durations, message sizes):
// tracks count/sum/min/max plus 64 exponent buckets of |x|.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void observe(double x);
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  // min/max report 0.0 while empty; internally they idle at +/-inf so
  // concurrent first observations converge through plain CAS loops with no
  // seeded-store special case (which raced: a slow first observer could
  // overwrite a faster second one).
  double min() const {
    return count_.load(std::memory_order_relaxed) == 0
               ? 0.0
               : min_.load(std::memory_order_relaxed);
  }
  double max() const {
    return count_.load(std::memory_order_relaxed) == 0
               ? 0.0
               : max_.load(std::memory_order_relaxed);
  }
  int64_t bucket(int b) const {
    return buckets_[static_cast<size_t>(b)].load(std::memory_order_relaxed);
  }
  // Lower bound of bucket b (2^(b-32)); bucket 0 also holds zero/denormal.
  static double bucket_floor(int b);
  void reset();

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{kInf};
  std::atomic<double> max_{-kInf};
  std::atomic<int64_t> buckets_[kBuckets] = {};
};

// Name -> instrument registry; the process-wide instance is global().
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  // Find-or-create by stable dotted name. References stay valid for the
  // process lifetime (reset() zeroes values, never removes instruments).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  // Read a counter/gauge by name without creating it; 0 when absent.
  double value(std::string_view name) const;

  // Zero every registered instrument (tests / repeated bench sections).
  void reset();

  // Deterministic JSON dump: sorted names, %.17g numbers, histograms as
  // {count,sum,min,max,buckets:{floor:count}}.
  void write_json(std::ostream& os) const;
  bool write_json_file(const std::string& path) const;

 private:
  MetricsRegistry() = default;
  mutable std::shared_mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace finch::rt
