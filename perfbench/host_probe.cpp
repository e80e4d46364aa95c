#include "host_probe.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace finch::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Parses sysfs cache sizes such as "307200K" or "8M".
int64_t parse_size(const std::string& text) {
  if (text.empty()) return 0;
  int64_t v = 0;
  size_t i = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') v = v * 10 + (text[i++] - '0');
  if (i < text.size() && (text[i] == 'K' || text[i] == 'k')) v *= 1024;
  if (i < text.size() && (text[i] == 'M' || text[i] == 'm')) v *= 1024 * 1024;
  return v;
}

// Independent multiply-add chains, wide enough to cover FMA latency times
// issue width on current x86 cores. Compiled with -march=native (CMakeLists)
// so the chains map onto the widest hardware FMA the kernels may also use.
constexpr int kChains = 64;

double fma_loop(double m, double a, int64_t iters) {
  double acc[kChains];
  for (int k = 0; k < kChains; ++k) acc[k] = 1.0 + 1e-3 * k;
  for (int64_t it = 0; it < iters; ++it)
    for (int k = 0; k < kChains; ++k) acc[k] = std::fma(acc[k], m, a);
  double sum = 0.0;
  for (int k = 0; k < kChains; ++k) sum += acc[k];
  return sum;
}

}  // namespace

int64_t last_level_cache_bytes() {
  int64_t best = 0;
  for (int idx = 0; idx < 8; ++idx) {
    std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/size");
    std::string text;
    if (f >> text) best = std::max(best, parse_size(text));
  }
#ifdef _SC_LEVEL3_CACHE_SIZE
  if (best <= 0) best = std::max<int64_t>(0, sysconf(_SC_LEVEL3_CACHE_SIZE));
#endif
  return best > 0 ? best : int64_t{32} << 20;
}

HostRoofline measure_host_roofline() {
  HostRoofline r;
  r.llc_bytes = last_level_cache_bytes();
  const size_t n = static_cast<size_t>((4 * r.llc_bytes + 23) / 24);
  r.triad_bytes = static_cast<int64_t>(3 * n * sizeof(double));
  {
    std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
    const double s = 3.0;
    double best = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      for (size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
      best = std::min(best, seconds_since(t0));
      // Fold one element back so consecutive passes depend on each other.
      b[rep % n] = a[(rep * 7919) % n];
    }
    r.triad_gbs = static_cast<double>(r.triad_bytes) / best * 1e-9;
  }
  {
    const int64_t iters = 4'000'000;
    double best = 1e300, sink = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      sink += fma_loop(0.999999, 1e-7 * (rep + 1), iters);
      best = std::min(best, seconds_since(t0));
    }
    if (!std::isfinite(sink)) std::fprintf(stderr, "fma probe: non-finite result\n");
    r.fma_gflops = 2.0 * kChains * static_cast<double>(iters) / best * 1e-9;
  }
  return r;
}

}  // namespace finch::perfbench
