#pragma once
// Host roofline probe: single-core STREAM triad bandwidth and multiply-add
// peak, the CPU counterpart of the paper's §III.D GPU profiling table. The
// traced benchmark run divides the kernel's achieved bytes/s and flop/s by
// these ceilings.

#include <cstdint>

namespace finch::perfbench {

struct HostRoofline {
  int64_t llc_bytes = 0;    // last-level cache size the triad arrays must exceed
  int64_t triad_bytes = 0;  // total footprint of the three triad arrays (>= 4x LLC)
  double triad_gbs = 0.0;   // best-of-N a[i] = b[i] + s*c[i], 24 B per element
  double fma_gflops = 0.0;  // best-of-N independent FMA chains, 2 flop per FMA
};

// Largest cache level the OS reports (sysfs, then sysconf), or 32 MiB when
// neither is available.
int64_t last_level_cache_bytes();

HostRoofline measure_host_roofline();

}  // namespace finch::perfbench
