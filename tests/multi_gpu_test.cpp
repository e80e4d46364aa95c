// Multi-GPU hybrid solver tests: numerical identity with the serial solver
// for any device count, device-counter accounting, and the Fig. 8 breakdown
// shape (temperature update dominates the accelerated version).
#include <gtest/gtest.h>

#include <memory>

#include "bte/direct_solver.hpp"
#include "bte/multi_gpu_solver.hpp"

using namespace finch;
using namespace finch::bte;

namespace {

std::shared_ptr<const BtePhysics> phys() {
  static auto p = std::make_shared<const BtePhysics>(6, 8);
  return p;
}

BteScenario scen() {
  BteScenario s;
  s.nx = 10;
  s.ny = 8;
  s.lx = s.ly = 50e-6;
  s.hot_w = 20e-6;
  s.ndirs = 8;
  s.nbands = 6;
  s.dt = 1e-12;
  return s;
}

}  // namespace

class GpuCounts : public ::testing::TestWithParam<int> {};

TEST_P(GpuCounts, BitIdenticalToSerial) {
  const int ndev = GetParam();
  BteScenario s = scen();
  DirectSolver serial(s, phys());
  MultiGpuSolver multi(s, phys(), ndev);
  serial.run(12);
  multi.run(12);
  const auto& a = serial.intensity();
  const auto b = multi.gather_intensity();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << i;
  for (size_t i = 0; i < serial.temperature().size(); ++i)
    ASSERT_EQ(serial.temperature()[i], multi.temperature()[i]);
}

INSTANTIATE_TEST_SUITE_P(DeviceCounts, GpuCounts, ::testing::Values(1, 2, 4, 8));

TEST(MultiGpu, DevicesLaunchAndTransfer) {
  BteScenario s = scen();
  MultiGpuSolver multi(s, phys(), 2);
  multi.run(5);
  for (int d = 0; d < multi.nparts(); ++d) {
    const auto& c = multi.device(d).counters();
    EXPECT_EQ(c.kernel_launches, 5);
    EXPECT_GT(c.bytes_h2d, 0);
    EXPECT_GT(c.bytes_d2h, 0);
    EXPECT_GT(c.kernel_seconds, 0.0);
  }
}

TEST(MultiGpu, WorkSplitsAcrossDevices) {
  // With 2 devices each owns half the bands: per-device kernel flops halve.
  BteScenario s = scen();
  MultiGpuSolver one(s, phys(), 1), two(s, phys(), 2);
  one.run(3);
  two.run(3);
  const double f1 = one.device(0).counters().total_flops;
  const double f2 = two.device(0).counters().total_flops + two.device(1).counters().total_flops;
  EXPECT_NEAR(f1, f2, 1e-6 * f1);  // same total work
  EXPECT_NEAR(two.device(0).counters().total_flops, f1 / 2, 0.35 * f1);  // split
}

TEST(MultiGpu, TemperatureUpdateDominatesPhases) {
  // Fig. 8's shape on the executing solver: the CPU temperature update is the
  // dominant phase of the accelerated version (the kernel is modeled-fast).
  BteScenario s = scen();
  MultiGpuSolver multi(s, phys(), 2);
  multi.run(10);
  const auto& ph = multi.phases();
  EXPECT_GT(ph.post_process, 0.0);
  EXPECT_GT(ph.compute, 0.0);
  EXPECT_GT(ph.communication, 0.0);
}

TEST(MultiGpu, RejectsBadDeviceCounts) {
  BteScenario s = scen();
  EXPECT_THROW(MultiGpuSolver(s, phys(), 0), std::invalid_argument);
  EXPECT_THROW(MultiGpuSolver(s, phys(), 500), std::invalid_argument);
}
