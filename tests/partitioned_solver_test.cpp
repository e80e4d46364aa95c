// Distributed-execution tests: the cell-partitioned and band-partitioned
// solvers (real per-rank storage, real halo exchange / band gather) must be
// bit-identical to the serial hand-written solver for any partition count —
// the executable counterpart of Fig. 3's two communication patterns — and
// every strategy of the shared engine must keep its step counter.
#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <set>

#include "bte/direct_solver.hpp"
#include "bte/multi_gpu_solver.hpp"
#include "bte/partitioned_solver.hpp"
#include "runtime/trace.hpp"

using namespace finch;
using namespace finch::bte;

namespace {

std::shared_ptr<const BtePhysics> phys() {
  static auto p = std::make_shared<const BtePhysics>(6, 8);
  return p;
}

BteScenario scen() {
  BteScenario s;
  s.nx = 12;
  s.ny = 10;
  s.lx = s.ly = 50e-6;
  s.hot_w = 20e-6;
  s.ndirs = 8;
  s.nbands = 6;
  s.dt = 1e-12;
  return s;
}

}  // namespace

class CellParts : public ::testing::TestWithParam<int> {};

TEST_P(CellParts, BitIdenticalToSerial) {
  const int nparts = GetParam();
  BteScenario s = scen();
  DirectSolver serial(s, phys());
  CellPartitionedSolver dist(s, phys(), nparts);
  const int steps = 15;
  serial.run(steps);
  dist.run(steps);

  const auto& a = serial.intensity();
  const auto b = dist.gather_intensity();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << "dof " << i;

  const auto& Ta = serial.temperature();
  const auto Tb = dist.gather_temperature();
  for (size_t i = 0; i < Ta.size(); ++i) ASSERT_EQ(Ta[i], Tb[i]) << "cell " << i;
}

INSTANTIATE_TEST_SUITE_P(PartCounts, CellParts, ::testing::Values(1, 2, 3, 4, 6));

class BandParts : public ::testing::TestWithParam<int> {};

TEST_P(BandParts, BitIdenticalToSerial) {
  const int nparts = GetParam();
  BteScenario s = scen();
  DirectSolver serial(s, phys());
  BandPartitionedSolver dist(s, phys(), nparts);
  const int steps = 15;
  serial.run(steps);
  dist.run(steps);

  const auto& a = serial.intensity();
  const auto b = dist.gather_intensity();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << "dof " << i;
  for (size_t i = 0; i < serial.temperature().size(); ++i)
    ASSERT_EQ(serial.temperature()[i], dist.temperature()[i]) << "cell " << i;
}

INSTANTIATE_TEST_SUITE_P(PartCounts, BandParts, ::testing::Values(1, 2, 4, 8));

TEST(PartitionedComm, CellCommVolumeMatchesHalo) {
  BteScenario s = scen();
  CellPartitionedSolver dist(s, phys(), 4);
  // Per step every rank receives its full halo: bytes = sum over ranks of
  // ghosts * dofs * 8. Run a few steps and check the accounting.
  const int steps = 5;
  dist.run(steps);
  EXPECT_GT(dist.comm().bytes_per_step, 0);
  EXPECT_EQ(dist.comm().total_bytes, dist.comm().bytes_per_step * steps);
  EXPECT_GE(dist.comm().messages_per_step, 4);  // each rank has >= 1 neighbor
}

TEST(PartitionedComm, BandCommIsIndependentOfPartCount) {
  // "When partitioning among the bands the boundary communication can be
  // avoided": only the temperature-update gather moves data, whose volume is
  // a function of cells x bands, not of the partition count.
  BteScenario s = scen();
  BandPartitionedSolver d2(s, phys(), 2), d4(s, phys(), 4);
  EXPECT_EQ(d2.comm().bytes_per_step, d4.comm().bytes_per_step);
}

TEST(PartitionedComm, CellCommGrowsWithParts_BandStaysFlat) {
  // Fig. 3: cell partitioning needs neighbor exchange that grows with the
  // number of interfaces; equation partitioning does not.
  BteScenario s = scen();
  CellPartitionedSolver c2(s, phys(), 2), c6(s, phys(), 6);
  EXPECT_GT(c6.comm().bytes_per_step, c2.comm().bytes_per_step);
  BandPartitionedSolver b2(s, phys(), 2), b6(s, phys(), 6);
  EXPECT_EQ(b2.comm().bytes_per_step, b6.comm().bytes_per_step);
}

TEST(PartitionedErrors, RejectsBadPartCounts) {
  BteScenario s = scen();
  EXPECT_THROW(CellPartitionedSolver(s, phys(), 0), std::invalid_argument);
  EXPECT_THROW(BandPartitionedSolver(s, phys(), 0), std::invalid_argument);
  EXPECT_THROW(BandPartitionedSolver(s, phys(), 1000), std::invalid_argument);
}

TEST(PartitionedComm, GreedyGraphMethodAlsoExact) {
  BteScenario s = scen();
  DirectSolver serial(s, phys());
  CellPartitionedSolver dist(s, phys(), 3, mesh::PartitionMethod::GreedyGraph);
  serial.run(8);
  dist.run(8);
  const auto& a = serial.intensity();
  const auto b = dist.gather_intensity();
  for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

// A plain (non-resilient) run() advances step_index() exactly like a
// resilient one, so snapshots and the wall-clock step spans carry the real
// step on every strategy.
TEST(DistributedEngine, PlainRunAdvancesStepIndex) {
  BteScenario s = scen();
  CellPartitionedSolver cell(s, phys(), 3);
  BandPartitionedSolver band(s, phys(), 3);
  MultiGpuSolver mgpu(s, phys(), 3);
  rt::TraceConfig cfg;
  cfg.enabled = true;
  rt::Tracer::global().configure(cfg);
  rt::Tracer::global().clear();
  const std::initializer_list<DistributedEngine*> engines = {&cell, &band, &mgpu};
  for (DistributedEngine* engine : engines) {
    engine->run(5);
    EXPECT_EQ(engine->step_index(), 5);
    EXPECT_EQ(engine->snapshot().step, 5);
    engine->run(2);
    EXPECT_EQ(engine->step_index(), 7);
  }
  std::set<int64_t> cell_steps, band_steps;
  for (const rt::TraceEvent& ev : rt::Tracer::global().snapshot()) {
    if (ev.name == "cell.step") cell_steps.insert(ev.attrs.step);
    if (ev.name == "band.step") band_steps.insert(ev.attrs.step);
  }
  rt::Tracer::global().configure(rt::TraceConfig{});
  rt::Tracer::global().clear();
  const std::set<int64_t> all = {0, 1, 2, 3, 4, 5, 6};
  EXPECT_EQ(cell_steps, all);
  EXPECT_EQ(band_steps, all);
}
