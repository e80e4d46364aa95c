// Performance-model tests: the qualitative scaling claims of the paper must
// emerge from the models (these are the same claims EXPERIMENTS.md records).
#include <gtest/gtest.h>

#include "perf/models.hpp"

using namespace finch::perf;

namespace {

struct Ctx {
  Workload w = Workload::paper();
  CalibratedCosts c = CalibratedCosts::defaults();
  ModelConfig m;
};

}  // namespace

TEST(PerfModel, WorkloadPaperMatchesSectionIIIA) {
  Workload w = Workload::paper();
  EXPECT_EQ(w.cells, 14400);
  EXPECT_EQ(w.bands, 55);
  EXPECT_EQ(w.dirs, 20);
  EXPECT_EQ(w.dofs(), 15840000);
}

TEST(PerfModel, WorkloadFromScenarioResolvesBands) {
  finch::bte::BteScenario s = finch::bte::BteScenario::paper_hotspot();
  Workload w = Workload::from_scenario(s);
  EXPECT_EQ(w.bands, 55);  // 40 spectral -> 55 resolved
  EXPECT_EQ(w.cells, 14400);
}

TEST(PerfModel, BandParallelSpeedsUpThenSaturates) {
  Ctx s;
  const double t1 = model_band_parallel(s.w, s.c, s.m, 1).total;
  const double t10 = model_band_parallel(s.w, s.c, s.m, 10).total;
  const double t55 = model_band_parallel(s.w, s.c, s.m, 55).total;
  const double t110 = model_band_parallel(s.w, s.c, s.m, 110).total;
  EXPECT_GT(t1 / t10, 5.0);        // near-linear early
  EXPECT_GT(t10 / t55, 1.5);       // still improving to 55
  // Beyond one band per rank there is nothing left to split.
  EXPECT_GT(t110, 0.85 * t55);
}

TEST(PerfModel, CellParallelScalesTo320) {
  Ctx s;
  const double t1 = model_cell_parallel(s.w, s.c, s.m, 1).total;
  const double t320 = model_cell_parallel(s.w, s.c, s.m, 320).total;
  EXPECT_GT(t1 / t320, 80.0);  // strong scaling well past the band limit
}

TEST(PerfModel, CellParallelEventuallyBeatsBandParallel) {
  // Fig. 4: "the cell-based parallel version is able to scale to a greater
  // number of processes despite a slightly higher communication cost".
  Ctx s;
  const double band20 = model_band_parallel(s.w, s.c, s.m, 20).total;
  const double cell20 = model_cell_parallel(s.w, s.c, s.m, 20).total;
  // At modest counts they are comparable (within 2x).
  EXPECT_LT(std::abs(std::log(band20 / cell20)), std::log(2.0));
  // At large counts cells win decisively.
  EXPECT_LT(model_cell_parallel(s.w, s.c, s.m, 320).total,
            0.5 * model_band_parallel(s.w, s.c, s.m, 320).total);
}

TEST(PerfModel, CellParallelHasHigherCommunication) {
  Ctx s;
  auto band = model_band_parallel(s.w, s.c, s.m, 40);
  auto cell = model_cell_parallel(s.w, s.c, s.m, 40);
  EXPECT_GT(cell.phases.communication, band.phases.communication);
}

TEST(PerfModel, IntensityDominatesBandParallelBreakdown) {
  // Fig. 5: intensity ~97% at small counts, shrinking but still dominant at 55.
  Ctx s;
  auto p1 = model_band_parallel(s.w, s.c, s.m, 1);
  EXPECT_GT(p1.phases.compute / p1.total, 0.90);
  auto p55 = model_band_parallel(s.w, s.c, s.m, 55);
  EXPECT_GT(p55.phases.compute / p55.total, 0.5);
  EXPECT_LT(p55.phases.compute / p55.total, 0.95);  // other phases grew visible
}

TEST(PerfModel, FortranFasterSeriallyButScalesWorse) {
  // Fig. 9: "sequential execution of our code takes roughly twice as long as
  // the Fortran code" but the Fortran code scales poorly.
  Ctx s;
  const double finch1 = model_band_parallel(s.w, s.c, s.m, 1).total;
  const double fort1 = model_fortran(s.w, s.c, s.m, 1).total;
  EXPECT_NEAR(finch1 / fort1, 2.0, 0.35);
  const double finch40 = model_band_parallel(s.w, s.c, s.m, 40).total;
  const double fort40 = model_fortran(s.w, s.c, s.m, 40).total;
  EXPECT_LT(finch40, fort40);  // the DSL code overtakes at scale
}

TEST(PerfModel, GpuRoughly18xOverCpuAtEqualPartitions) {
  // §III.D / Fig. 7: "the GPU version is about 18 times faster" than the CPU
  // code with an equal number of partitions.
  Ctx s;
  for (int p : {1, 2, 5, 10}) {
    const double cpu = model_band_parallel(s.w, s.c, s.m, p).total;
    const double gpu = model_gpu(s.w, s.c, s.m, p).total;
    EXPECT_GT(cpu / gpu, 8.0) << p;
    EXPECT_LT(cpu / gpu, 40.0) << p;
  }
}

TEST(PerfModel, GpuScalingFlattensPastTen) {
  // Fig. 7: "Strong scaling ... good up to at least 10 devices, but larger
  // numbers did not show further speedup."
  Ctx s;
  const double g1 = model_gpu(s.w, s.c, s.m, 1).total;
  const double g10 = model_gpu(s.w, s.c, s.m, 10).total;
  const double g40 = model_gpu(s.w, s.c, s.m, 40).total;
  EXPECT_GT(g1 / g10, 3.0);          // useful scaling to 10
  EXPECT_LT(g10 / g40, 2.5);         // diminishing returns beyond
}

TEST(PerfModel, TemperatureUpdateDominatesGpuBreakdown) {
  // Fig. 8 vs Fig. 5: the CPU-side temperature update is a far larger share
  // of the accelerated version.
  Ctx s;
  auto cpu = model_band_parallel(s.w, s.c, s.m, 4);
  auto gpu = model_gpu(s.w, s.c, s.m, 4);
  EXPECT_GT(gpu.phases.post_process / gpu.total, 2.0 * (cpu.phases.post_process / cpu.total));
  EXPECT_GT(gpu.phases.post_process / gpu.total, 0.3);
}

TEST(PerfModel, GpuCommunicationVisibleButNotDominant) {
  // §III.D: "communication time between the GPU and host does not make up a
  // very significant portion of the time".
  Ctx s;
  auto gpu = model_gpu(s.w, s.c, s.m, 1);
  EXPECT_GT(gpu.phases.communication, 0.0);
  EXPECT_LT(gpu.phases.communication / gpu.total, 0.35);
}

TEST(PerfModel, GpuProfileMatchesPaperTableShape) {
  // §III.D table: SM utilization 86%, memory throughput 11%, FLOP 49% of
  // (double-precision) peak. The model should land in the same regime:
  // high occupancy, compute-bound, memory far from saturated.
  Ctx s;
  GpuProfile prof = model_gpu_profile(s.w, s.m);
  EXPECT_GT(prof.sm_utilization, 0.7);
  EXPECT_LE(prof.sm_utilization, 1.0);
  EXPECT_GT(prof.flop_fraction, 0.3);
  EXPECT_LT(prof.flop_fraction, 0.75);
  EXPECT_LT(prof.mem_fraction, 0.3);
  EXPECT_GT(prof.flop_fraction, prof.mem_fraction);  // compute bound
}

TEST(PerfModel, CalibrationProducesSaneCosts) {
  CalibratedCosts c = CalibratedCosts::measure();
  EXPECT_GT(c.sec_per_dof_intensity, 1e-10);
  EXPECT_LT(c.sec_per_dof_intensity, 1e-5);
  EXPECT_GT(c.sec_per_cell_temperature, 1e-8);
  EXPECT_LT(c.sec_per_cell_temperature, 1e-2);
}

TEST(PerfModel, InvalidArguments) {
  Ctx s;
  EXPECT_THROW(model_band_parallel(s.w, s.c, s.m, 0), std::invalid_argument);
  EXPECT_THROW(model_cell_parallel(s.w, s.c, s.m, 0), std::invalid_argument);
  EXPECT_THROW(model_gpu(s.w, s.c, s.m, 0), std::invalid_argument);
}
