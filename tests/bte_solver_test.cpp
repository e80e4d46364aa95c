// BTE solver integration tests: physical behaviour of the full DSL-driven
// solver, cross-validation against the hand-written direct solver (the
// paper's "our solutions matched theirs"), and the gray variant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "bte/bte_problem.hpp"
#include "bte/direct_solver.hpp"
#include "bte/gray.hpp"
#include "core/codegen/gpu_solver.hpp"
#include "runtime/memory.hpp"

using namespace finch;
using namespace finch::bte;

namespace {

std::shared_ptr<const BtePhysics> tiny_physics() {
  static auto p = std::make_shared<const BtePhysics>(6, 8);
  return p;
}

BteScenario tiny_scenario() {
  // A 50um device resolved by 5um cells: the Gaussian spot (1/e^2 radius
  // 20um) spans several cells and boundary-driven heating is visible within
  // tens of picoseconds, keeping the tests fast.
  BteScenario s;
  s.nx = s.ny = 10;
  s.lx = s.ly = 50e-6;
  s.hot_w = 20e-6;
  s.ndirs = 8;
  s.nbands = 6;
  s.dt = 1e-12;
  return s;
}

}  // namespace

TEST(BteSolver, EquilibriumIsSteadyWithoutHotSpot) {
  // T_hot == T_cold == T_init: the initial state is a global equilibrium and
  // must remain (nearly) unchanged.
  BteScenario s = tiny_scenario();
  s.T_hot = s.T_cold;
  BteProblem bp(s, tiny_physics());
  auto solver = bp.compile(dsl::Target::CpuSerial);
  solver->run(20);
  for (double T : bp.temperature()) EXPECT_NEAR(T, s.T_init, 0.05);
}

TEST(BteSolver, HotSpotHeatsTheAdjacentRegion) {
  BteScenario s = tiny_scenario();
  s.nsteps = 60;
  BteProblem bp(s, tiny_physics());
  auto solver = bp.compile(dsl::Target::CpuSerial);
  solver->run(60);
  auto T = bp.temperature();
  // Cell nearest the hot-spot center (top middle) is warmer than the initial
  // equilibrium; the bottom corners stay cold.
  const int nx = s.nx;
  const double T_top_mid = T[static_cast<size_t>((s.ny - 1) * nx + nx / 2)];
  const double T_bottom_corner = T[0];
  EXPECT_GT(T_top_mid, s.T_init + 0.2);
  EXPECT_NEAR(T_bottom_corner, s.T_init, 0.2);
  // Temperatures stay within the physically admissible bracket.
  for (double t : T) {
    EXPECT_GE(t, s.T_cold - 0.5);
    EXPECT_LE(t, s.T_hot + 0.5);
  }
}

TEST(BteSolver, HeatSpreadsMonotonicallyFromTheSpot) {
  BteScenario s = tiny_scenario();
  BteProblem bp(s, tiny_physics());
  auto solver = bp.compile(dsl::Target::CpuSerial);
  solver->run(30);
  auto T30 = bp.temperature();
  solver->run(30);
  auto T60 = bp.temperature();
  // The heated region keeps warming early in the transient.
  const int hot_cell = (s.ny - 1) * s.nx + s.nx / 2;
  EXPECT_GT(T60[static_cast<size_t>(hot_cell)], T30[static_cast<size_t>(hot_cell)]);
  // Mid-domain temperature rise lags the near-wall rise (finite phonon speed).
  const int mid_cell = (s.ny / 2) * s.nx + s.nx / 2;
  EXPECT_LT(T60[static_cast<size_t>(mid_cell)] - s.T_init,
            T60[static_cast<size_t>(hot_cell)] - s.T_init);
}

TEST(BteSolver, SymmetricScenarioGivesSymmetricField) {
  BteScenario s = tiny_scenario();
  s.nsteps = 40;
  BteProblem bp(s, tiny_physics());
  bp.compile(dsl::Target::CpuSerial)->run(40);
  auto T = bp.temperature();
  // Hot spot centered: field symmetric about the vertical mid-line.
  for (int j = 0; j < s.ny; ++j)
    for (int i = 0; i < s.nx / 2; ++i) {
      const double a = T[static_cast<size_t>(j * s.nx + i)];
      const double b = T[static_cast<size_t>(j * s.nx + (s.nx - 1 - i))];
      EXPECT_NEAR(a, b, 1e-8 * std::abs(a)) << "i=" << i << " j=" << j;
    }
}

TEST(BteSolver, DirectSolverMatchesDslSolver) {
  // The hand-written baseline and the DSL-generated solver implement the same
  // discretization; fields must agree to tight tolerance after many steps.
  BteScenario s = tiny_scenario();
  auto phys = tiny_physics();
  BteProblem bp(s, phys);
  auto solver = bp.compile(dsl::Target::CpuSerial);
  DirectSolver direct(s, phys);
  const int steps = 25;
  solver->run(steps);
  direct.run(steps);

  const auto& I_dsl = bp.problem().fields().get("I");
  const auto& I_dir = direct.intensity();
  double max_rel = 0;
  for (int32_t c = 0; c < I_dsl.num_cells(); ++c)
    for (int32_t k = 0; k < I_dsl.dof_per_cell(); ++k) {
      const double a = I_dsl.at(c, k);
      const double b = I_dir[static_cast<size_t>(c) * I_dsl.dof_per_cell() + k];
      max_rel = std::max(max_rel, std::abs(a - b) / (std::abs(a) + 1e-300));
    }
  EXPECT_LT(max_rel, 1e-10);

  auto T_dsl = bp.temperature();
  const auto& T_dir = direct.temperature();
  for (size_t i = 0; i < T_dsl.size(); ++i) EXPECT_NEAR(T_dsl[i], T_dir[i], 1e-7);
}

TEST(BteSolver, GpuTargetMatchesCpuForBte) {
  BteScenario s = tiny_scenario();
  s.nx = s.ny = 8;
  auto phys = tiny_physics();
  BteProblem cpu(s, phys);
  cpu.compile(dsl::Target::CpuSerial)->run(10);

  rt::SimGpu gpu(rt::GpuSpec::a6000());
  BteProblem gpup(s, phys);
  gpup.problem().use_cuda(&gpu);
  gpup.compile()->run(10);

  auto a = cpu.problem().fields().get("I").data();
  auto b = gpup.problem().fields().get("I").data();
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  EXPECT_GT(gpu.counters().kernel_launches, 0);
}

// The GPU target prices its movement plan on the device and copies nothing:
// a memory budget on the device never sees a reservation, and the modeled
// traffic is the plan's — its once-uploaded fields, then every step's
// transfers — at the device's copy model. The fields stay the CPU target's.
// On a device a million times slower than an A6000 the modeled kernel dwarfs
// the host's work, so the compute phase the stage loop bills must hold the
// device's seconds; the communication phase is exactly the per-step copies.
TEST(BteSolver, GpuTargetPricesItsTransfersWithoutDeviceCopies) {
  BteScenario s = tiny_scenario();
  s.nx = s.ny = 8;
  auto phys = tiny_physics();
  constexpr int kSteps = 6;
  BteProblem cpu(s, phys);
  cpu.compile(dsl::Target::CpuSerial)->run(kSteps);

  rt::GpuSpec slow = rt::GpuSpec::a6000();
  slow.peak_dp_flops /= 1e6;
  slow.mem_bandwidth_Bps /= 1e6;
  rt::SimGpu gpu(slow);
  rt::MemoryBudget budget;
  gpu.set_memory_budget(&budget);
  BteProblem gpup(s, phys);
  gpup.problem().use_cuda(&gpu);
  const codegen::MovementPlan plan = codegen::gpu_movement_plan(gpup.problem());
  auto solver = gpup.compile();
  EXPECT_EQ(budget.peak(), 0);
  solver->run(kSteps);
  EXPECT_EQ(budget.peak(), 0);

  const rt::GpuSpec& spec = gpu.spec();
  const auto seconds = [&](int64_t bytes) {
    return spec.pcie_latency_s + static_cast<double>(bytes) / spec.pcie_bandwidth_Bps;
  };
  int64_t h2d = 0, d2h = 0;
  double once_s = 0.0, step_s = 0.0;
  for (const auto& t : plan.upload_once) {
    if (!gpup.problem().fields().has(t.array)) continue;
    h2d += t.bytes;
    once_s += seconds(t.bytes);
  }
  for (int step = 0; step < kSteps; ++step) {
    for (const auto& t : plan.per_step_d2h) {
      d2h += t.bytes;
      step_s += seconds(t.bytes);
    }
    for (const auto& t : plan.per_step_h2d) {
      h2d += t.bytes;
      step_s += seconds(t.bytes);
    }
  }
  EXPECT_EQ(gpu.counters().bytes_h2d, h2d);
  EXPECT_EQ(gpu.counters().bytes_d2h, d2h);
  EXPECT_GT(d2h, 0);
  EXPECT_DOUBLE_EQ(gpu.counters().copy_seconds, once_s + step_s);
  // The once-uploads ride stream 0; the per-step transfers share the kernel
  // stream with the launches.
  EXPECT_DOUBLE_EQ(gpu.stream_clock(0), once_s);
  EXPECT_DOUBLE_EQ(gpu.stream_clock(1), gpu.counters().kernel_seconds + step_s);
  EXPECT_NEAR(solver->phases().communication, step_s, 1e-12 * step_s);
  EXPECT_GE(solver->phases().compute, gpu.counters().kernel_seconds);

  for (const char* name : {"I", "T"}) {
    auto a = cpu.problem().fields().get(name).data();
    auto b = gpup.problem().fields().get(name).data();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << name << "[" << i << "]";
  }
}

TEST(BteSolver, MovementPlanSendsOnlyAnnotatedArrays) {
  BteScenario s = tiny_scenario();
  BteProblem bp(s, tiny_physics());
  auto plan = codegen::gpu_movement_plan(bp.problem());
  // Per step: I comes back (GPU writes, CPU post-step reads); Io and beta go
  // up (CPU writes, GPU reads). Sx/Sy/vg/T never move per step.
  auto has = [](const std::vector<codegen::MovementPlan::Transfer>& ts, const std::string& n) {
    return std::any_of(ts.begin(), ts.end(), [&](const auto& t) { return t.array == n; });
  };
  EXPECT_TRUE(has(plan.per_step_d2h, "I"));
  EXPECT_TRUE(has(plan.per_step_h2d, "Io"));
  EXPECT_TRUE(has(plan.per_step_h2d, "beta"));
  EXPECT_FALSE(has(plan.per_step_h2d, "I"));
  EXPECT_FALSE(has(plan.per_step_d2h, "Io"));
  EXPECT_FALSE(has(plan.per_step_h2d, "T"));
  // The optimized plan moves far less than the naive one.
  auto naive = codegen::gpu_movement_plan(bp.problem(), /*naive=*/true);
  EXPECT_LT(plan.step_total_bytes(), naive.step_total_bytes());
}

TEST(BteSolver, PaperDofCountsAtFullScale) {
  // §III.A: 20 x 55 = 1100 intensity DOF per cell, ~1.6e7 overall on 120x120.
  BteScenario s = BteScenario::paper_hotspot();
  BtePhysics phys(s.nbands, s.ndirs);
  EXPECT_EQ(phys.num_bands(), 55);
  EXPECT_EQ(phys.num_dirs(), 20);
  const int64_t dofs = static_cast<int64_t>(s.nx) * s.ny * phys.num_bands() * phys.num_dirs();
  EXPECT_EQ(dofs, 15840000);  // 1.584e7 ~ "about 1.6e7"
}

TEST(BteGray, RelaxesTowardHotWallProfile) {
  GrayScenario s;
  s.nx = s.ny = 12;
  s.lx = s.ly = 50e-6;
  s.hot_w = 20e-6;
  s.ndirs = 8;
  s.nsteps = 80;
  GrayBteProblem gp(s);
  gp.compile(dsl::Target::CpuSerial)->run(80);
  auto T = gp.temperature();
  const double T_top = T[static_cast<size_t>((s.ny - 1) * s.nx + s.nx / 2)];
  const double T_bot = T[static_cast<size_t>(s.nx / 2)];
  EXPECT_GT(T_top, s.T_init + 0.5);
  EXPECT_LT(T_bot, T_top);
  for (double t : T) {
    EXPECT_GE(t, s.T_cold - 1.0);
    EXPECT_LE(t, s.T_hot + 1.0);
  }
}

TEST(BteGray, EquilibriumFixedPoint) {
  GrayScenario s;
  s.nx = s.ny = 8;
  s.ndirs = 8;
  s.T_hot = s.T_cold;
  GrayBteProblem gp(s);
  gp.compile(dsl::Target::CpuSerial)->run(30);
  for (double t : gp.temperature()) EXPECT_NEAR(t, s.T_init, 1e-9);
}

TEST(BteCorner, CornerScenarioHeatsTheCorner) {
  BteScenario s = BteScenario::corner();
  s.nx = 18;
  s.ny = 6;
  s.lx = 60e-6;
  s.ly = 20e-6;
  s.hot_w = 15e-6;
  s.ndirs = 8;
  s.nbands = 6;
  BteProblem bp(s, tiny_physics());
  bp.compile(dsl::Target::CpuSerial)->run(60);
  auto T = bp.temperature();
  // Source sits at the x=0 end of the hot (top) wall.
  const double T_near = T[static_cast<size_t>((s.ny - 1) * s.nx + 0)];
  const double T_far = T[static_cast<size_t>((s.ny - 1) * s.nx + s.nx - 1)];
  EXPECT_GT(T_near, T_far + 0.2);
  EXPECT_GT(T_near, s.T_init);
}
