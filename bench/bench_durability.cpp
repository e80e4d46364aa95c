// Durable-runs bench: process-crash restart sweep, resource-exhaustion
// degradation, and cooperative cancellation.
//
// The crash sweep is the real thing, not a simulation: for each solver a
// child process is forked, runs durably, and SIGKILLs itself at a seeded
// kill point — either at a step boundary or from *inside* a checkpoint's
// commit (via the commit hook): its frame appended to the generation log,
// its sync not yet run. The parent finds the newest surviving generation,
// resumes in a fresh solver (or starts at step 0 when the kill landed
// before the first generation) and demands the finished run be
// bit-identical to an uninterrupted reference. The second act rides out
// injected AllocFailure/MemoryPressure storms on a tight memory budget via
// the graceful-degradation relief chain; the third drains on a deadline and
// resumes, the cancel converging on the same restart path as the kills.
//
// Usage: bench_durability [--seed N] [--json BENCH_durability.json]
//                         [--metrics-json FILE] [--trace FILE]
// FINCH_BENCH_FAST=1 shrinks the kill-point sweep (CI-friendly).
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bte/multi_gpu_solver.hpp"
#include "bte/partitioned_solver.hpp"
#include "bte/resilience.hpp"
#include "fig_common.hpp"
#include "runtime/cancel.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/memory.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#define FINCH_HAVE_FORK 1
#endif

using namespace finch;
using namespace finch::bte;

using bench::bitwise_equal;
using bench::check;
using bench::small_scenario;

namespace {

constexpr int kParts = 3;
constexpr int kSteps = 12;
constexpr int kCkptInterval = 2;

struct FinalState {
  std::vector<double> T, I;
  int64_t resumed_step = -1;
  ResilienceStats stats;
};

ResilienceOptions durable_options(const std::string& dir) {
  ResilienceOptions opt;
  opt.checkpoint.interval = kCkptInterval;
  opt.durable.dir = dir;
  return opt;
}

// Uninterrupted reference for `solver` — durability does not change numerics,
// so a plain resilient run is the bit-exactness bar for every crash/resume.
FinalState reference_run(const std::string& solver,
                         const std::shared_ptr<const BtePhysics>& phys) {
  const BteScenario s = small_scenario();
  ResilienceOptions opt;
  opt.checkpoint.interval = kCkptInterval;
  FinalState out;
  if (solver == "cell") {
    CellPartitionedSolver sol(s, phys, kParts);
    sol.enable_resilience(opt);
    sol.run(kSteps);
    out.T = sol.gather_temperature();
    out.I = sol.gather_intensity();
  } else if (solver == "band") {
    BandPartitionedSolver sol(s, phys, kParts);
    sol.enable_resilience(opt);
    sol.run(kSteps);
    out.T = sol.temperature();
    out.I = sol.gather_intensity();
  } else {
    MultiGpuSolver sol(s, phys, kParts);
    sol.enable_resilience(opt);
    sol.run(kSteps);
    out.T = sol.temperature();
    out.I = sol.gather_intensity();
  }
  return out;
}

// Restart the job in `dir` in a fresh solver — from its newest readable
// generation, or from step 0 when none was committed — and finish the run.
template <typename Solver>
void restart(Solver& sol, const std::optional<rt::Generation>& gen, const std::string& dir) {
  if (gen)
    sol.resume_from(*gen, durable_options(dir));
  else
    sol.enable_resilience(durable_options(dir));
}

FinalState resume_and_finish(const std::string& solver, const std::string& dir,
                             const std::shared_ptr<const BtePhysics>& phys) {
  const BteScenario s = small_scenario();
  const std::optional<rt::Generation> gen = rt::find_latest_generation(dir);
  FinalState out;
  if (solver == "cell") {
    CellPartitionedSolver sol(s, phys, kParts);
    restart(sol, gen, dir);
    out.resumed_step = sol.step_index();
    sol.run(kSteps - static_cast<int>(sol.step_index()));
    out.T = sol.gather_temperature();
    out.I = sol.gather_intensity();
    out.stats = sol.resilience_stats();
  } else if (solver == "band") {
    BandPartitionedSolver sol(s, phys, kParts);
    restart(sol, gen, dir);
    out.resumed_step = sol.step_index();
    sol.run(kSteps - static_cast<int>(sol.step_index()));
    out.T = sol.temperature();
    out.I = sol.gather_intensity();
    out.stats = sol.resilience_stats();
  } else {
    MultiGpuSolver sol(s, phys, kParts);
    restart(sol, gen, dir);
    out.resumed_step = sol.step_index();
    sol.run(kSteps - static_cast<int>(sol.step_index()));
    out.T = sol.temperature();
    out.I = sol.gather_intensity();
    out.stats = sol.resilience_stats();
  }
  return out;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = "durability_bench_" + name;
#ifdef FINCH_HAVE_FORK
  ::mkdir(dir.c_str(), 0755);
#endif
  const std::string log = dir + "/" + rt::GenerationLog::kFileName;
  std::remove(log.c_str());
  std::remove((log + ".compact").c_str());
  return dir;
}

#ifdef FINCH_HAVE_FORK

// What the forked child does before SIGKILLing itself.
struct KillPoint {
  int step = -1;        // >= 0: die at this step boundary
  int ckpt_write = -1;  // >= 1: die after the Nth frame's append, before its sync
};

void run_child_until_kill(const std::string& solver, const std::string& dir,
                          const std::shared_ptr<const BtePhysics>& phys, KillPoint kp) {
  const BteScenario s = small_scenario();
  if (kp.ckpt_write >= 1) {
    // Die mid-commit: the frame is in the log (the page cache keeps it
    // across the kill), its sync has not run.
    static int writes = 0;
    static int target = 0;
    target = kp.ckpt_write;
    rt::set_checkpoint_commit_hook([](const std::string&, rt::CommitPhase phase) {
      if (phase != rt::CommitPhase::AfterAppend) return;
      if (++writes == target) ::raise(SIGKILL);
    });
  }
  if (solver == "cell") {
    CellPartitionedSolver sol(s, phys, kParts);
    sol.enable_resilience(durable_options(dir));
    if (kp.step >= 0) sol.run(kp.step);
    else sol.run(kSteps);
  } else if (solver == "band") {
    BandPartitionedSolver sol(s, phys, kParts);
    sol.enable_resilience(durable_options(dir));
    if (kp.step >= 0) sol.run(kp.step);
    else sol.run(kSteps);
  } else {
    MultiGpuSolver sol(s, phys, kParts);
    sol.enable_resilience(durable_options(dir));
    if (kp.step >= 0) sol.run(kp.step);
    else sol.run(kSteps);
  }
  if (kp.step >= 0) ::raise(SIGKILL);  // crash at the step boundary
  ::_exit(41);  // mid-write kill point never fired: distinct failure code
}

// Fork, crash the child at `kp`, and verify the child died by SIGKILL.
bool crash_child(const std::string& solver, const std::string& dir,
                 const std::shared_ptr<const BtePhysics>& phys, KillPoint kp) {
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    run_child_until_kill(solver, dir, phys, kp);
    ::_exit(40);  // unreachable
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return false;
  return WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
}

#endif  // FINCH_HAVE_FORK

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  bench::print_header("Durability",
                      "crash-restart sweep, resource-fault degradation, cancel/resume");
  bench::JsonBench json = bench::bench_json("bench_durability", args);

  const BteScenario s = small_scenario();
  auto phys = std::make_shared<const BtePhysics>(s.nbands, s.ndirs);
  const bool fast = std::getenv("FINCH_BENCH_FAST") != nullptr;

  // ---- act 1: seeded SIGKILL sweep over all three solvers -------------------
#ifdef FINCH_HAVE_FORK
  const int step_kills = fast ? 2 : 4;
  const int midwrite_kills = fast ? 1 : 2;
  std::printf("%-6s %10s %12s %9s %10s %9s\n", "solver", "kills", "mid-write", "killed",
              "resumed", "bit-exact");

  int64_t total_kills = 0, total_exact = 0;
  for (const char* solver : {"cell", "band", "mgpu"}) {
    const FinalState ref = reference_run(solver, phys);
    int64_t killed = 0, resumed = 0, exact = 0;
    std::vector<KillPoint> points;
    for (int k = 0; k < step_kills; ++k) {
      // Seeded step-boundary kill points in [1, kSteps - 1], spread by a
      // splitmix-style mix of (seed, solver length, k).
      uint64_t x = args.seed + 0x9e3779b97f4a7c15ULL *
                                   (static_cast<uint64_t>(k) * 3 + std::string(solver).size());
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ULL;
      x ^= x >> 27;
      points.push_back({.step = 1 + static_cast<int>(x % (kSteps - 1)), .ckpt_write = -1});
    }
    for (int k = 0; k < midwrite_kills; ++k)
      points.push_back({.step = -1, .ckpt_write = 2 + k});  // 2nd write is step 4's

    for (size_t k = 0; k < points.size(); ++k) {
      const std::string dir =
          fresh_dir(std::string(solver) + "_kill" + std::to_string(k));
      if (!crash_child(solver, dir, phys, points[k])) continue;
      killed += 1;
      try {
        const FinalState fin = resume_and_finish(solver, dir, phys);
        resumed += 1;
        if (bitwise_equal(fin.T, ref.T) && bitwise_equal(fin.I, ref.I)) exact += 1;
      } catch (const std::exception& e) {
        std::printf("  FAIL %s kill %zu: %s\n", solver, k, e.what());
      }
    }
    total_kills += static_cast<int64_t>(points.size());
    total_exact += exact;
    std::printf("%-6s %10d %12d %9lld %10lld %9lld\n", solver, step_kills, midwrite_kills,
                static_cast<long long>(killed), static_cast<long long>(resumed),
                static_cast<long long>(exact));
    json.begin_row();
    json.cell("solver", solver[0] == 'c' ? 0 : (solver[0] == 'b' ? 1 : 2));
    json.cell("kill_points", static_cast<double>(points.size()));
    json.cell("killed", static_cast<double>(killed));
    json.cell("resumed", static_cast<double>(resumed));
    json.cell("bit_exact", static_cast<double>(exact));
  }
  check(total_exact == total_kills,
        "every SIGKILL point (incl. mid-checkpoint-write) restarted bit-exact: " +
            std::to_string(total_exact) + "/" + std::to_string(total_kills));
  json.set("kills_total", static_cast<double>(total_kills));
  json.set("kills_bit_exact", static_cast<double>(total_exact));
#else
  std::printf("fork() unavailable on this platform; crash sweep skipped\n");
#endif

  // ---- act 2: resource-exhaustion storm on a tight budget -------------------
  // AllocFailure/MemoryPressure fire repeatedly while the budget barely fits
  // the device mirrors; the relief chain (drop previous checkpoint generation,
  // shrink scratch, spill images to disk) absorbs every fire, and the finished
  // field is still bit-identical to the fault-free run — degradation spends
  // bytes and virtual time, never correctness.
  {
    const FinalState ref = reference_run("mgpu", phys);
    const std::string dir = fresh_dir("mgpu_storm");
    rt::FaultInjector inj(args.seed);
    inj.set_policy(rt::FaultKind::AllocFailure,
                   {.probability = 0, .first_event = 1, .every = 3});
    inj.set_policy(rt::FaultKind::MemoryPressure,
                   {.probability = 0, .first_event = 2, .every = 2});
    // Tight: the device mirrors occupy most of it, so a MemoryPressure spike
    // (halved effective capacity) genuinely overflows and forces reliefs.
    rt::MemoryBudget budget(int64_t{256} << 10);
    MultiGpuSolver sol(s, phys, kParts);
    ResilienceOptions opt = durable_options(dir);
    opt.injector = &inj;
    opt.memory = &budget;
    sol.enable_resilience(opt);
    sol.run(kSteps);
    const ResilienceStats& rs = sol.resilience_stats();
    std::printf("resource storm: %lld alloc failures, %lld pressure events, %lld reliefs "
                "(%lld bytes), peak %lld/%lld bytes\n",
                static_cast<long long>(rs.alloc_failures),
                static_cast<long long>(rs.pressure_events),
                static_cast<long long>(rs.reliefs), static_cast<long long>(rs.relieved_bytes),
                static_cast<long long>(budget.peak()), static_cast<long long>(budget.capacity()));
    check(rs.alloc_failures > 0 && rs.pressure_events > 0,
          "resource faults actually fired (" + std::to_string(rs.alloc_failures) + " alloc, " +
              std::to_string(rs.pressure_events) + " pressure)");
    check(rs.reliefs > 0, "graceful degradation ran the relief chain " +
                              std::to_string(rs.reliefs) + " times before any fatal path");
    check(bitwise_equal(sol.temperature(), ref.T) && bitwise_equal(sol.gather_intensity(), ref.I),
          "resource storm run is bit-identical to the fault-free reference");
    json.set("storm_alloc_failures", static_cast<double>(rs.alloc_failures));
    json.set("storm_pressure_events", static_cast<double>(rs.pressure_events));
    json.set("storm_reliefs", static_cast<double>(rs.reliefs));
    json.set("storm_relieved_bytes", static_cast<double>(rs.relieved_bytes));
  }

  // ---- act 3: cooperative cancel drains, then the job resumes ---------------
  {
    const FinalState ref = reference_run("cell", phys);
    const std::string dir = fresh_dir("cell_cancel");
    rt::CancelToken cancel;
    cancel.set_step_deadline(kSteps / 2);
    {
      CellPartitionedSolver sol(s, phys, kParts);
      ResilienceOptions opt = durable_options(dir);
      opt.cancel = &cancel;
      sol.enable_resilience(opt);
      sol.run(kSteps);
      check(sol.step_index() == kSteps / 2 && sol.resilience_stats().cancel_drains == 1,
            "deadline drained the run at step " + std::to_string(sol.step_index()) +
                " with a final checkpoint");
    }
    const std::optional<rt::Generation> drained = rt::find_latest_generation(dir);
    const std::string reason = drained ? drained->manifest.cancel_reason : "";
    check(reason == "deadline: steps", "final generation records the drain reason ('" + reason +
                                           "')");
    const FinalState fin = resume_and_finish("cell", dir, phys);
    check(fin.resumed_step == kSteps / 2 && bitwise_equal(fin.T, ref.T) &&
              bitwise_equal(fin.I, ref.I),
          "cancelled job resumed from step " + std::to_string(fin.resumed_step) +
              " and finished bit-exact");
    json.set("cancel_drain_step", static_cast<double>(kSteps / 2));
  }

  return bench::finish_bench(json, args);
}
