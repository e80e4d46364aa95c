// Repository benchmark: §III.A time-to-solution on the native and
// cell-partitioned solver paths, finch::svc job throughput, and a traced
// per-layer breakdown (README.md in this directory has the metric map).
//
//   finch_perfbench --workload hotspot-native|hotspot-cellpart|svc-mixed
//                   --seed N --seconds S --run-dir DIR
//                   [--trace FILE --metrics-json FILE]
//
// Without --trace the run reports the end-to-end metrics; with it, the
// per-layer metrics, measured by timing calls into each module's public API
// from this file (each call is wrapped in a `layer.*` span). Inputs derive
// from --seed only. Output checks run outside the timed regions. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. run.py builds and drives this binary.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bte/bte_problem.hpp"
#include "bte/direct_solver.hpp"
#include "bte/partitioned_solver.hpp"
#include "bte/solver_factory.hpp"
#include "bte/supervisor_campaign.hpp"
#include "core/codegen/native_backend.hpp"
#include "fig_common.hpp"
#include "host_probe.hpp"
#include "mesh/partition.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/manifest.hpp"
#include "runtime/metrics.hpp"
#include "runtime/trace.hpp"
#include "svc/scheduler.hpp"

using namespace finch;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- workload shapes ---------------------------------------------------------

constexpr int kHotspotSteps = 100;
constexpr int kCellParts = 4;
constexpr int kSvcJobs = 300;
constexpr int kSvcSlots = 2;
constexpr int kSetupSamplesPerSolve = 3;
constexpr double kRelTolerance = 1e-10;  // DirectSolver cross-check bar

uint64_t splitmix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double unit_draw(uint64_t seed, uint64_t k) {
  return static_cast<double>(splitmix(seed ^ splitmix(k)) >> 11) * 0x1.0p-53;
}

// §III.A-shaped hot spot: 48x48 cells x 20 directions x 40 spectral bands (55
// resolved, 1100 DOF/cell). The seed moves, widens and heats the spot, which
// changes the field but not the work.
bte::BteScenario hotspot_scenario(uint64_t seed) {
  bte::BteScenario s = bte::BteScenario::small();
  s.nx = s.ny = 48;
  s.ndirs = 20;
  s.nbands = 40;
  s.nsteps = kHotspotSteps;
  s.backend = "native";
  s.hot_center_frac = 0.35 + 0.30 * unit_draw(seed, 1);
  s.hot_w = 8e-6 + 4e-6 * unit_draw(seed, 2);
  s.T_hot = 340.0 + 20.0 * unit_draw(seed, 3);
  return s;
}

// Base physics of every svc job (each job overrides the discretization).
bte::BteScenario svc_base_scenario() {
  bte::BteScenario s = bench::small_scenario();
  s.backend = "native";
  return s;
}

bte::StreamShape svc_stream_shape() {
  bte::StreamShape shape;
  shape.njobs = kSvcJobs;
  shape.chaos_fraction = 0.20;
  shape.flaky_fraction = 0.10;
  shape.deadline_fraction = 0.0;
  shape.poison_fraction = 0.0;
  shape.oversized_fraction = 0.0;
  return shape;
}

svc::SchedulerOptions svc_options(const std::string& durable_root) {
  svc::SchedulerOptions o;
  o.max_concurrency = kSvcSlots;
  o.queue_capacity = 0;  // unbounded: a closed batch, nothing rejected or shed
  o.supervisor.durable_root = durable_root;
  // bench_supervisor act 3 scaling: jobs run in milliseconds, so the default
  // half-second backoff base would dominate the virtual clock.
  o.supervisor.retry.backoff_base_s = 0.002;
  o.supervisor.retry.backoff_max_s = 0.032;
  return o;
}

// ---- statistics and reporting ------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, p in [0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, idx == 0 ? 0 : idx - 1)];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double counter(const char* name) { return rt::MetricsRegistry::global().value(name); }

double max_rel_error(const std::vector<double>& got, const std::vector<double>& ref) {
  if (got.size() != ref.size() || ref.empty()) return INFINITY;
  double worst = 0.0;
  for (size_t i = 0; i < ref.size(); ++i) {
    const double e = std::abs(got[i] - ref[i]) / (std::abs(ref[i]) + 1e-300);
    if (!(e <= worst)) worst = e;  // NaN propagates as a failure
  }
  return worst;
}

struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }

  void print() const {
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
                failed == 0 && attempted > 0 ? "true" : "false",
                static_cast<long long>(attempted), static_cast<long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
      const auto& [name, vu] = metrics[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  name.c_str(), vu.first, vu.second.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

// Times one call into a layer and records it as a `layer.*` span.
template <typename Fn>
double timed_layer(const char* span_name, Fn&& fn) {
  rt::TraceSpan span(span_name);
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

// ---- hotspot solves ----------------------------------------------------------

struct SolveRun {
  double physics_s = 0.0;  // BtePhysics tables
  double compile_s = 0.0;  // problem build + compile + JIT load, or solver construction
  double setup_s = 0.0;
  std::vector<double> step_s;
  std::vector<double> T;
  // Native path only: kernel execution over the steady steps and the VM work
  // of the first-sweep verification.
  double jit_exec_s = 0.0, jit_evals = 0.0, verify_vm_flops = 0.0;
  double post_process_s = 0.0;
  // Cell-partitioned path only.
  rt::PhaseTimes phases;
  bte::CommVolume comm;

  double tts_s() const { return setup_s + sum(step_s); }
  std::vector<double> steady_steps() const {
    return step_s.size() > 1 ? std::vector<double>(step_s.begin() + 1, step_s.end()) : step_s;
  }
};

// One serial DSL solve on the native backend, starting from an empty
// in-process kernel cache so every solve pays the on-disk cache lookup and
// dlopen a fresh process would.
SolveRun solve_native(const bte::BteScenario& s, int nsteps) {
  SolveRun r;
  codegen::reset_native_memory_cache();
  const auto t0 = Clock::now();
  std::shared_ptr<const bte::BtePhysics> phys;
  r.physics_s = timed_layer("layer.bte.physics_build",
                            [&] { phys = std::make_shared<bte::BtePhysics>(s.nbands, s.ndirs); });
  std::unique_ptr<bte::BteProblem> bp;
  std::unique_ptr<dsl::Solver> solver;
  r.compile_s = timed_layer("layer.core.dsl_compile", [&] {
    bp = std::make_unique<bte::BteProblem>(s, phys);
    solver = bp->compile();
  });
  r.setup_s = seconds_since(t0);
  for (int i = 0; i < nsteps; ++i) {
    const double flops0 = counter("vm.flops");
    if (i == 1) {
      r.jit_exec_s = -counter("jit.exec.seconds");
      r.jit_evals = -counter("jit.exec.evals");
    }
    r.step_s.push_back(timed_layer("layer.codegen.step", [&] { solver->step(); }));
    if (i == 0) r.verify_vm_flops = counter("vm.flops") - flops0;
  }
  if (nsteps > 1) {
    r.jit_exec_s += counter("jit.exec.seconds");
    r.jit_evals += counter("jit.exec.evals");
  }
  if (nsteps > 0) r.T = bp->temperature();
  r.post_process_s = solver->phases().post_process;
  return r;
}

SolveRun solve_cellpart(const bte::BteScenario& s, int nsteps) {
  SolveRun r;
  const auto t0 = Clock::now();
  std::shared_ptr<const bte::BtePhysics> phys;
  r.physics_s = timed_layer("layer.bte.physics_build",
                            [&] { phys = std::make_shared<bte::BtePhysics>(s.nbands, s.ndirs); });
  std::unique_ptr<bte::CellPartitionedSolver> solver;
  r.compile_s = timed_layer("layer.bte.cellpart_build", [&] {
    solver = std::make_unique<bte::CellPartitionedSolver>(s, phys, kCellParts,
                                                          mesh::PartitionMethod::RCB);
  });
  r.setup_s = seconds_since(t0);
  for (int i = 0; i < nsteps; ++i)
    r.step_s.push_back(timed_layer("layer.runtime.cellpart_step", [&] { solver->step(); }));
  if (nsteps > 0) r.T = solver->gather_temperature();
  r.phases = solver->phases();
  r.comm = solver->comm();
  return r;
}

struct DirectRun {
  std::vector<double> T;
  std::vector<double> step_s;
  double newton_us = 0.0;
};

// The hand-written DirectSolver on the same problem: the output reference,
// plus (traced runs) the Fig. 9 per-step baseline and a Newton micro-probe
// that replays the last step's per-cell solves: per-band sums of the final
// field, warm-started from the previous step's temperature.
DirectRun direct_reference(const bte::BteScenario& s, bool probe_newton) {
  DirectRun d;
  auto phys = std::make_shared<const bte::BtePhysics>(s.nbands, s.ndirs);
  bte::DirectSolver solver(s, phys);
  std::vector<double> T_prev;
  for (int i = 0; i < s.nsteps; ++i) {
    if (i + 1 == s.nsteps) T_prev = solver.temperature();
    d.step_s.push_back(timed_layer("layer.bte.direct_step", [&] { solver.step(); }));
  }
  d.T = solver.temperature();
  if (!probe_newton) return d;
  const int nd = phys->num_dirs(), nb = phys->num_bands();
  const int dofs = solver.dofs_per_cell();
  const std::vector<double>& I = solver.intensity();
  std::vector<std::vector<double>> G(static_cast<size_t>(solver.num_cells()),
                                     std::vector<double>(static_cast<size_t>(nb), 0.0));
  for (int c = 0; c < solver.num_cells(); ++c)
    for (int b = 0; b < nb; ++b)
      for (int dd = 0; dd < nd; ++dd)
        G[static_cast<size_t>(c)][static_cast<size_t>(b)] +=
            phys->directions.weight[static_cast<size_t>(dd)] *
            I[static_cast<size_t>(c) * dofs + static_cast<size_t>(nd) * b + dd];
  double Tsum = 0.0;
  int64_t calls = 0;
  const double secs = timed_layer("layer.bte.newton", [&] {
    for (int rep = 0; rep < 5; ++rep)
      for (size_t c = 0; c < G.size(); ++c, ++calls)
        Tsum += phys->table.solve_temperature(G[c], T_prev[c]);
  });
  if (!std::isfinite(Tsum)) std::fprintf(stderr, "newton probe: non-finite temperature\n");
  d.newton_us = secs / static_cast<double>(calls) * 1e6;
  return d;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string run_dir = ".";
  bool traced = false;
};

using SolveFn = SolveRun (*)(const bte::BteScenario&, int);

int64_t hotspot_dofs(const bte::BteScenario& s) {
  const int nb = bte::BtePhysics(s.nbands, s.ndirs).num_bands();
  return static_cast<int64_t>(s.nx) * s.ny * s.ndirs * nb;
}

// Untraced hotspot workload: one untimed warm-up solve (fills the JIT kernel
// cache), then back-to-back timed solves for --seconds, extra set-up-only
// samples, and the DirectSolver output check.
void run_hotspot(const Args& a, SolveFn solve, Report& rep) {
  const bte::BteScenario s = hotspot_scenario(a.seed);
  const int64_t dofs = hotspot_dofs(s);
  (void)solve(s, s.nsteps);

  std::vector<SolveRun> runs;
  std::vector<double> setups;
  double timed = 0.0;
  while (runs.empty() || timed < a.seconds) {
    runs.push_back(solve(s, s.nsteps));
    timed += runs.back().tts_s();
    setups.push_back(runs.back().setup_s);
    // Set-up flips between the host's fast and slow modes with the solve; a
    // few set-up-only samples per solve make the run's median less of a coin
    // toss between them.
    for (int i = 1; i < kSetupSamplesPerSolve; ++i) setups.push_back(solve(s, 0).setup_s);
    const std::vector<double> steady = runs.back().steady_steps();
    std::fprintf(stderr,
                 "solve %zu: set-up %.4f s, first step %.4f s, %zu steps %.3f s "
                 "(steady p10/p50/p90 %.2f/%.2f/%.2f ms)\n",
                 runs.size(), runs.back().setup_s, runs.back().step_s.front(),
                 runs.back().step_s.size(), sum(runs.back().step_s),
                 percentile(steady, 0.1) * 1e3, percentile(steady, 0.5) * 1e3,
                 percentile(steady, 0.9) * 1e3);
  }
  std::vector<double> tts, steady;
  for (const SolveRun& r : runs) {
    tts.push_back(r.tts_s());
    const std::vector<double> st = r.steady_steps();
    steady.insert(steady.end(), st.begin(), st.end());
  }
  // Other tenants' load only ever slows a step, and on a shared host it comes
  // and goes for seconds at a time, so the median step of a run swings up to
  // 1.4x between runs. The 10th percentile of all the run's steady steps
  // (hundreds of samples, never one lucky step) is the step the kernel
  // sustains when the host leaves it alone; a faster kernel moves it too.
  const double mdofs = static_cast<double>(dofs) / percentile(steady, 0.10) * 1e-6;
  const double rss = peak_rss_mb();

  const DirectRun ref = direct_reference(s, false);
  for (const SolveRun& r : runs) {
    rep.attempted += 1;
    const double err = max_rel_error(r.T, ref.T);
    if (!(err <= kRelTolerance)) {
      rep.failed += 1;
      std::fprintf(stderr, "output check: max relative error %.3g vs DirectSolver\n", err);
    }
  }
  std::fprintf(stderr, "%zu timed solves (%zu steady steps), %zu set-up samples\n", runs.size(),
               steady.size(), setups.size());
  rep.add("tts_s", median(tts), "s");
  rep.add("setup_s", median(setups), "s");
  rep.add("mdofs_per_s", mdofs, "MDOF/s");
  rep.add("jobs_per_s", static_cast<double>(runs.size()) / sum(tts), "1/s");
  rep.add("peak_rss_mb", rss, "MiB");
}

// ---- svc stream ----------------------------------------------------------------

struct Batch {
  double setup_s = 0.0;
  double run_s = 0.0;
  svc::ScheduleResult result;
};

std::vector<svc::Arrival> closed_batch(const std::vector<svc::JobSpec>& jobs) {
  std::vector<svc::Arrival> arrivals;
  for (const svc::JobSpec& j : jobs) arrivals.push_back(svc::Arrival{0.0, j, false});
  return arrivals;
}

// Each batch starts on an empty durable root with the previous batch's
// deletions already flushed, so no batch pays for another's disk writes.
Batch run_batch(const bte::BteScenario& base, const std::vector<svc::JobSpec>& jobs,
                const std::string& root) {
  fs::remove_all(root);
  ::sync();
  Batch b;
  std::unique_ptr<svc::Scheduler> sched;
  b.setup_s = timed_layer("layer.svc.scheduler_build", [&] {
    sched = std::make_unique<svc::Scheduler>(base, svc_options(root));
  });
  b.run_s = timed_layer("layer.svc.run", [&] { b.result = sched->run(closed_batch(jobs)); });
  return b;
}

// Jobs the oracle flags plus jobs that did not complete: each counts once.
int64_t judge_batch(bte::SupervisorCampaign& campaign, const std::vector<svc::JobSpec>& jobs,
                    const Batch& b, const std::string& root) {
  const bte::SupervisorReport rep =
      campaign.judge(jobs, b.result.outcomes, svc_options(root).supervisor);
  std::set<std::string> bad;
  for (const std::string& v : rep.violations) {
    bad.insert(v.substr(0, v.find(':')));
    std::fprintf(stderr, "oracle: %s\n", v.c_str());
  }
  for (const svc::JobOutcome& o : b.result.outcomes)
    if (o.state != svc::TerminalState::Completed) bad.insert(o.spec.id);
  return static_cast<int64_t>(bad.size()) +
         std::max<int64_t>(0, static_cast<int64_t>(jobs.size()) -
                                  static_cast<int64_t>(b.result.outcomes.size()));
}

// Useful DOF-updates of the completed jobs: cells x directions x resolved
// bands x steps of the configuration that ran.
double completed_dof_updates(const svc::ScheduleResult& res, bte::PhysicsCache& physics) {
  double total = 0.0;
  for (const svc::JobOutcome& o : res.outcomes) {
    if (o.state != svc::TerminalState::Completed) continue;
    const int nb = physics.get(o.ran.nbands, o.ran.ndirs)->num_bands();
    total += static_cast<double>(o.ran.nx) * o.ran.ny * o.ran.ndirs * nb * o.spec.nsteps;
  }
  return total;
}

void run_svc(const Args& a, Report& rep) {
  const bte::BteScenario base = svc_base_scenario();
  bte::SupervisorCampaign campaign(base);
  const std::vector<svc::JobSpec> jobs = campaign.mixed_stream(a.seed, svc_stream_shape());
  bte::PhysicsCache physics;
  const std::string root = a.run_dir + "/svc-root";

  // Untimed warm-up batch: code paths, allocator, oracle references.
  (void)judge_batch(campaign, jobs, run_batch(base, jobs, root), root);

  std::vector<double> setups, tts, jps, mdofs;
  double timed = 0.0, rss = 0.0;
  while (tts.empty() || timed < a.seconds) {
    Batch b = run_batch(base, jobs, root);
    int completed = 0;
    for (const svc::JobOutcome& o : b.result.outcomes)
      completed += o.state == svc::TerminalState::Completed ? 1 : 0;
    tts.push_back(b.setup_s + b.run_s);
    jps.push_back(completed / b.run_s);
    mdofs.push_back(completed_dof_updates(b.result, physics) / b.run_s * 1e-6);
    timed += b.setup_s + b.run_s;
    std::fprintf(stderr, "batch %zu: %d/%zu completed in %.3f s (%.1f jobs/s)\n", tts.size(),
                 completed, jobs.size(), b.run_s, jps.back());
    // Service start as after a restart: Scheduler construction plus its
    // orphan scan of the durable root this batch left (all jobs terminal).
    for (int i = 0; i < 10; ++i)
      setups.push_back(timed_layer("layer.svc.scheduler_start", [&] {
        svc::Scheduler restarted(base, svc_options(root));
        (void)restarted.adopt_orphans();
      }));
    rep.attempted += static_cast<int64_t>(jobs.size());
    rep.failed += judge_batch(campaign, jobs, b, root);
    // The peak keeps creeping up by a few MiB a batch, and a faster scheduler
    // fits more batches into the run: read it after a fixed amount of work.
    if (tts.size() == 1) rss = peak_rss_mb();
  }
  fs::remove_all(root);
  std::fprintf(stderr, "%zu timed batches of %zu jobs; set-up p10/p50/p90 %.3f/%.3f/%.3f ms\n",
               tts.size(), jobs.size(), percentile(setups, 0.1) * 1e3,
               percentile(setups, 0.5) * 1e3, percentile(setups, 0.9) * 1e3);
  rep.add("tts_s", median(tts), "s");
  rep.add("setup_s", median(setups), "s");
  rep.add("mdofs_per_s", median(mdofs), "MDOF/s");
  rep.add("jobs_per_s", median(jps), "1/s");
  rep.add("peak_rss_mb", rss, "MiB");
}

// ---- traced per-layer run ------------------------------------------------------

void set_tracing(bool on) {
  rt::TraceConfig cfg;
  cfg.enabled = on;
  cfg.max_events_per_thread = size_t{1} << 18;
  rt::Tracer::global().configure(cfg);
}

// Time-to-solution of one pass of the requested workload (the unit the
// end-to-end tts_s medians), used to price tracing.
double workload_pass(const Args& a) {
  if (a.workload == "svc-mixed") {
    const bte::BteScenario base = svc_base_scenario();
    bte::SupervisorCampaign campaign(base);
    const Batch b = run_batch(base, campaign.mixed_stream(a.seed, svc_stream_shape()),
                              a.run_dir + "/svc-root");
    return b.setup_s + b.run_s;
  }
  const bte::BteScenario s = hotspot_scenario(a.seed);
  return (a.workload == "hotspot-native" ? solve_native : solve_cellpart)(s, s.nsteps).tts_s();
}

void run_traced(const Args& a, Report& rep) {
  // Tracing overhead: alternate untraced and traced passes of the workload.
  set_tracing(false);
  (void)workload_pass(a);  // warm-up (JIT cache, allocator)
  std::vector<double> ratios;
  for (int i = 0; i < 2; ++i) {
    set_tracing(false);
    const double plain = workload_pass(a);
    set_tracing(true);
    const double traced = workload_pass(a);
    ratios.push_back(traced / plain - 1.0);
  }
  set_tracing(true);

  const bte::BteScenario s = hotspot_scenario(a.seed);
  const double cells = static_cast<double>(s.nx) * s.ny;
  const int64_t dofs = hotspot_dofs(s);
  const double dof_per_cell = static_cast<double>(dofs) / cells;

  // bte + core/dsl + core/codegen: native solves (the first of them is
  // traced end to end) after an untimed one that warms the kernel cache,
  // DirectSolver reference and Newton probe.
  (void)solve_native(s, 0);
  std::vector<SolveRun> native;
  for (int i = 0; i < 3; ++i) native.push_back(solve_native(s, i == 0 ? s.nsteps : 0));
  const SolveRun& nr = native.front();
  const DirectRun direct = direct_reference(s, true);
  std::vector<double> physics_s, compile_s;
  for (const SolveRun& r : native) {
    physics_s.push_back(r.physics_s);
    compile_s.push_back(r.compile_s);
  }

  // core/dsl: cold JIT compile into an empty cache directory, then one warm
  // lookup of the same kernel from disk.
  codegen::JitConfig& jit = codegen::jit_config();
  const std::string saved_cache = jit.cache_dir;
  jit.cache_dir = a.run_dir + "/jit-cold";
  fs::remove_all(jit.cache_dir);
  const double hits0 = counter("jit.cache.hit"), miss0 = counter("jit.cache.miss");
  auto cold_phys = std::make_shared<const bte::BtePhysics>(s.nbands, s.ndirs);
  double cold_s = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    codegen::reset_native_memory_cache();
    bte::BteProblem bp(s, cold_phys);
    const double t = timed_layer("layer.core.jit_compile", [&] { (void)bp.compile(); });
    if (pass == 0) cold_s = t;
  }
  const double jit_hits = counter("jit.cache.hit") - hits0;
  const double jit_misses = counter("jit.cache.miss") - miss0;
  fs::remove_all(jit.cache_dir);
  jit.cache_dir = saved_cache;

  // mesh + runtime: partitioner, cell-partitioned solve, durable checkpoint.
  const mesh::Mesh grid = mesh::Mesh::structured_quad(s.nx, s.ny, s.lx, s.ly);
  std::vector<double> part_s;
  for (int i = 0; i < 20; ++i)
    part_s.push_back(timed_layer("layer.mesh.partition", [&] {
      (void)mesh::partition(grid, kCellParts, mesh::PartitionMethod::RCB);
    }));
  const SolveRun cp = solve_cellpart(s, s.nsteps);

  // Checkpoint sized like one svc stream job (16x12 cells, 8 dirs, 8 bands).
  const bte::BteScenario job = svc_base_scenario();
  const auto job_phys = std::make_shared<const bte::BtePhysics>(job.nbands, job.ndirs);
  const size_t job_cells = static_cast<size_t>(job.nx) * job.ny;
  const size_t job_nb = static_cast<size_t>(job_phys->num_bands());
  rt::Snapshot snap;
  snap.step = 8;
  snap.add("I", std::vector<double>(job_cells * job_nb * job.ndirs, 1.0));
  snap.add("T", std::vector<double>(job_cells, 300.0));
  snap.add("Io", std::vector<double>(job_cells * job_nb, 1.0));
  snap.add("beta", std::vector<double>(job_cells * job_nb, 1.0));
  const std::string ckpt_dir = a.run_dir + "/ckpt-probe";
  fs::remove_all(ckpt_dir);
  fs::create_directories(ckpt_dir);
  std::vector<double> ckpt_s;
  double ckpt_bytes = 0.0;
  {
    rt::CheckpointStore store(ckpt_dir, 2);
    for (int i = 0; i < 20; ++i) {
      ckpt_s.push_back(timed_layer("layer.runtime.checkpoint", [&] {
        store.save(snap);
        rt::RunManifest m;
        m.solver = "cell";
        m.nparts = 4;
        m.last_step = store.latest_step();
        m.saves = store.saves();
        m.checkpoints = store.disk_paths();
        rt::write_manifest_atomic(ckpt_dir + "/manifest.json", m);
        ckpt_bytes = static_cast<double>(store.bytes_stored()) +
                     static_cast<double>(rt::manifest_to_json(m).size());
      }));
    }
  }
  fs::remove_all(ckpt_dir);

  // svc: one traced batch of the stream, plus each solver kind run alone.
  const bte::BteScenario base = svc_base_scenario();
  bte::SupervisorCampaign campaign(base);
  const std::vector<svc::JobSpec> jobs = campaign.mixed_stream(a.seed, svc_stream_shape());
  const double h2d0 = counter("gpu.bytes_h2d"), d2h0 = counter("gpu.bytes_d2h");
  const std::string root = a.run_dir + "/svc-root";
  const Batch batch = run_batch(base, jobs, root);
  const double gpu_h2d = counter("gpu.bytes_h2d") - h2d0;
  const double gpu_d2h = counter("gpu.bytes_d2h") - d2h0;
  int attempts = 0, resumed = 0;
  for (const svc::JobOutcome& o : batch.result.outcomes) {
    attempts += static_cast<int>(o.attempts.size());
    for (const svc::AttemptRecord& r : o.attempts) resumed += r.resumed ? 1 : 0;
  }
  bte::PhysicsCache physics;
  std::map<std::string, std::vector<double>> solo;
  for (const svc::JobSpec& j : jobs) {
    if (!j.faults.empty() || solo[j.solver].size() >= 5) continue;
    bte::BteScenario js = base;
    js.nx = j.nx;
    js.ny = j.ny;
    js.ndirs = j.ndirs;
    js.nbands = j.nbands;
    js.nsteps = j.nsteps;
    solo[j.solver].push_back(timed_layer("layer.svc.solo_job", [&] {
      bte::AnySolver solver(j.solver, js, physics.get(j.nbands, j.ndirs), j.nparts);
      solver.run(j.nsteps);
    }));
  }
  double solo_total = 0.0;
  for (const svc::JobOutcome& o : batch.result.outcomes)
    if (o.state == svc::TerminalState::Completed) solo_total += median(solo[o.ran.solver]);

  // Output checks: native and cell-partitioned fields against DirectSolver,
  // the svc batch against the campaign oracle.
  for (const SolveRun* r : {&nr, &cp}) {
    rep.attempted += 1;
    if (!(max_rel_error(r->T, direct.T) <= kRelTolerance)) rep.failed += 1;
  }
  rep.attempted += static_cast<int64_t>(jobs.size());
  rep.failed += judge_batch(campaign, jobs, batch, root);
  fs::remove_all(root);

  // host: the roofline probe last, after the solver state is gone.
  const perfbench::HostRoofline host = perfbench::measure_host_roofline();

  const std::vector<double> steady = nr.steady_steps();
  const double steady_med = median(steady);
  const double ns_per_dof = nr.jit_exec_s / nr.jit_evals * 1e9;
  const double flops_per_dof = nr.verify_vm_flops / static_cast<double>(dofs);
  // Computed, not measured: one read of I and one write of the updated field
  // per DOF, plus per-(cell, band) Io and beta and the CSR face tables (an
  // 8 B offset per cell; per face slot a 4 B neighbour, 32 B of geometry and
  // a 4 B boundary slot; four faces per cell), each streamed once per sweep.
  const double face_bytes_per_cell = 8.0 + 4.0 * (4.0 + 32.0 + 4.0);
  const double nb = static_cast<double>(dofs) / (cells * s.ndirs);
  const double bytes_per_dof =
      (16.0 * dof_per_cell + 16.0 * nb + face_bytes_per_cell) / dof_per_cell;
  const double direct_ms = median(direct.step_s) * 1e3;

  rep.add("physics.build_s", median(physics_s), "s");
  rep.add("temperature.us_per_cell", nr.post_process_s / (cells * s.nsteps) * 1e6, "us");
  rep.add("newton.us_per_call", direct.newton_us, "us");
  rep.add("direct.ms_per_step", direct_ms, "ms");
  rep.add("native_over_direct", steady_med * 1e3 / direct_ms, "ratio");
  rep.add("dsl.compile_s", median(compile_s), "s");
  rep.add("jit.compile_cold_s", cold_s, "s");
  rep.add("jit.cache_hits", jit_hits, "count");
  rep.add("jit.cache_misses", jit_misses, "count");
  rep.add("verify.s", nr.step_s.front() - steady_med, "s");
  rep.add("sweep.ns_per_dof", ns_per_dof, "ns");
  rep.add("sweep.flops_per_dof", flops_per_dof, "flop");
  rep.add("sweep.bytes_per_dof", bytes_per_dof, "B-computed");
  rep.add("sweep.bw_frac", bytes_per_dof / ns_per_dof / host.triad_gbs, "ratio");
  rep.add("sweep.flop_frac", flops_per_dof / ns_per_dof / host.fma_gflops, "ratio");
  rep.add("step.p50_ms", steady_med * 1e3, "ms");
  rep.add("step.p90_ms", percentile(steady, 0.90) * 1e3, "ms");
  rep.add("partition.s", median(part_s), "s");
  rep.add("cellpart.compute_s", cp.phases.compute, "s");
  rep.add("cellpart.temperature_s", cp.phases.post_process, "s");
  rep.add("cellpart.comm_modeled_s", cp.phases.communication, "s");
  rep.add("halo.bytes_per_step", static_cast<double>(cp.comm.bytes_per_step), "B");
  rep.add("halo.msgs_per_step", static_cast<double>(cp.comm.messages_per_step), "count");
  rep.add("ckpt.save_s", median(ckpt_s), "s");
  rep.add("ckpt.bytes", ckpt_bytes, "B");
  rep.add("gpu.bytes_h2d", gpu_h2d, "B");
  rep.add("gpu.bytes_d2h", gpu_d2h, "B");
  rep.add("svc.attempts", attempts, "count");
  rep.add("svc.retries", batch.result.stats.retries, "count");
  rep.add("svc.resumed", resumed, "count");
  for (const char* kind : {"cell", "band", "mgpu"})
    rep.add(std::string("svc.solo_job_s.") + kind, median(solo[kind]), "s");
  rep.add("svc.parallel_eff", solo_total / (batch.run_s * kSvcSlots), "ratio");
  rep.add("host.llc_bytes", static_cast<double>(host.llc_bytes), "B");
  rep.add("host.triad_bytes", static_cast<double>(host.triad_bytes), "B");
  rep.add("host.triad_gbs", host.triad_gbs, "GB/s");
  rep.add("host.fma_gflops", host.fma_gflops, "GFLOP/s");
  rep.add("trace.overhead_frac", median(ratios), "ratio");
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--workload") a.workload = argv[++i];
    else if (k == "--seed") a.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(argv[++i]);
    else if (k == "--run-dir") a.run_dir = argv[++i];
    else if (k == "--trace") {
      a.traced = true;  // fig_common's parse_bench_args owns the path
      ++i;
    }
  }
  return (a.workload == "hotspot-native" || a.workload == "hotspot-cellpart" ||
          a.workload == "svc-mixed") &&
         a.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  // --trace FILE / --metrics-json FILE: fig_common's shared plumbing arms the
  // tracer and writes both artifacts at the end.
  const bench::BenchArgs bargs = bench::parse_bench_args(argc, argv);
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: finch_perfbench --workload hotspot-native|hotspot-cellpart|svc-mixed "
                 "--seed N --seconds S --run-dir DIR [--trace FILE --metrics-json FILE]\n");
    return 2;
  }
  fs::create_directories(a.run_dir);
  Report rep;
  try {
    if (a.traced)
      run_traced(a, rep);
    else if (a.workload == "svc-mixed")
      run_svc(a, rep);
    else
      run_hotspot(a, a.workload == "hotspot-native" ? solve_native : solve_cellpart, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 3;
  }
  if (bench::finish_bench(bench::JsonBench("perfbench"), bargs) != 0) return 3;
  rep.print();
  return 0;
}
