// Full command-line driver for the BTE solvers — the "downstream user" entry
// point. Selects scenario, discretization, execution strategy and outputs
// from flags; every execution strategy in the library is reachable:
//
//   bte_cli --nx 32 --ny 32 --dirs 8 --bands 8 --steps 200
//   bte_cli --solver direct                # hand-written baseline
//   bte_cli --solver dsl --threads 4       # DSL-generated, thread pool
//   bte_cli --solver gpu                   # hybrid with one simulated GPU
//   bte_cli --solver multigpu --devices 4  # band-partitioned across devices
//   bte_cli --solver cellpart --parts 4    # distributed cell partitioning
//   bte_cli --scenario corner --vtk out.vtk --csv out.csv
//
// Durable runs (cellpart / bandpart / multigpu): --durable DIR commits every
// --ckpt-interval steps one checkpoint_<seq>.bin generation file into DIR,
// each carrying its run manifest; --cancel-after-steps N drains cleanly at
// step N, and --resume continues a killed/drained job bit-exactly from the
// newest readable generation (from step 0 when DIR holds none; exit 1 when
// every generation in DIR is unreadable):
//
//   bte_cli --solver cellpart --durable job/ --steps 200 --cancel-after-steps 50
//   bte_cli --solver cellpart --durable job/ --steps 200 --resume
//
// Batch mode: --jobs FILE hands a JSON job list ({"jobs":[...]}, see
// svc/job_file.hpp) to the job scheduler (svc/scheduler.hpp), which drives
// every job to a terminal state under retry/quarantine/admission/deadline
// policies. It runs one attempt at a time by default; --max-concurrency N
// runs up to N at once, with deficit-round-robin fair share across the job
// file's "tenant" labels. A job file with any invalid job is refused whole
// (exit 1, nothing written). With --durable ROOT each job keeps
// <ROOT>/<id>/ durable state and a re-run of the same command after a crash
// re-adopts in-flight jobs and skips already terminal ones. --budget-mb N
// arms admission control against a shared memory budget (jobs degrade down
// their fallback ladder or are shed); a job waiting out a retry backoff
// keeps its reservation. --queue-capacity M bounds the admission queue:
// overflow arrivals are shed lowest-priority-first or refused by
// backpressure with a retry-after hint (exit 5; they never enter the
// system, so no terminal record is written).
//
// Exit codes (single run and batch; batch takes the worst across jobs):
//   0  completed        all steps ran
//   1  usage error      bad flags / malformed or invalid job file / --resume
//                       on a durable dir whose every generation is unreadable
//   2  cancelled        a deadline drained the run (resumable when durable)
//   3  failed           solver threw, or a batch job was shed / not runnable
//   4  quarantined      the poison circuit breaker tripped (batch only)
//   5  rejected         backpressure refused admission (bounded queue full)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bte/bte_problem.hpp"
#include "bte/direct_solver.hpp"
#include "bte/multi_gpu_solver.hpp"
#include "bte/partitioned_solver.hpp"
#include "bte/resilience.hpp"
#include "mesh/vtk_io.hpp"
#include "runtime/cancel.hpp"
#include "runtime/checkpoint.hpp"
#include "svc/job_file.hpp"
#include "svc/scheduler.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/stat.h>
#include <sys/types.h>
#endif

using namespace finch;
using namespace finch::bte;

namespace {

struct Options {
  BteScenario scenario = BteScenario::small();
  std::string solver = "dsl";
  int threads = 0;
  int devices = 1;
  int parts = 2;
  std::string vtk, csv;
  std::string durable;          // directory for checkpoint generations
  bool resume = false;          // continue from the newest generation in `durable`
  int ckpt_interval = 16;       // durable checkpoint period (steps)
  long cancel_after_steps = 0;  // > 0: drain at this step deadline
  std::string jobs;             // batch mode: JSON job file for the scheduler
  long budget_mb = 0;           // > 0: admission-control memory budget (batch)
  int max_concurrency = 1;      // batch: attempts in flight at once
  int queue_capacity = 0;       // > 0: bounded admission queue (backpressure)
};

void usage() {
  std::printf(
      "usage: bte_cli [options]\n"
      "  --scenario hotspot|corner|paper   problem setup (default hotspot, scaled)\n"
      "  --nx N --ny N                     grid resolution\n"
      "  --dirs N --bands N                angular / spectral discretization\n"
      "  --steps N --dt SECONDS            time integration\n"
      "  --solver dsl|direct|gpu|multigpu|cellpart|bandpart\n"
      "  --backend vm|native|auto          kernel backend for the dsl solver:\n"
      "                                    bytecode VM, JIT-compiled native kernels,\n"
      "                                    or native-when-available (default: the\n"
      "                                    FINCH_BACKEND env var, else vm)\n"
      "  --threads N                       thread pool for the dsl solver\n"
      "  --devices N                       simulated GPUs for multigpu\n"
      "  --parts N                         ranks for cellpart/bandpart\n"
      "  --vtk FILE --csv FILE             temperature field outputs\n"
      "  --durable DIR                     durable run: on-disk checkpoint generations\n"
      "                                    in DIR (cellpart/bandpart/multigpu)\n"
      "  --ckpt-interval N                 durable checkpoint period in steps (default 16)\n"
      "  --resume                          continue bit-exactly from DIR's newest\n"
      "                                    readable generation (step 0 when none)\n"
      "  --cancel-after-steps N            drain cleanly (final checkpoint generation)\n"
      "                                    once N total steps have completed\n"
      "  --jobs FILE                       batch mode: run a JSON job list under the\n"
      "                                    job scheduler (--durable ROOT keeps\n"
      "                                    per-job state; re-runs adopt orphans)\n"
      "  --budget-mb N                     batch admission-control memory budget\n"
      "  --max-concurrency N               batch: run up to N attempts at once with\n"
      "                                    fair share across tenants (default 1)\n"
      "  --queue-capacity N                batch: bound the admission queue; overflow\n"
      "                                    arrivals are shed (low priority) or\n"
      "                                    rejected with a retry-after hint\n"
      "exit codes: 0 completed, 1 usage error, invalid job file or unreadable\n"
      "            generations on --resume, 2 cancelled/drained,\n"
      "            3 failed/shed, 4 quarantined, 5 rejected by backpressure\n");
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    const std::string a = argv[i];
    const char* v = nullptr;
    if (a == "--help" || a == "-h") return false;
    if (a == "--scenario") {
      if ((v = next("--scenario")) == nullptr) return false;
      if (std::strcmp(v, "hotspot") == 0) o.scenario = BteScenario::small();
      else if (std::strcmp(v, "corner") == 0) o.scenario = BteScenario::corner();
      else if (std::strcmp(v, "paper") == 0) o.scenario = BteScenario::paper_hotspot();
      else { std::fprintf(stderr, "unknown scenario %s\n", v); return false; }
    } else if (a == "--nx") { if ((v = next(a.c_str())) == nullptr) return false; o.scenario.nx = std::atoi(v); }
    else if (a == "--ny") { if ((v = next(a.c_str())) == nullptr) return false; o.scenario.ny = std::atoi(v); }
    else if (a == "--dirs") { if ((v = next(a.c_str())) == nullptr) return false; o.scenario.ndirs = std::atoi(v); }
    else if (a == "--bands") { if ((v = next(a.c_str())) == nullptr) return false; o.scenario.nbands = std::atoi(v); }
    else if (a == "--steps") { if ((v = next(a.c_str())) == nullptr) return false; o.scenario.nsteps = std::atoi(v); }
    else if (a == "--dt") { if ((v = next(a.c_str())) == nullptr) return false; o.scenario.dt = std::atof(v); }
    else if (a == "--solver") { if ((v = next(a.c_str())) == nullptr) return false; o.solver = v; }
    else if (a == "--backend") {
      if ((v = next(a.c_str())) == nullptr) return false;
      if (std::strcmp(v, "vm") != 0 && std::strcmp(v, "native") != 0 && std::strcmp(v, "auto") != 0) {
        std::fprintf(stderr, "unknown backend %s (expected vm, native or auto)\n", v);
        return false;
      }
      o.scenario.backend = v;
    }
    else if (a == "--threads") { if ((v = next(a.c_str())) == nullptr) return false; o.threads = std::atoi(v); }
    else if (a == "--devices") { if ((v = next(a.c_str())) == nullptr) return false; o.devices = std::atoi(v); }
    else if (a == "--parts") { if ((v = next(a.c_str())) == nullptr) return false; o.parts = std::atoi(v); }
    else if (a == "--vtk") { if ((v = next(a.c_str())) == nullptr) return false; o.vtk = v; }
    else if (a == "--csv") { if ((v = next(a.c_str())) == nullptr) return false; o.csv = v; }
    else if (a == "--durable") { if ((v = next(a.c_str())) == nullptr) return false; o.durable = v; }
    else if (a == "--ckpt-interval") { if ((v = next(a.c_str())) == nullptr) return false; o.ckpt_interval = std::atoi(v); }
    else if (a == "--resume") { o.resume = true; }
    else if (a == "--cancel-after-steps") { if ((v = next(a.c_str())) == nullptr) return false; o.cancel_after_steps = std::atol(v); }
    else if (a == "--jobs") { if ((v = next(a.c_str())) == nullptr) return false; o.jobs = v; }
    else if (a == "--budget-mb") { if ((v = next(a.c_str())) == nullptr) return false; o.budget_mb = std::atol(v); }
    else if (a == "--max-concurrency") { if ((v = next(a.c_str())) == nullptr) return false; o.max_concurrency = std::atoi(v); }
    else if (a == "--queue-capacity") { if ((v = next(a.c_str())) == nullptr) return false; o.queue_capacity = std::atoi(v); }
    else { std::fprintf(stderr, "unknown option %s\n", a.c_str()); return false; }
  }
  return true;
}

// Drives one of the distributed solvers for `nsteps`, honoring the durable /
// resume / cancel flags; `resume_point` is what --resume found in the durable
// dir. Returns the step the run actually stopped at (equal to nsteps unless a
// deadline drained it first, in which case `drained` is set and the process
// exits 2).
template <typename Solver>
int64_t drive(Solver& solver, const Options& o, const std::optional<rt::Generation>& resume_point,
              int nsteps, bool& drained) {
  if (o.durable.empty() && o.cancel_after_steps <= 0) {
    solver.run(nsteps);
    return solver.step_index();
  }
  rt::CancelToken cancel;
  ResilienceOptions ropt;
  ropt.checkpoint.interval = o.ckpt_interval;
  ropt.durable.dir = o.durable;
  if (o.cancel_after_steps > 0) {
    cancel.set_step_deadline(o.cancel_after_steps);
    ropt.cancel = &cancel;
  }
  if (resume_point) {
    solver.resume_from(*resume_point, ropt);
    const std::string& reason = resume_point->manifest.cancel_reason;
    std::printf("resumed from %s at step %lld%s%s\n", resume_point->path.c_str(),
                static_cast<long long>(solver.step_index()),
                reason.empty() ? "" : ", previously drained: ", reason.c_str());
  } else {
    if (o.resume)
      std::printf("no checkpoint generation in %s; starting at step 0\n", o.durable.c_str());
#if defined(__unix__) || defined(__APPLE__)
    if (!o.durable.empty()) ::mkdir(o.durable.c_str(), 0755);
#endif
    solver.enable_resilience(ropt);
  }
  const int remaining = nsteps - static_cast<int>(solver.step_index());
  if (remaining > 0) solver.run(remaining);
  if (solver.resilience_stats().cancel_drains > 0) {
    drained = true;
    std::printf("drained at step %lld (%s); resume with --resume\n",
                static_cast<long long>(solver.step_index()),
                cancel.drain_reason(solver.step_index(), 0.0).c_str());
  }
  return solver.step_index();
}

void report(const std::vector<double>& T, double elapsed_ns) {
  double lo = 1e300, hi = -1e300, mean = 0;
  for (double t : T) {
    lo = std::min(lo, t);
    hi = std::max(hi, t);
    mean += t;
  }
  mean /= static_cast<double>(T.size());
  std::printf("t = %.3f ns: T in [%.3f, %.3f] K, mean %.3f K\n", elapsed_ns, lo, hi, mean);
}

int exit_code_for(svc::TerminalState s) {
  switch (s) {
    case svc::TerminalState::Completed: return 0;
    case svc::TerminalState::Cancelled: return 2;
    case svc::TerminalState::Quarantined: return 4;
    default: return 3;  // Shed or (impossibly) non-terminal
  }
}

// A re-run of the same command skips jobs that already reached a terminal
// state instead of re-executing (or double-submitting) them.
void skip_already_terminal(const Options& o, const std::vector<svc::JobSpec>& jobs,
                           std::set<std::string>& skip, int& worst) {
  for (const svc::JobSpec& j : jobs) {
    const std::string tpath = o.durable + "/" + j.id + "/terminal.json";
    if (skip.count(j.id) != 0 || !svc::file_exists(tpath)) continue;
    svc::TerminalState st = svc::TerminalState::Pending;
    std::string detail;
    try {
      svc::terminal_from_json(svc::read_text_file(tpath), &st, &detail);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "job %s: damaged terminal record (%s), re-running\n", j.id.c_str(),
                   e.what());
      continue;
    }
    std::printf("%-14s %-12s (previous run: %s)\n", j.id.c_str(), svc::terminal_state_name(st),
                detail.c_str());
    worst = std::max(worst, exit_code_for(st));
    skip.insert(j.id);
  }
}

void print_outcome(const svc::JobOutcome& out) {
  std::printf("%-14s %-12s step %lld/%d  attempts %zu%s%s  %s\n", out.spec.id.c_str(),
              svc::terminal_state_name(out.state), static_cast<long long>(out.final_step),
              out.spec.nsteps, out.attempts.size(), out.adopted ? "  [adopted]" : "",
              out.degraded_rung >= 0 ? "  [degraded]" : "", out.detail.c_str());
  if (!out.repro_path.empty()) std::printf("  quarantine repro: %s\n", out.repro_path.c_str());
}

// Batch mode: the job list becomes an arrival schedule (everything arrives
// at virtual time zero, in file order) for the scheduler. Exits with the
// worst per-job code (5 rejected > 4 quarantined > 3 failed/shed >
// 2 cancelled > 0 completed), or 1 when the flags or the job list are
// refused before anything runs.
int run_batch(const Options& o) {
  std::vector<svc::JobSpec> jobs;
  try {
    jobs = svc::jobs_from_json(svc::read_text_file(o.jobs));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad job file %s: %s\n", o.jobs.c_str(), e.what());
    return 1;
  }
  rt::MemoryBudget budget(o.budget_mb * 1000000);
  svc::SchedulerOptions sopt;
  sopt.supervisor.durable_root = o.durable;
  sopt.supervisor.defense.checkpoint_interval = o.ckpt_interval;
  sopt.supervisor.memory = o.budget_mb > 0 ? &budget : nullptr;
  sopt.max_concurrency = o.max_concurrency;
  sopt.queue_capacity = o.queue_capacity;

  int worst = 0;
  svc::ScheduleResult res;
  try {
    svc::Scheduler sched(o.scenario, sopt);
    std::set<std::string> skip;  // already terminal or re-adopted
    if (!o.durable.empty()) {
      for (const std::string& id : sched.adopt_orphans()) {
        std::printf("re-adopted orphaned job %s (durable state survived)\n", id.c_str());
        skip.insert(id);
      }
      skip_already_terminal(o, jobs, skip, worst);
    }
    std::vector<svc::Arrival> arrivals;
    for (svc::JobSpec& j : jobs) {
      if (skip.count(j.id) != 0) continue;
      svc::Arrival a;
      a.spec = std::move(j);
      arrivals.push_back(std::move(a));
    }
    res = sched.run(std::move(arrivals));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scheduler refused the batch: %s\n", e.what());
    return 1;
  }
  for (const svc::JobOutcome& out : res.outcomes) {
    print_outcome(out);
    worst = std::max(worst, exit_code_for(out.state));
  }
  for (const svc::RejectAudit& r : res.stats.rejects) {
    std::printf("%-14s rejected     backpressure (tenant %s), retry after %.3g s\n", r.id.c_str(),
                r.tenant.c_str(), r.retry_after_s);
    worst = std::max(worst, 5);
  }
  std::printf("scheduler: %d dispatched, %d retries, %zu shed, %zu rejected, "
              "max queue depth %zu, drained at t=%.3f s (virtual)\n",
              res.stats.dispatched, res.stats.retries, res.stats.shed_audits.size(),
              res.stats.rejects.size(), res.stats.max_queue_depth, res.stats.drain_vtime_s);
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    usage();
    return 1;
  }
  if (!o.jobs.empty()) return run_batch(o);
  const bool durable_flags = !o.durable.empty() || o.resume || o.cancel_after_steps > 0;
  const bool durable_solver =
      o.solver == "cellpart" || o.solver == "bandpart" || o.solver == "multigpu";
  if (o.resume && o.durable.empty()) {
    std::fprintf(stderr, "--resume requires --durable DIR (the generations' directory)\n");
    return 1;
  }
  if (durable_flags && !durable_solver) {
    std::fprintf(stderr, "--durable/--resume/--cancel-after-steps require "
                         "--solver cellpart|bandpart|multigpu\n");
    return 1;
  }
  std::optional<rt::Generation> resume_point;
  if (o.resume) {
    try {
      resume_point = rt::find_latest_generation(o.durable);
    } catch (const rt::CheckpointError& e) {
      std::fprintf(stderr, "cannot resume: %s\n", e.what());
      return 1;
    }
  }
  const BteScenario& s = o.scenario;
  auto phys = std::make_shared<const BtePhysics>(s.nbands, s.ndirs);
  std::printf("bte_cli: %dx%d cells, %d dirs, %d bands (%d resolved), %d steps, solver=%s\n", s.nx,
              s.ny, s.ndirs, s.nbands, phys->num_bands(), s.nsteps, o.solver.c_str());

  std::vector<double> T;
  bool drained = false;
  try {
  if (o.solver == "direct") {
    DirectSolver solver(s, phys);
    solver.run(s.nsteps);
    T = solver.temperature();
    report(T, solver.time() * 1e9);
    std::printf("phases: intensity %.3f s, temperature %.3f s\n", solver.intensity_seconds(),
                solver.temperature_seconds());
  } else if (o.solver == "multigpu") {
    MultiGpuSolver solver(s, phys, o.devices);
    drive(solver, o, resume_point, s.nsteps, drained);
    T = solver.temperature();
    report(T, s.nsteps * s.dt * 1e9);
    const auto& ph = solver.phases();
    std::printf("modeled phases: intensity %.4f s, temperature %.4f s, comm %.4f s\n", ph.compute,
                ph.post_process, ph.communication);
    for (int d = 0; d < solver.nparts(); ++d)
      std::printf("  device %d: %lld launches, %.1f MB moved\n", d,
                  static_cast<long long>(solver.device(d).counters().kernel_launches),
                  (solver.device(d).counters().bytes_h2d + solver.device(d).counters().bytes_d2h) / 1e6);
  } else if (o.solver == "cellpart") {
    CellPartitionedSolver solver(s, phys, o.parts);
    drive(solver, o, resume_point, s.nsteps, drained);
    T = solver.gather_temperature();
    report(T, s.nsteps * s.dt * 1e9);
    std::printf("halo exchange: %.2f MB/step over %lld messages\n",
                solver.comm().bytes_per_step / 1e6,
                static_cast<long long>(solver.comm().messages_per_step));
  } else if (o.solver == "bandpart") {
    BandPartitionedSolver solver(s, phys, o.parts);
    drive(solver, o, resume_point, s.nsteps, drained);
    T = solver.temperature();
    report(T, s.nsteps * s.dt * 1e9);
    std::printf("band gather: %.2f MB/step\n", solver.comm().bytes_per_step / 1e6);
  } else if (o.solver == "dsl" || o.solver == "gpu") {
    BteProblem bp(s, phys);
    std::unique_ptr<rt::ThreadPool> pool;
    rt::SimGpu gpu(rt::GpuSpec::a6000());
    if (o.solver == "gpu") bp.problem().use_cuda(&gpu);
    if (o.threads > 0) {
      pool = std::make_unique<rt::ThreadPool>(static_cast<unsigned>(o.threads));
      bp.problem().use_threads(pool.get());
    }
    auto solver = bp.compile();
    solver->run(s.nsteps);
    T = bp.temperature();
    report(T, solver->time() * 1e9);
    const auto& ph = solver->phases();
    std::printf("phases: intensity %.3f s, temperature %.3f s, comm %.4f s\n", ph.intensity,
                ph.post_process, ph.communication);
    if (o.solver == "gpu")
      std::printf("simulated GPU: %lld launches, H2D %.1f MB, D2H %.1f MB\n",
                  static_cast<long long>(gpu.counters().kernel_launches), gpu.counters().bytes_h2d / 1e6,
                  gpu.counters().bytes_d2h / 1e6);
  } else {
    std::fprintf(stderr, "unknown solver %s\n", o.solver.c_str());
    usage();
    return 1;
  }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run failed: %s\n", e.what());
    return 3;
  }

  if (!o.csv.empty()) {
    FILE* f = std::fopen(o.csv.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "x,y,T\n");
      const double hx = s.lx / s.nx, hy = s.ly / s.ny;
      for (int j = 0; j < s.ny; ++j)
        for (int i = 0; i < s.nx; ++i)
          std::fprintf(f, "%g,%g,%g\n", (i + 0.5) * hx, (j + 0.5) * hy,
                       T[static_cast<size_t>(j * s.nx + i)]);
      std::fclose(f);
      std::printf("wrote %s\n", o.csv.c_str());
    }
  }
  if (!o.vtk.empty()) {
    mesh::Mesh m = mesh::Mesh::structured_quad(s.nx, s.ny, s.lx, s.ly);
    mesh::write_vtk_cells_file(o.vtk, m, s.nx, s.ny, 1, "temperature", T);
    std::printf("wrote %s\n", o.vtk.c_str());
  }
  return drained ? 2 : 0;
}
