#pragma once
// Uniform construction and driving of the three distributed BTE solvers, plus
// the memory-demand model behind supervisor admission control.
//
// The job supervisor (src/svc) and the campaign drivers dispatch on a solver
// *name* — "cell" | "band" | "mgpu" — the same strings the chaos schedules
// and run manifests record. AnySolver resolves that name once into a
// DistributedEngine; every caller then arms or resumes resilience, runs, and
// gathers the canonical global fields through that one interface.
//
// estimate_memory_demand() is the admission-control side of the fallback
// ladder: a deliberately conservative upper bound on what a configuration
// will hold in host state, retained checkpoint images, and (mgpu) device
// mirrors. Admission arithmetic runs against this estimate *before* any
// allocation happens, so a job that cannot fit is degraded or shed without
// ever touching the shared rt::MemoryBudget.

#include <cstdint>
#include <map>
#include <mutex>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bte_problem.hpp"
#include "multi_gpu_solver.hpp"
#include "partitioned_solver.hpp"
#include "resilience.hpp"

namespace finch::bte {

// Shares one immutable BtePhysics per (spectral bands, directions) pair —
// physics construction resolves the full band structure, which is far more
// expensive than any small-job solve, and a mixed job stream re-uses a small
// set of discretizations.
class PhysicsCache {
 public:
  // Thread-safe find-or-build (scheduler workers resolve jobs concurrently).
  std::shared_ptr<const BtePhysics> get(int nbands_spectral, int ndirs);

 private:
  std::mutex mu_;
  std::map<std::pair<int, int>, std::shared_ptr<const BtePhysics>> cache_;
};

// Conservative upper bound on a configuration's memory footprint, split by
// how the bytes are claimed: admission_bytes() is reserved up front by the
// supervisor; mirror_bytes is reserved live by MultiGpuSolver's device
// buffers (zero for the host-only solvers). The fit check uses total_bytes().
struct MemoryDemand {
  int64_t host_bytes = 0;        // rank-local fields + gather scratch
  int64_t checkpoint_bytes = 0;  // retained in-memory generation images
  int64_t mirror_bytes = 0;      // device mirrors (mgpu only)
  int64_t admission_bytes() const { return host_bytes + checkpoint_bytes; }
  int64_t total_bytes() const { return admission_bytes() + mirror_bytes; }
};

MemoryDemand estimate_memory_demand(const std::string& solver, const BteScenario& scen,
                                    const BtePhysics& phys, int nparts);

// A distributed engine built by its canonical solver name ("cell" | "band" |
// "mgpu"). Throws std::invalid_argument for an unknown name.
class AnySolver {
 public:
  AnySolver(const std::string& solver, const BteScenario& scenario,
            std::shared_ptr<const BtePhysics> physics, int nparts);

  void enable_resilience(const ResilienceOptions& options) { engine_->enable_resilience(options); }
  void resume_from(const rt::RunManifest& manifest, const ResilienceOptions& options) {
    engine_->resume_from(manifest, options);
  }
  void run(int nsteps) { engine_->run(nsteps); }

  int64_t step_index() const { return engine_->step_index(); }
  const ResilienceStats& resilience_stats() const { return engine_->resilience_stats(); }
  // Canonical global fields (identical layout across the three solvers).
  std::vector<double> temperature() const { return engine_->gather_temperature(); }
  std::vector<double> intensity() const { return engine_->gather_intensity(); }
  // Virtual clock and its phase-ledger sum (conservation oracle inputs).
  double virtual_elapsed() const { return engine_->virtual_elapsed(); }
  double phase_total() const { return engine_->phases().total(); }

  const std::string& kind() const { return kind_; }
  int nparts() const { return nparts_; }

 private:
  std::string kind_;
  int nparts_ = 0;
  std::unique_ptr<DistributedEngine> engine_;
};

}  // namespace finch::bte
