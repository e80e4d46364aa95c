#include "solver_factory.hpp"

#include <stdexcept>

namespace finch::bte {

std::shared_ptr<const BtePhysics> PhysicsCache::get(int nbands_spectral, int ndirs) {
  std::lock_guard<std::mutex> lk(mu_);
  auto key = std::make_pair(nbands_spectral, ndirs);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  auto phys = std::make_shared<const BtePhysics>(nbands_spectral, ndirs);
  cache_.emplace(key, phys);
  return phys;
}

MemoryDemand estimate_memory_demand(const std::string& solver, const BteScenario& scen,
                                    const BtePhysics& phys, int nparts) {
  const int64_t cells = int64_t{scen.nx} * scen.ny;
  const int64_t nb = phys.num_bands();
  const int64_t nd = phys.num_dirs();
  const int64_t dofs = nb * nd;
  constexpr int64_t B = sizeof(double);

  // Rank-local fields summed over ranks: I + I_new (cells*dofs each),
  // Io + beta (cells*nb each), T (cells), plus a global gather scratch of
  // the full intensity field. Cell partitioning adds halo ghosts — bounded
  // by +25% at the small part counts the supervisor runs.
  int64_t host = (2 * cells * dofs + 2 * cells * nb + cells + cells * dofs) * B;
  if (solver == "cell") host += host / 4;

  // CheckpointStore keeps two in-memory generation images of the canonical
  // snapshot (intensity + moments + temperature + header slack).
  const int64_t snapshot = (cells * dofs + 2 * cells * nb + cells + 64) * B;
  MemoryDemand d;
  d.host_bytes = host;
  d.checkpoint_bytes = 2 * snapshot;

  if (solver == "mgpu") {
    // Per-device intensity mirrors plus staging; x1.5 safety over the raw
    // field bytes so admission errs toward shedding, never toward OOM.
    d.mirror_bytes = (2 * cells * dofs + 2 * cells * nb) * B * 3 / 2;
  } else if (solver != "cell" && solver != "band") {
    throw std::invalid_argument("estimate_memory_demand: unknown solver '" + solver + "'");
  }
  (void)nparts;  // footprint is dominated by global fields, not rank count
  return d;
}

AnySolver::AnySolver(const std::string& solver, const BteScenario& scenario,
                     std::shared_ptr<const BtePhysics> physics, int nparts)
    : kind_(solver), nparts_(nparts) {
  // Validate the backend request up front so job manifests with a typo fail
  // at admission, not mid-run. The distributed engine runs its own upwind
  // update (no codegen), so only the VM-equivalent path exists for it —
  // "native"/"auto" are accepted and degrade to that path (CODEGEN.md §6;
  // running the generated kernel in the engine is tracked in ROADMAP.md).
  if (!scenario.backend.empty()) (void)dsl::backend_from_string(scenario.backend);
  if (solver == "cell") {
    engine_ = std::make_unique<CellPartitionedSolver>(scenario, std::move(physics), nparts);
  } else if (solver == "band") {
    engine_ = std::make_unique<BandPartitionedSolver>(scenario, std::move(physics), nparts);
  } else if (solver == "mgpu") {
    engine_ = std::make_unique<MultiGpuSolver>(scenario, std::move(physics), nparts);
  } else {
    throw std::invalid_argument("AnySolver: unknown solver '" + solver + "'");
  }
}

}  // namespace finch::bte
