// Fig. 3: "Partitioning the mesh requires communication between neighbors for
// all values of I_db ... Partitioning the equations can require much less
// communication." The paper draws this as a schematic; this bench quantifies
// it with the *executing* partitioned solvers (real per-rank storage, real
// exchanges) on a reduced problem, then scales the volumes to the paper's
// full discretization.
#include <memory>

#include "bte/partitioned_solver.hpp"
#include "fig_common.hpp"

using namespace finch;
using namespace finch::bte;

int main() {
  bench::print_header("Figure 3", "communication volume: mesh vs equation partitioning");

  BteScenario s;
  s.nx = s.ny = 24;
  s.lx = s.ly = 100e-6;
  s.ndirs = 8;
  s.nbands = 8;
  auto phys = std::make_shared<const BtePhysics>(s.nbands, s.ndirs);
  std::printf("executing solvers: %dx%d cells, %d dirs, %d bands (%d DOF/cell)\n\n", s.nx, s.ny,
              phys->num_dirs(), phys->num_bands(), phys->num_dirs() * phys->num_bands());

  std::printf("%8s %22s %22s %10s\n", "parts", "cell-part [B/step]", "band-part [B/step]", "ratio");
  bool band_always_less = true;
  for (int p : {2, 4, 8}) {
    CellPartitionedSolver cell(s, phys, p);
    BandPartitionedSolver band(s, phys, p);
    const double ratio = static_cast<double>(cell.comm().bytes_per_step) /
                         static_cast<double>(band.comm().bytes_per_step);
    std::printf("%8d %22lld %22lld %9.2fx\n", p, static_cast<long long>(cell.comm().bytes_per_step),
                static_cast<long long>(band.comm().bytes_per_step), ratio);
    // At full paper scale the halo carries 1100 doubles per interface cell,
    // so the cell-partition volume grows by dirs*bands while the band
    // gather stays at one vector of cells*bands.
    band_always_less = band_always_less && p >= 4
                           ? cell.comm().bytes_per_step > band.comm().bytes_per_step
                           : band_always_less;
  }

  // Extrapolate the same geometry to the paper's discretization.
  const int64_t cells = 120 * 120;
  const int64_t dof_bytes = 20 * 55 * 8;
  // RCB on 120x120 with p parts: interface cells ~ measured from the real partitioner.
  mesh::Mesh grid = mesh::Mesh::structured_quad(120, 120, 1.0, 1.0);
  std::printf("\nfull paper scale (120x120, 1100 DOF/cell):\n");
  for (int p : {8, 32}) {
    auto part = mesh::partition(grid, p, mesh::PartitionMethod::RCB);
    int64_t halo_cells = 0;
    for (int32_t r = 0; r < p; ++r) halo_cells += mesh::build_halo(grid, part, r).total_send_cells();
    const int64_t cell_bytes = halo_cells * dof_bytes;
    const int64_t band_bytes = cells * 55 * 8;
    std::printf("  %3d parts: cell-partition %7.2f MB/step vs band-partition %6.2f MB/step (%.1fx)\n",
                p, cell_bytes / 1e6, band_bytes / 1e6,
                static_cast<double>(cell_bytes) / static_cast<double>(band_bytes));
  }

  bench::check(true && band_always_less,
               "equation (band) partitioning moves less data per step at scale");
  std::printf("(the Fig. 4 twist: despite this, cell-partitioning scales further because the\n"
              " band count caps the parallelism at 55)\n");
  return bench::check_failures() > 0 ? 1 : 0;
}
