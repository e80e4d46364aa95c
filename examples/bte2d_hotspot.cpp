// The paper's main demonstration (Fig. 1 / Fig. 2): 2-D phonon BTE with a
// centered Gaussian hot spot on one isothermal wall, a cold isothermal wall
// opposite, and symmetry (specular) side walls.
//
// By default runs a scaled-down domain that finishes in seconds; pass
// --paper to use the full §III.A discretization (120x120 cells, 20
// directions, 55 bands — slow in this in-process interpreter, intended for
// calibration runs), and --gpu to run on the simulated-GPU hybrid target.
//
// Writes the temperature field to bte2d_hotspot_temperature.csv and prints an
// ASCII rendering plus the phase breakdown.
#include <cstdio>
#include <cstring>
#include <memory>

#include "bte/bte_problem.hpp"
#include "bte/direct_solver.hpp"
#include "mesh/vtk_io.hpp"

using namespace finch;
using namespace finch::bte;

namespace {

void ascii_field(const std::vector<double>& T, int nx, int ny, double lo, double hi) {
  static const char shades[] = " .:-=+*#%@";
  for (int j = ny - 1; j >= 0; j -= 2) {  // top to bottom, skip rows for aspect
    for (int i = 0; i < nx; ++i) {
      double f = (T[static_cast<size_t>(j * nx + i)] - lo) / (hi - lo);
      f = std::min(std::max(f, 0.0), 1.0);
      std::putchar(shades[static_cast<int>(f * 9.0)]);
    }
    std::putchar('\n');
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool paper = false, use_gpu = false, use_direct = false;
  int nsteps = -1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--paper") == 0) paper = true;
    if (std::strcmp(argv[i], "--gpu") == 0) use_gpu = true;
    if (std::strcmp(argv[i], "--direct") == 0) use_direct = true;  // hand-written solver
    if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) nsteps = std::atoi(argv[i + 1]);
  }

  BteScenario s = paper ? BteScenario::paper_hotspot() : BteScenario::small();
  if (nsteps > 0) s.nsteps = nsteps;
  std::printf("scenario: %dx%d cells, %.0f um domain, %d dirs, %d spectral bands, dt=%.1e, %d steps\n",
              s.nx, s.ny, s.lx * 1e6, s.ndirs, s.nbands, s.dt, s.nsteps);

  auto physics = std::make_shared<const BtePhysics>(s.nbands, s.ndirs);
  std::printf("resolved bands (LA+TA): %d, DOFs/cell: %d, total intensity DOFs: %lld\n",
              physics->num_bands(), physics->num_bands() * physics->num_dirs(),
              static_cast<long long>(s.nx) * s.ny * physics->num_bands() * physics->num_dirs());

  if (use_direct) {
    // Hand-written baseline: fast enough for the full paper-scale run.
    DirectSolver direct(s, physics);
    direct.run(s.nsteps);
    auto T = direct.temperature();
    double lo = 1e300, hi = -1e300;
    for (double t : T) {
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
    std::printf("\n[direct solver] after %.2f ns: min %.3f K, max %.3f K\n", direct.time() * 1e9,
                lo, hi);
    std::printf("measured: intensity %.2f s (%.1f ns/DOF), temperature update %.2f s (%.2f us/cell)\n",
                direct.phases().compute,
                1e9 * direct.phases().compute /
                    (static_cast<double>(direct.num_cells()) * direct.dofs_per_cell() * s.nsteps),
                direct.phases().post_process,
                1e6 * direct.phases().post_process / (static_cast<double>(direct.num_cells()) * s.nsteps));
    ascii_field(T, s.nx, s.ny, lo, std::max(hi, lo + 1e-9));
    mesh::Mesh m = mesh::Mesh::structured_quad(s.nx, s.ny, s.lx, s.ly);
    mesh::write_vtk_cells_file("bte2d_hotspot_temperature.vtk", m, s.nx, s.ny, 1, "temperature", T);
    std::printf("wrote bte2d_hotspot_temperature.vtk\n");
    return 0;
  }

  BteProblem bp(s, physics);
  rt::SimGpu gpu(rt::GpuSpec::a6000());
  if (use_gpu) bp.problem().use_cuda(&gpu);
  auto solver = bp.compile();
  solver->run(s.nsteps);

  auto T = bp.temperature();
  double lo = 1e300, hi = -1e300;
  for (double t : T) {
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  std::printf("\ntemperature after %.2f ns: min %.2f K, max %.2f K (hot wall above)\n",
              solver->time() * 1e9, lo, hi);
  ascii_field(T, s.nx, s.ny, lo, std::max(hi, lo + 1e-9));

  bp.write_temperature_csv("bte2d_hotspot_temperature.csv");
  mesh::write_vtk_cells_file("bte2d_hotspot_temperature.vtk", bp.problem().mesh(), s.nx, s.ny, 1,
                             "temperature", T);
  std::printf("\nwrote bte2d_hotspot_temperature.{csv,vtk}\n");

  const auto& ph = solver->phases();
  const double tot = ph.total();
  std::printf("phase breakdown: intensity %.1f%%, temperature update %.1f%%, communication %.1f%%\n",
              100 * ph.compute / tot, 100 * ph.post_process / tot, 100 * ph.communication / tot);
  if (use_gpu) {
    const auto& c = gpu.counters();
    std::printf("simulated GPU: %lld kernel launches, %.2f MB H2D, %.2f MB D2H, SM util %.0f%%\n",
                static_cast<long long>(c.kernel_launches), c.bytes_h2d / 1e6, c.bytes_d2h / 1e6,
                100 * c.sm_utilization);
  }
  return 0;
}
