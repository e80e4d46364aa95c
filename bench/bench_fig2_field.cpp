// Fig. 2 (and Fig. 1 setup): temperature field of the hot-spot scenario.
// Paper shows the heat spreading from the centered Gaussian spot on the hot
// wall after a long transient. This bench runs the scaled-down scenario and
// verifies the field's qualitative structure: peak at the spot, monotone
// decay away from it along the wall and into the bulk, symmetric about the
// centerline, bounded by the wall temperatures.
#include <cmath>
#include <memory>

#include "bte/bte_problem.hpp"
#include "fig_common.hpp"

using namespace finch;
using namespace finch::bte;

int main() {
  bench::print_header("Figure 2", "hot-spot temperature field structure");
  BteScenario s = BteScenario::small();
  s.nsteps = 300;
  auto phys = std::make_shared<const BtePhysics>(s.nbands, s.ndirs);
  BteProblem bp(s, phys);
  auto solver = bp.compile();
  solver->run(s.nsteps);
  auto T = bp.temperature();
  const int nx = s.nx, ny = s.ny;
  auto at = [&](int i, int j) { return T[static_cast<size_t>(j * nx + i)]; };

  // Profile along the hot wall and down the centerline.
  std::printf("hot-wall profile T(x) [K]: ");
  for (int i = 0; i < nx; i += nx / 8) std::printf("%.2f ", at(i, ny - 1));
  std::printf("\ncenterline profile T(y) [K] (wall->bulk): ");
  for (int j = ny - 1; j >= 0; j -= ny / 8) std::printf("%.2f ", at(nx / 2, j));
  std::printf("\n\n");

  double tmin = 1e300, tmax = -1e300;
  int imax = 0, jmax = 0;
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) {
      if (at(i, j) > tmax) {
        tmax = at(i, j);
        imax = i;
        jmax = j;
      }
      tmin = std::min(tmin, at(i, j));
    }
  std::printf("field range [%.2f, %.2f] K, peak at cell (%d, %d) of (%d, %d)\n\n", tmin, tmax, imax,
              jmax, nx - 1, ny - 1);

  bench::check(jmax == ny - 1 && std::abs(imax - nx / 2) <= nx / 2 - nx / 4 + nx / 8,
               "peak sits on the hot wall near the spot center");
  bench::check(tmax > s.T_init + 0.5 && tmax < s.T_hot + 0.5,
               "peak between initial equilibrium and spot temperature");
  bench::check(tmin >= s.T_cold - 0.2, "no cell below the cold-wall temperature");
  // Decay along the wall away from the spot.
  bench::check(at(nx / 2, ny - 1) > at(nx / 8, ny - 1), "temperature decays along the wall");
  // Decay into the bulk.
  bench::check(at(nx / 2, ny - 1) > at(nx / 2, ny / 2), "temperature decays into the bulk");
  // Mirror symmetry.
  double asym = 0;
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx / 2; ++i) asym = std::max(asym, std::abs(at(i, j) - at(nx - 1 - i, j)));
  bench::check(asym < 1e-6, "field symmetric about the spot centerline (symmetry BCs)");
  return bench::check_failures() > 0 ? 1 : 0;
}
