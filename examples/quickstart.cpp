// Quickstart: the advection–reaction example of §II of the paper, end to end.
//
//   du/dt = -k u - div(b u)
//
// entered in the DSL as  conservationForm(u, "-k*u - surface(upwind(b, u))").
// This program prints every stage the paper shows — the expanded symbolic
// form, the forward-Euler form, the classified terms, the IR pseudocode, and
// the generated kernel as C++ (the text the JIT compiles) and as CUDA — then
// runs the generated solver and reports the solution.
//
// Run:  ./quickstart
#include <algorithm>
#include <cstdio>

#include "core/dsl/problem.hpp"
#include "core/symbolic/printer.hpp"
#include "mesh/mesh.hpp"

using namespace finch;

int main() {
  dsl::Problem p("quickstart");
  p.domain(2).solver_type(dsl::SolverType::FV).time_stepper(dsl::TimeScheme::ForwardEuler);
  p.set_steps(/*dt=*/0.001, /*nsteps=*/200);
  p.set_mesh(mesh::Mesh::structured_quad(32, 32, 1.0, 1.0));

  // Entities: a scalar unknown, a reaction coefficient, an advection velocity.
  p.variable("u");
  p.coefficient("k", 0.5);
  p.coefficient("bx", 1.0);
  p.coefficient("by", 0.4);

  p.conservation_form("u", "-k*u - surface(upwind([bx; by], u))");

  // Gaussian blob initial condition.
  const mesh::Mesh& m0 = p.mesh();
  p.initial("u", [&m0](int32_t c, std::span<const int32_t>) {
    const auto& x = m0.cell_centroid(c);
    const double dx = x.x - 0.3, dy = x.y - 0.3;
    return std::exp(-40.0 * (dx * dx + dy * dy));
  });
  // Inflow boundaries bring in zero; outflow is upwinded automatically.
  for (int region = 1; region <= 4; ++region)
    p.boundary("u", region, dsl::BcType::Value, "zero_inflow",
               [](const fvm::BoundaryContext&, std::span<double> out) { std::ranges::fill(out, 0.0); });

  std::printf("=== DSL input ===\n-k*u - surface(upwind([bx; by], u))\n\n");
  const auto& rec = [&]() -> const dsl::Problem::EquationRecord& {
    p.ir_pseudocode();  // forces finalization
    return p.equations().front();
  }();
  std::printf("=== expanded symbolic form ===\n%s\n\n", sym::to_string(rec.equation.full).c_str());
  std::printf("=== after forward Euler ===\n%s = %s\n\n", sym::to_string(rec.stepped.unknown).c_str(),
              sym::to_string(rec.stepped.rhs).c_str());
  std::printf("=== classified terms ===\nLHS volume:  %s\nRHS volume:  %s\nRHS surface: %s\n\n",
              sym::category_string(rec.classified.lhs_volume).c_str(),
              sym::category_string(rec.classified.rhs_volume).c_str(),
              sym::category_string(rec.classified.rhs_surface).c_str());
  std::printf("=== IR pseudocode ===\n%s\n", p.ir_pseudocode().c_str());
  std::printf("=== generated C++ (the kernel every target runs) ===\n%s\n",
              p.generated_native_source().c_str());
  std::printf("=== generated CUDA (the same kernel, one thread per cell) ===\n%s\n",
              p.generated_cuda_source().c_str());

  auto solver = p.compile(dsl::Target::CpuSerial);
  solver->run(p.num_steps());

  const auto& u = p.fields().get("u");
  double total = 0, peak = 0;
  int32_t peak_cell = 0;
  for (int32_t c = 0; c < u.num_cells(); ++c) {
    total += u.at(c, 0) * p.mesh().cell_volume(c);
    if (u.at(c, 0) > peak) {
      peak = u.at(c, 0);
      peak_cell = c;
    }
  }
  const auto& pc = p.mesh().cell_centroid(peak_cell);
  std::printf("=== result after %d steps (t = %.3f) ===\n", p.num_steps(), solver->time());
  std::printf("blob advected from (0.30, 0.30) to (%.2f, %.2f); peak %.4f; mass %.5f\n", pc.x, pc.y,
              peak, total);
  std::printf("intensity phase %.3f s, post-step %.3f s\n", solver->phases().compute,
              solver->phases().post_process);
  return 0;
}
