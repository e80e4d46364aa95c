// Ablation: assemblyLoops orderings ("the ability to arrange these loops may
// also be advantageous in other applications") and field data layouts
// (CellMajor for CPU nests vs DofMajor for flattened GPU threads).
// Measures real wall time of the DSL-generated solver per ordering and the
// layout conversion cost, and verifies results are ordering-invariant.
#include <chrono>
#include <memory>

#include "bte/bte_problem.hpp"
#include "fig_common.hpp"

using namespace finch;

namespace {

double run_with_order(std::vector<std::string> order, std::vector<double>* out_field) {
  bte::BteScenario s;
  s.nx = s.ny = 20;
  s.lx = s.ly = 100e-6;
  s.ndirs = 8;
  s.nbands = 8;
  static auto phys = std::make_shared<const bte::BtePhysics>(8, 8);
  bte::BteProblem bp(s, phys);
  if (!order.empty()) bp.problem().assembly_loops(order);
  auto solver = bp.compile(dsl::Target::CpuSerial);
  const auto t0 = std::chrono::steady_clock::now();
  solver->run(20);
  const double sec = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (out_field != nullptr) {
    auto span = bp.problem().fields().get("I").data();
    out_field->assign(span.begin(), span.end());
  }
  return sec;
}

}  // namespace

int main() {
  bench::print_header("Ablation", "assembly-loop orderings and data layouts");

  struct Case {
    const char* name;
    std::vector<std::string> order;
  };
  const Case cases[] = {
      {"cells,d,b (default)", {}},
      {"b,cells,d (paper band-outer)", {"b", "cells", "d"}},
      {"d,b,cells", {"d", "b", "cells"}},
      {"cells,b,d", {"cells", "b", "d"}},
  };
  std::vector<double> reference;
  bool all_equal = true;
  std::printf("%-32s %12s\n", "assemblyLoops order", "20 steps [s]");
  for (const Case& c : cases) {
    std::vector<double> field;
    const double sec = run_with_order(c.order, &field);
    std::printf("%-32s %12.3f\n", c.name, sec);
    if (reference.empty())
      reference = field;
    else if (field != reference)
      all_equal = false;
  }
  std::printf("\n");
  bench::check(all_equal, "all loop orderings produce bit-identical results");

  // Layout conversion (CellMajor <-> DofMajor): the cost the movement planner
  // charges when handing arrays to a target with a different preferred layout.
  fvm::CellField f("I", 14400, 1100, fvm::Layout::CellMajor, 1.0);
  const auto t0 = std::chrono::steady_clock::now();
  f.convert_layout(fvm::Layout::DofMajor);
  f.convert_layout(fvm::Layout::CellMajor);
  const double sec = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::printf("full-scale I array (1.58e7 doubles) layout round-trip: %.3f s\n", sec);
  bench::check(sec < 10.0, "layout conversion is far cheaper than a time step at scale");
  return bench::check_failures() > 0 ? 1 : 0;
}
