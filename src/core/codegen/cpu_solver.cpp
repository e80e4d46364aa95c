#include "cpu_solver.hpp"

#include "step_solver_base.hpp"

namespace finch::codegen {

std::unique_ptr<dsl::Solver> make_cpu_solver(dsl::Problem& problem, rt::ThreadPool* pool, bool native) {
  return std::make_unique<StepSolverBase>(problem, pool, native);
}

}  // namespace finch::codegen
