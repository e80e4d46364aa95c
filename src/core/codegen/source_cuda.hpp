#pragma once
// CUDA host driver: the host loop of §II.B around the CUDA dialect of an
// equation's kernel (native_backend.hpp, Dialect::Cuda) — async kernel
// launch, CPU boundary computation via the registered callbacks,
// synchronize/combine, CPU post-step, and the per-step transfers the
// movement planner selected. dsl::Problem::generated_cuda_source() prints
// each equation's kernel followed by its driver.

#include <string>

#include "core/ir/step_program.hpp"
#include "fvm/boundary.hpp"

namespace finch::codegen {

// The driver of `program`'s equation. Its launch line names the dialect's
// kernel, which the emitter names after the program.
std::string emit_cuda_host_driver(const ir::StepProgram& program, const fvm::BoundaryTable& boundaries);

}  // namespace finch::codegen
