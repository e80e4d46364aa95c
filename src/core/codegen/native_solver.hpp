#pragma once
// Native JIT step solver: StepSolverBase with sweep_equation() overridden to
// run dlopen'ed kernels (see native_backend.hpp and CODEGEN.md §5–§6).
//
// Construction emits + compiles one kernel per equation; any equation whose
// kernel cannot be produced (no compiler, compile error, unlowerable
// structure) is marked fallback and runs the bytecode VM — counted in the
// `jit.fallback` metric, never a wrong answer. The first native sweep of each
// equation is verified bit-for-bit against the VM (FINCH_JIT_VERIFY=0 skips);
// a mismatch demotes that equation to the VM permanently. Solvers with the
// non-finite guard armed always take the VM path, which is where the
// per-node auditing lives.

#include <memory>

#include "runtime/thread_pool.hpp"

namespace finch::dsl {
class Problem;
class Solver;
}  // namespace finch::dsl

namespace finch::codegen {

std::unique_ptr<dsl::Solver> make_native_solver(dsl::Problem& problem, rt::ThreadPool* pool);

// Renders the kernel TU for every equation of a finalized problem without
// compiling or loading anything — the hook behind
// dsl::Problem::generated_native_source() and tools/emit_kernel_listing.
std::string emitted_native_source(dsl::Problem& problem);

}  // namespace finch::codegen
