#pragma once
// CPU code-generation target: lowers the IR to an executable per-step sweep
// with the configured assembly-loop ordering, run serially or on a thread
// pool. Pass pool == nullptr for the serial target. With `native`, each
// equation runs its JIT-compiled kernel (VM fallback per equation); without,
// the bytecode VM.

#include <memory>

#include "runtime/thread_pool.hpp"

namespace finch::dsl {
class Problem;
class Solver;
}  // namespace finch::dsl

namespace finch::codegen {

std::unique_ptr<dsl::Solver> make_cpu_solver(dsl::Problem& problem, rt::ThreadPool* pool, bool native);

}  // namespace finch::codegen
