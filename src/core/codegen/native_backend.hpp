#pragma once
// Native JIT kernel backend: emit → compile → dlopen (CODEGEN.md §4–§6).
//
// Takes the same programs the VM interprets (the value-numbered node lists of
// bytecode.hpp) and renders one self-contained C++ translation unit per
// equation: one `const double` statement per node, so the compiled kernel
// performs op-for-op the same IEEE arithmetic as the interpreter. It invokes
// the system compiler at solve time to produce a shared object and resolves
// the kernel through a stable `extern "C"` v1 ABI. Shared objects live in a
// content-addressed on-disk cache keyed by (TU text — itself a pure function
// of the programs — compiler, flags), fronted by an in-process handle cache,
// so repeated solves and `finch::svc` job fleets amortize compilation. Every
// failure mode — no compiler, compile error, corrupt cache entry,
// dlopen/dlsym failure — is reported to the caller, which falls back to the
// VM; the backend never guesses.
//
// Environment knobs (all optional; see CODEGEN.md §6 for the full matrix):
//   FINCH_BACKEND        vm | native | auto — default backend for dsl::Problem
//   FINCH_JIT_CXX        compiler to invoke (default: probe c++, g++, clang++)
//   FINCH_JIT_CFLAGS     extra flags appended to the baked-in safe set
//   FINCH_JIT_CACHE_DIR  kernel cache directory (default ~/.cache/finch-jit)
//   FINCH_JIT_DISABLE=1  force the VM everywhere
//
// The first sweep of every loaded kernel is always checked bit for bit
// against the VM (StepSolverBase::finish_stage); no knob turns it off.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bytecode.hpp"

namespace finch::codegen {

// Process-wide JIT configuration, seeded from the environment on first use.
// Tests mutate it directly (e.g. point compiler at /nonexistent to exercise
// the fallback ladder) and restore via reset_jit_config_from_env().
struct JitConfig {
  std::string compiler;    // empty = no usable compiler found
  std::string extra_cflags;
  std::string cache_dir;
  bool disable = false;
};
JitConfig& jit_config();
void reset_jit_config_from_env();

// True when JIT execution can work here: dlopen support compiled in, a
// compiler resolved, and FINCH_JIT_DISABLE unset. `auto` backend selection
// keys off this.
bool native_backend_available();

// ---- v1 kernel ABI ----------------------------------------------------------
// Mirrors the struct emitted into every kernel TU (CODEGEN.md §5). Flat
// arrays + sizes only; no C++ types cross the boundary. Append-only: layout
// changes require a v2 symbol.
struct KernelArgsV1 {
  int64_t cell_begin = 0;         // kernel updates cells in [cell_begin, cell_end)
  int64_t cell_end = 0;
  int64_t ncells = 0;             // total cells (DofMajor indexing)
  double dt = 0.0;                // stage dt (RK stages pass their own)
  double* out = nullptr;          // scratch storage of the updated field
  const double* const* arrays = nullptr;  // binding arrays, manifest in the TU
  const double* scalars = nullptr;        // scalar coefficients
  const int64_t* face_off = nullptr;      // CSR: faces of cell c at [off[c], off[c+1])
  const int32_t* face_nbr = nullptr;      // cell across each face slot; -1 boundary
  const double* face_geom = nullptr;      // per slot: nx, ny, nz, area/volume
  const int32_t* face_bslot = nullptr;    // boundary-condition slot or -1
  const uint8_t* bc_kind = nullptr;       // per bslot: 1 = value (ghost), 2 = flux
  const double* bc_value = nullptr;       // per (bslot, out-dof), one callback per bslot per sweep
  double* reduce_out = nullptr;           // storage of the declared reduction's target
  const uint8_t* cell_fused = nullptr;    // per cell: 1 = fused body (NativePlan::fused_faces)
};
using KernelFnV1 = void (*)(const KernelArgsV1*);

// One equation's native plan: the emitted TU plus the runtime argument tables
// resolved against the problem's live storage, and (after load) the kernel.
struct NativePlan {
  std::string name;
  std::string source;
  uint64_t ir_fingerprint = 0;        // structural hash of the programs
  uint64_t key = 0;                   // cache key of the variant actually loaded
  std::string flags;                  // compiler flags of that variant
  std::vector<const double*> arrays;  // arrays[i] backs the TU's Fi
  // The field behind arrays[i], or null for a coefficient. Fields swap
  // storage at every commit, so launches re-read arrays[i] from it.
  std::vector<const fvm::CellField*> array_fields;
  std::vector<double> scalars;
  int64_t ndof = 0;
  // K when the TU has the fused body, else 0. A cell runs it when exactly K
  // of its faces contribute and each is interior or a value BC; the host
  // marks those cells in KernelArgsV1::cell_fused.
  int32_t fused_faces = 0;
  KernelFnV1 fn = nullptr;
};

// The two dialects of one kernel text. Cpp is the TU the JIT compiles and
// runs: finch_kernel_v1 walks cells [cell_begin, cell_end). Cuda is the same
// TU with a __global__ entry, named after the equation, that takes the
// argument block by value and runs one thread per cell of the launch; the
// cell's body (DOF loops, placement, face table, fused and general bodies)
// is the same text.
enum class Dialect { Cpp, Cuda };

// Everything emission needs about one compiled equation.
struct NativeKernelInputs {
  std::string name;                          // e.g. "step_I"
  const Program* volume = nullptr;           // required
  const Program* surface = nullptr;          // null when no surface terms
  const CompileEnv* env = nullptr;           // loop-slot assignment
  const fvm::CellField* out = nullptr;       // updated field
  const Binding* var_addr = nullptr;         // out-dof addressing
  // The equation's declared reduction (ir::Reduction), or a null target: the
  // kernel accumulates target[rest] = sum_i w[i] * out[i, rest] in its write
  // loop and stores it through KernelArgsV1::reduce_out.
  const fvm::CellField* reduce_target = nullptr;
  const Binding* reduce_weight = nullptr;    // CoefIndexed over the stride-1 index
  int32_t max_faces = 0;                     // K: the mesh's largest cell_faces() count
  Dialect dialect = Dialect::Cpp;            // the dialect of NativePlan::source
};

// Pure emission: renders the TU from the programs' node lists. No I/O. Throws std::runtime_error on structures the emitter cannot lower.
NativePlan emit_native_plan(const NativeKernelInputs& in);

// Compile-or-fetch: memory cache → disk cache (dlopen) → compile. Fills
// plan.fn/key/flags on success; on failure returns false with a diagnostic in
// *error and leaves plan.fn null. Never throws for environmental failures.
bool load_native_plan(NativePlan& plan, std::string* error);

// Testing hook: drop the in-process handle cache so the next load exercises
// the disk path. Loaded shared objects are intentionally never dlclose()d —
// cached function pointers may still be live in solvers.
void reset_native_memory_cache();

}  // namespace finch::codegen
