#pragma once
// The Finch-style DSL front-end.
//
// Mirrors the paper's input script (§III.B / Appendix) as a C++ fluent API:
//
//   Problem p("bte-gpu");
//   p.domain(2).solver_type(SolverType::FV).time_stepper(TimeScheme::ForwardEuler);
//   p.set_steps(1e-12, 10000);
//   p.set_mesh(mesh::Mesh::structured_quad(120, 120, 525e-6, 525e-6));
//   auto d = p.index("d", 1, ndirs);     auto b = p.index("b", 1, nbands);
//   p.variable("I", {"d","b"});          p.variable("Io", {"b"});
//   p.coefficient("Sx", dir_x, {"d"});   ...
//   p.boundary("I", 1, BcType::Flux, "isothermal", callback);
//   p.initial("I", [](...){...});
//   p.variable("G", {"b"});  p.coefficient("W", weights, {"d"});
//   p.reduction("G", "I", "d", "W");     // G[b] = sum_d W[d]*I[d,b] every step
//   p.post_step([](double t){ update_temperature(...); });
//   p.assembly_loops({"cells","d","b"});
//   p.conservation_form("I", "(Io[b]-I[d,b])*beta[b] - surface(vg[b]*upwind([Sx[d];Sy[d]],I[d,b]))");
//   auto solver = p.compile(Target::CpuSerial);   // or CpuThreads / Gpu (useCUDA())
//   solver->run(nsteps);

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/ir/step_program.hpp"
#include "core/symbolic/entities.hpp"
#include "core/symbolic/transform.hpp"
#include "fvm/boundary.hpp"
#include "fvm/field.hpp"
#include "mesh/mesh.hpp"
#include "runtime/simgpu.hpp"
#include "runtime/simmpi.hpp"
#include "runtime/thread_pool.hpp"

namespace finch::dsl {

enum class SolverType { FV };
enum class Target { CpuSerial, CpuThreads, Gpu };

// Kernel execution backend for every target (CODEGEN.md §6):
//  * Vm     — bytecode interpreter, always available (the portable oracle).
//  * Native — JIT: emit C++ → system compiler → dlopen; per-equation VM
//             fallback when a kernel cannot be produced.
//  * Auto   — Native when codegen::native_backend_available(), else Vm.
// The process default comes from FINCH_BACKEND (vm | native | auto),
// falling back to Vm. The GPU target runs the same kernel over its interior
// cells inside the simulated launch and over its boundary cells on the host.
enum class Backend { Auto, Vm, Native };
Backend backend_from_string(const std::string& s);  // throws on unknown names
const char* backend_to_string(Backend b);
Backend default_backend_from_env();

using sym::TimeScheme;
using fvm::BcType;

// Tally of non-finite values produced by the generated kernels, filled when
// the non-finite guard is armed. A NaN or Inf escaping a kernel normally
// poisons the whole field silently; the guard makes it a reportable event the
// resilience layer (or a test) can act on.
struct NonFiniteReport {
  int64_t evals = 0;              // audited kernel evaluations
  int64_t nonfinite_results = 0;  // evaluations that produced NaN / +-Inf
  int32_t first_cell = -1;        // cell of the first offending evaluation
  std::string detail;             // human-readable site of the first offender
  bool clean() const { return nonfinite_results == 0; }
};

class Solver {
 public:
  virtual ~Solver() = default;
  virtual void step() = 0;
  void run(int nsteps) {
    for (int i = 0; i < nsteps; ++i) step();
  }
  double time() const { return time_; }
  // Phase timing in the one vocabulary every solver reports (drives the
  // breakdown figures): compute is "solve for intensity" (the generated
  // kernels), post_process the "temperature update" (user post-steps), and
  // communication the host<->device traffic (GPU target only).
  const rt::PhaseTimes& phases() const { return phases_; }

  // Arms per-evaluation NaN/Inf auditing in the bytecode VM on every target
  // (the GPU target audits both its device launch and its host boundary
  // sweep); the native backend takes the VM path while the guard is armed.
  // Off by default — numerics are untouched either way; the guard only
  // observes.
  void enable_nonfinite_guard(bool on = true) { guard_enabled_ = on; }
  bool nonfinite_guard_enabled() const { return guard_enabled_; }
  const NonFiniteReport& nonfinite_report() const { return guard_report_; }
  void reset_nonfinite_report() { guard_report_ = NonFiniteReport{}; }

 protected:
  double time_ = 0.0;
  rt::PhaseTimes phases_;
  bool guard_enabled_ = false;
  NonFiniteReport guard_report_;
};

class Problem {
 public:
  explicit Problem(std::string name) : name_(std::move(name)) {}

  // ---- configuration -------------------------------------------------------
  Problem& domain(int dim);
  Problem& solver_type(SolverType t);
  Problem& time_stepper(TimeScheme s);
  Problem& set_steps(double dt, int nsteps);
  Problem& set_mesh(mesh::Mesh m);
  Problem& layout(fvm::Layout l);
  // The paper's useCUDA(): route compile() to the GPU target using `gpu`.
  Problem& use_cuda(rt::SimGpu* gpu);
  Problem& use_threads(rt::ThreadPool* pool);
  // Kernel backend for every target; default is FINCH_BACKEND else Vm.
  Problem& execution_backend(Backend b);

  // ---- entities -------------------------------------------------------------
  Problem& index(const std::string& name, int lo, int hi);
  // A cell variable, optionally indexed (VAR_ARRAY). Allocates field storage
  // once the mesh is set (at compile()).
  Problem& variable(const std::string& name, std::vector<std::string> indices = {});
  // Coefficient backed by a per-index array (e.g. Sx over directions).
  Problem& coefficient(const std::string& name, std::vector<double> values,
                       std::vector<std::string> indices);
  // Scalar coefficient.
  Problem& coefficient(const std::string& name, double value);
  // Space-dependent coefficient, materialized per cell at compile time.
  Problem& coefficient(const std::string& name, const std::function<double(mesh::Vec3)>& fn);
  // Space-time coefficient ("defined by a function of space-time
  // coordinates"): re-materialized per cell before every step.
  Problem& coefficient_spacetime(const std::string& name,
                                 std::function<double(mesh::Vec3, double)> fn);

  // ---- model ----------------------------------------------------------------
  Problem& conservation_form(const std::string& variable, const std::string& equation);
  // Registers the condition of a declared variable on a boundary region;
  // throws std::invalid_argument for an undeclared variable.
  Problem& boundary(const std::string& variable, int region, BcType type,
                    const std::string& callback_name, fvm::BoundaryCallback cb);
  // Declares the per-step sum target[rest] = sum_index weight[index] *
  // variable[index, rest] of an updated variable over its first (stride-1)
  // index (ir::Reduction). The native kernel forms it in its write loop;
  // every other path in one pass after the commit. compile() throws
  // std::invalid_argument, naming the reduction, when `index` is not the
  // variable's first index, `target`'s indices are not the remaining ones,
  // `weight` is not an indexed coefficient over `index` alone, or an
  // equation reads or updates `target`.
  Problem& reduction(const std::string& target, const std::string& variable,
                     const std::string& index, const std::string& weight);
  Problem& initial(const std::string& variable,
                   const std::function<double(int32_t cell, std::span<const int32_t> idx)>& fn);
  Problem& assembly_loops(std::vector<std::string> order);
  // postStepFunction: runs on the CPU after every step (temperature update).
  Problem& post_step(std::function<void(Problem&, double time)> fn);
  Problem& pre_step(std::function<void(Problem&, double time)> fn);
  // Declares which variables the CPU-side post-step reads/writes so the
  // movement planner can minimize per-step traffic. Unannotated problems use
  // a conservative everything-both-ways plan.
  Problem& post_step_touches(std::vector<std::string> reads, std::vector<std::string> writes);
  // Custom symbolic operator registration.
  Problem& register_operator(const std::string& name, sym::CustomOperator op);

  // ---- access ---------------------------------------------------------------
  const std::string& name() const { return name_; }
  int dimension() const { return dim_; }
  double dt() const { return dt_; }
  int num_steps() const { return nsteps_; }
  TimeScheme scheme() const { return scheme_; }
  Backend execution_backend() const { return backend_; }
  fvm::Layout field_layout() const { return layout_; }
  const mesh::Mesh& mesh() const;
  fvm::FieldSet& fields() { return fields_; }
  const fvm::FieldSet& fields() const { return fields_; }
  const sym::EntityTable& entities() const { return table_; }
  const fvm::BoundaryTable& boundaries() const { return boundary_; }
  const std::map<std::string, std::vector<double>>& indexed_coefficients() const { return coef_arrays_; }
  const std::map<std::string, double>& scalar_coefficients() const { return coef_scalars_; }
  const std::vector<std::string>& cpu_step_reads() const { return cpu_reads_; }
  const std::vector<std::string>& cpu_step_writes() const { return cpu_writes_; }
  bool has_movement_annotations() const { return movement_annotated_; }

  // The symbolic pipeline stages for each equation (inspectable, as the paper
  // prints them).
  struct EquationRecord {
    std::string variable;
    std::string input;
    sym::Equation equation;
    sym::SteppedEquation stepped;
    sym::ClassifiedTerms classified;
    ir::StepProgram program;
  };
  const std::vector<EquationRecord>& equations() const { return equations_; }

  // ---- compilation ----------------------------------------------------------
  // Allocates the fields and runs the symbolic pipeline, once: later calls do
  // nothing. compile() and the source renderings call it first.
  void finalize();
  // Finalizes entities/fields, runs the symbolic pipeline and lowers to the
  // requested target. Default target honours use_cuda()/use_threads().
  std::unique_ptr<Solver> compile();
  std::unique_ptr<Solver> compile(Target target);

  // Generated source renderings. These finalize the problem (run the
  // symbolic pipeline) if compile() has not done so yet, and emit only:
  // nothing is compiled or loaded.
  //
  // The native backend's kernel TU(s), exactly as they would be handed to the
  // system compiler: the C++ every target runs. This is the text behind
  // CODEGEN.md §7's commented listing; tools/check_docs.sh diffs the doc
  // against it.
  std::string generated_native_source();
  // Per equation, the same kernel in its CUDA dialect (one thread per cell of
  // the launch) followed by the §II.B host driver that launches it.
  std::string generated_cuda_source();
  std::string ir_pseudocode();

  // Internal hooks used by solvers.
  void run_pre_steps(double t) {
    for (auto& f : pre_steps_) f(*this, t);
  }
  void run_post_steps(double t) {
    for (auto& f : post_steps_) f(*this, t);
  }
  rt::SimGpu* gpu() const { return gpu_; }
  rt::ThreadPool* pool() const { return pool_; }

 private:
  void attach_reduction(const std::string& variable, const ir::Reduction& r);

  std::string name_;
  int dim_ = 2;
  SolverType solver_type_ = SolverType::FV;
  TimeScheme scheme_ = TimeScheme::ForwardEuler;
  double dt_ = 1e-12;
  int nsteps_ = 1;
  fvm::Layout layout_ = fvm::Layout::CellMajor;
  std::optional<mesh::Mesh> mesh_;
  rt::SimGpu* gpu_ = nullptr;
  rt::ThreadPool* pool_ = nullptr;
  Backend backend_ = default_backend_from_env();

  sym::EntityTable table_;
  sym::OperatorRegistry registry_;
  fvm::FieldSet fields_;
  fvm::BoundaryTable boundary_;
  std::map<std::string, std::vector<double>> coef_arrays_;
  std::map<std::string, double> coef_scalars_;
  std::map<std::string, std::function<double(mesh::Vec3)>> coef_spatial_;
  std::map<std::string, std::function<double(mesh::Vec3, double)>> coef_spacetime_;
  std::map<std::string, std::function<double(int32_t, std::span<const int32_t>)>> initials_;
  std::vector<std::function<void(Problem&, double)>> pre_steps_, post_steps_;
  std::vector<std::string> cpu_reads_, cpu_writes_;
  bool movement_annotated_ = false;
  std::vector<std::string> loop_order_;
  struct PendingEquation {
    std::string variable, input;
  };
  std::vector<PendingEquation> pending_;
  std::vector<std::pair<std::string, ir::Reduction>> reductions_;  // (variable, sum)
  std::vector<EquationRecord> equations_;
  bool finalized_ = false;
};

}  // namespace finch::dsl
