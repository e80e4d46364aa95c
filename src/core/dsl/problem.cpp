#include "problem.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "core/codegen/gpu_solver.hpp"
#include "core/codegen/native_backend.hpp"
#include "core/codegen/source_cuda.hpp"
#include "core/codegen/step_solver_base.hpp"

namespace finch::dsl {

Backend backend_from_string(const std::string& s) {
  if (s == "auto") return Backend::Auto;
  if (s == "vm") return Backend::Vm;
  if (s == "native") return Backend::Native;
  throw std::invalid_argument("unknown backend \"" + s + "\" (expected vm, native or auto)");
}

const char* backend_to_string(Backend b) {
  switch (b) {
    case Backend::Auto: return "auto";
    case Backend::Vm: return "vm";
    case Backend::Native: return "native";
  }
  return "vm";
}

Backend default_backend_from_env() {
  const char* v = std::getenv("FINCH_BACKEND");
  if (v == nullptr || *v == '\0') return Backend::Vm;
  try {
    return backend_from_string(v);
  } catch (const std::invalid_argument&) {
    return Backend::Vm;  // an unknown value must not break solves
  }
}

Problem& Problem::domain(int dim) {
  if (dim < 1 || dim > 3) throw std::invalid_argument("domain: dimension must be 1..3");
  dim_ = dim;
  return *this;
}

Problem& Problem::solver_type(SolverType t) {
  solver_type_ = t;
  return *this;
}

Problem& Problem::time_stepper(TimeScheme s) {
  scheme_ = s;
  return *this;
}

Problem& Problem::set_steps(double dt, int nsteps) {
  if (dt <= 0 || nsteps < 1) throw std::invalid_argument("set_steps: bad arguments");
  dt_ = dt;
  nsteps_ = nsteps;
  return *this;
}

Problem& Problem::set_mesh(mesh::Mesh m) {
  mesh_ = std::move(m);
  dim_ = mesh_->dimension();
  return *this;
}

Problem& Problem::layout(fvm::Layout l) {
  layout_ = l;
  return *this;
}

Problem& Problem::use_cuda(rt::SimGpu* gpu) {
  gpu_ = gpu;
  return *this;
}

Problem& Problem::use_threads(rt::ThreadPool* pool) {
  pool_ = pool;
  return *this;
}

Problem& Problem::execution_backend(Backend b) {
  backend_ = b;
  return *this;
}

Problem& Problem::index(const std::string& name, int lo, int hi) {
  if (hi < lo) throw std::invalid_argument("index: empty range");
  table_.declare_index(name, lo, hi);
  return *this;
}

Problem& Problem::variable(const std::string& name, std::vector<std::string> indices) {
  for (const auto& i : indices)
    if (table_.find_index(i) == nullptr) throw std::invalid_argument("variable: undeclared index " + i);
  table_.declare({name, sym::EntityKind::Variable, 1, std::move(indices)});
  return *this;
}

Problem& Problem::coefficient(const std::string& name, std::vector<double> values,
                              std::vector<std::string> indices) {
  int64_t expect = 1;
  for (const auto& i : indices) {
    const sym::IndexInfo* info = table_.find_index(i);
    if (info == nullptr) throw std::invalid_argument("coefficient: undeclared index " + i);
    expect *= info->extent();
  }
  if (static_cast<int64_t>(values.size()) != expect)
    throw std::invalid_argument("coefficient " + name + ": expected " + std::to_string(expect) +
                                " values, got " + std::to_string(values.size()));
  table_.declare({name, sym::EntityKind::Coefficient, 1, indices});
  coef_arrays_[name] = std::move(values);
  return *this;
}

Problem& Problem::coefficient(const std::string& name, double value) {
  table_.declare({name, sym::EntityKind::Coefficient, 1, {}});
  coef_scalars_[name] = value;
  return *this;
}

Problem& Problem::coefficient(const std::string& name, const std::function<double(mesh::Vec3)>& fn) {
  table_.declare({name, sym::EntityKind::Coefficient, 1, {}});
  coef_spatial_[name] = fn;
  return *this;
}

Problem& Problem::coefficient_spacetime(const std::string& name,
                                        std::function<double(mesh::Vec3, double)> fn) {
  table_.declare({name, sym::EntityKind::Coefficient, 1, {}});
  coef_spacetime_[name] = std::move(fn);
  return *this;
}

Problem& Problem::conservation_form(const std::string& variable, const std::string& equation) {
  if (const sym::EntityInfo* v = table_.find(variable); v == nullptr || v->kind != sym::EntityKind::Variable)
    throw std::invalid_argument("conservation_form: unknown variable " + variable);
  pending_.push_back({variable, equation});
  return *this;
}

Problem& Problem::boundary(const std::string& variable, int region, BcType type,
                           const std::string& callback_name, fvm::BoundaryCallback cb) {
  if (const sym::EntityInfo* v = table_.find(variable); v == nullptr || v->kind != sym::EntityKind::Variable)
    throw std::invalid_argument("boundary: unknown variable " + variable);
  boundary_.set(variable, region, fvm::BoundaryCondition{type, std::move(cb), callback_name});
  return *this;
}

Problem& Problem::reduction(const std::string& target, const std::string& variable,
                            const std::string& index, const std::string& weight) {
  reductions_.push_back({variable, ir::Reduction{target, index, weight}});
  return *this;
}

Problem& Problem::initial(const std::string& variable,
                          const std::function<double(int32_t, std::span<const int32_t>)>& fn) {
  if (table_.find(variable) == nullptr) throw std::invalid_argument("initial: unknown variable " + variable);
  initials_[variable] = fn;
  return *this;
}

Problem& Problem::assembly_loops(std::vector<std::string> order) {
  loop_order_ = std::move(order);
  return *this;
}

Problem& Problem::post_step(std::function<void(Problem&, double)> fn) {
  post_steps_.push_back(std::move(fn));
  return *this;
}

Problem& Problem::pre_step(std::function<void(Problem&, double)> fn) {
  pre_steps_.push_back(std::move(fn));
  return *this;
}

Problem& Problem::post_step_touches(std::vector<std::string> reads, std::vector<std::string> writes) {
  for (const auto& v : reads)
    if (table_.find(v) == nullptr) throw std::invalid_argument("post_step_touches: unknown variable " + v);
  for (const auto& v : writes)
    if (table_.find(v) == nullptr) throw std::invalid_argument("post_step_touches: unknown variable " + v);
  cpu_reads_ = std::move(reads);
  cpu_writes_ = std::move(writes);
  movement_annotated_ = true;
  return *this;
}

Problem& Problem::register_operator(const std::string& name, sym::CustomOperator op) {
  registry_.register_op(name, std::move(op));
  return *this;
}

const mesh::Mesh& Problem::mesh() const {
  if (!mesh_) throw std::logic_error("Problem: mesh not set");
  return *mesh_;
}

void Problem::finalize() {
  if (finalized_) return;
  if (!mesh_) throw std::logic_error("Problem: set_mesh() required before compile()");
  const int32_t ncells = mesh_->num_cells();

  // Allocate field storage for every variable.
  for (const auto& [name, info] : table_.entities()) {
    if (info.kind != sym::EntityKind::Variable) continue;
    int32_t dof = 1;
    for (const auto& idx : info.indices) dof *= table_.find_index(idx)->extent();
    if (!fields_.has(name)) fields_.add(name, ncells, dof, layout_);
  }
  // Materialize spatial coefficients as read-only per-cell fields.
  for (const auto& [name, fn] : coef_spatial_) {
    fvm::CellField& f = fields_.add(name, ncells, 1, layout_);
    for (int32_t c = 0; c < ncells; ++c) f.at(c, 0) = fn(mesh_->cell_centroid(c));
  }
  // Space-time coefficients get per-cell storage refreshed before every step
  // by an implicit pre-step (runs ahead of user pre-steps).
  for (const auto& [name, fn] : coef_spacetime_) {
    fields_.add(name, ncells, 1, layout_);
    const std::string cname = name;
    const auto cfn = fn;
    pre_steps_.insert(pre_steps_.begin(), [cname, cfn](Problem& prob, double t) {
      fvm::CellField& f = prob.fields().get(cname);
      const mesh::Mesh& m = prob.mesh();
      for (int32_t c = 0; c < f.num_cells(); ++c) f.at(c, 0) = cfn(m.cell_centroid(c), t);
    });
  }
  // Apply initial conditions.
  for (const auto& [name, fn] : initials_) {
    fvm::CellField& f = fields_.get(name);
    const sym::EntityInfo& info = *table_.find(name);
    std::vector<int32_t> extents;
    for (const auto& idx : info.indices) extents.push_back(table_.find_index(idx)->extent());
    std::vector<int32_t> iv(extents.size(), 0);
    for (int32_t c = 0; c < ncells; ++c) {
      std::fill(iv.begin(), iv.end(), 0);
      for (int32_t dof = 0; dof < f.dof_per_cell(); ++dof) {
        f.at(c, dof) = fn(c, iv);
        for (size_t k = 0; k < iv.size(); ++k) {  // odometer, first index fastest
          if (++iv[k] < extents[k]) break;
          iv[k] = 0;
        }
      }
    }
  }

  // Symbolic pipeline per equation: parse -> expand -> time-discretize ->
  // classify -> IR.
  for (const auto& pe : pending_) {
    EquationRecord rec;
    rec.variable = pe.variable;
    rec.input = pe.input;
    rec.equation = sym::make_conservation_form(*table_.find(pe.variable), pe.input, table_, registry_, dim_);
    rec.stepped = sym::apply_forward_euler(rec.equation);
    rec.classified = sym::classify(rec.stepped);
    rec.program = ir::build_step_program(pe.variable, rec.classified, table_, loop_order_, dim_);
    equations_.push_back(std::move(rec));
  }
  if (equations_.empty()) throw std::logic_error("Problem: no conservation_form equation given");
  for (const auto& [variable, r] : reductions_) attach_reduction(variable, r);
  finalized_ = true;
}

void Problem::attach_reduction(const std::string& variable, const ir::Reduction& r) {
  const std::string what = "reduction " + r.target + " = sum_" + r.index + " " + r.weight + "[" +
                           r.index + "] * " + variable + ": ";
  auto reject = [&](const std::string& why) { throw std::invalid_argument(what + why); };
  auto is_variable = [&](const std::string& name) {
    const sym::EntityInfo* e = table_.find(name);
    return e != nullptr && e->kind == sym::EntityKind::Variable;
  };
  if (!is_variable(variable)) reject("unknown variable " + variable);
  if (!is_variable(r.target)) reject("unknown target variable " + r.target);
  auto rec = std::find_if(equations_.begin(), equations_.end(),
                          [&](const EquationRecord& e) { return e.variable == variable; });
  if (rec == equations_.end()) reject("no equation updates " + variable);
  if (rec->program.reduction) reject(variable + " already has a reduction");
  const std::vector<std::string>& idx = table_.find(variable)->indices;
  if (idx.empty() || idx.front() != r.index)
    reject("the summed index must be the first (stride-1) index of " + variable);
  if (table_.find(r.target)->indices != std::vector<std::string>(idx.begin() + 1, idx.end()))
    reject("the target's indices must be the remaining indices of " + variable);
  const sym::EntityInfo* w = table_.find(r.weight);
  if (w == nullptr || coef_arrays_.count(r.weight) == 0 || w->indices != std::vector<std::string>{r.index})
    reject("the weight must be an indexed coefficient over " + r.index + " alone");
  for (const EquationRecord& e : equations_)
    if (e.variable == r.target || e.program.find_usage(r.target) != nullptr)
      reject("the equation of " + e.variable + " reads or updates the target");
  rec->program.reduction = r;
}

std::unique_ptr<Solver> Problem::compile() {
  if (gpu_ != nullptr) return compile(Target::Gpu);
  if (pool_ != nullptr) return compile(Target::CpuThreads);
  return compile(Target::CpuSerial);
}

std::unique_ptr<Solver> Problem::compile(Target target) {
  finalize();
  // Backend routing for every target: Native JITs kernels (with per-equation
  // VM fallback inside the solver); Auto only attempts the JIT when a
  // compiler and dlopen support are actually present.
  const bool native = backend_ == Backend::Native ||
                      (backend_ == Backend::Auto && codegen::native_backend_available());
  switch (target) {
    case Target::CpuSerial:
      return std::make_unique<codegen::StepSolverBase>(*this, nullptr, native);
    case Target::CpuThreads:
      if (pool_ == nullptr) throw std::logic_error("compile: use_threads() not configured");
      return std::make_unique<codegen::StepSolverBase>(*this, pool_, native);
    case Target::Gpu:
      if (gpu_ == nullptr) throw std::logic_error("compile: use_cuda() not configured");
      return codegen::make_gpu_solver(*this, gpu_, native);
  }
  throw std::logic_error("compile: unknown target");
}

std::string Problem::generated_native_source() {
  finalize();
  std::string out;
  for (const std::string& tu : codegen::emitted_kernel_sources(*this, codegen::Dialect::Cpp)) {
    if (!out.empty()) out += "\n";
    out += tu;
  }
  return out;
}

std::string Problem::generated_cuda_source() {
  finalize();
  const std::vector<std::string> kernels = codegen::emitted_kernel_sources(*this, codegen::Dialect::Cuda);
  std::string out;
  for (size_t e = 0; e < equations_.size(); ++e)
    out += kernels[e] + "\n" + codegen::emit_cuda_host_driver(equations_[e].program, boundary_);
  return out;
}

std::string Problem::ir_pseudocode() {
  finalize();
  std::string out;
  for (const auto& rec : equations_) out += ir::render_pseudocode(rec.program);
  return out;
}

}  // namespace finch::dsl
