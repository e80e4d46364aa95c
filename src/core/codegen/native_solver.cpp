#include "native_solver.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "core/dsl/problem.hpp"
#include "native_backend.hpp"
#include "runtime/metrics.hpp"
#include "runtime/trace.hpp"
#include "step_solver_base.hpp"

namespace finch::codegen {

namespace {

// What the emitter needs about one compiled equation.
NativeKernelInputs kernel_inputs(const CompiledEquation& ce, const CompileEnv& env, int32_t max_faces) {
  NativeKernelInputs in;
  in.name = "step_" + ce.field->name();
  in.volume = &ce.volume;
  in.surface = ce.has_surface ? &ce.surface : nullptr;
  in.env = &env;
  in.out = ce.field;
  in.var_addr = &ce.var_addr;
  in.reduce_target = ce.reduce_target;
  in.reduce_weight = &ce.reduce_weight;
  in.max_faces = max_faces;
  return in;
}

struct EquationNative {
  NativePlan plan;  // plan.fn == nullptr → VM fallback for this equation
  bool verified = false;
  std::vector<uint8_t> cell_fused;   // per cell: 1 = runs the kernel's fused body
  int64_t general_cells = 0;         // cells on the general body, per sweep
};

class NativeSolver final : public StepSolverBase {
 public:
  NativeSolver(dsl::Problem& p, rt::ThreadPool* pool) : StepSolverBase(p, pool) {
    auto& reg = rt::MetricsRegistry::global();
    native_.resize(eqs_.size());
    for (size_t e = 0; e < eqs_.size(); ++e) {
      EquationNative& en = native_[e];
      try {
        en.plan = emit_native_plan(kernel_inputs(eqs_[e], env_, faces_.max_faces));
        classify_cells(eqs_[e].bc, en);
        std::string err;
        if (!load_native_plan(en.plan, &err)) {
          en.plan.fn = nullptr;
          reg.counter("jit.fallback").add();
        }
      } catch (const std::exception&) {
        // Structure the emitter cannot lower: the VM handles it.
        en.plan.fn = nullptr;
        reg.counter("jit.fallback").add();
      }
    }
  }

 protected:
  bool sweep_equation(size_t e, fvm::CellField& out, double dt_stage) override {
    EquationNative& en = native_[e];
    // The non-finite guard audits every VM node — native kernels cannot
    // observe at that granularity, so guarded solves stay on the VM.
    if (en.plan.fn == nullptr || guard_enabled_) return StepSolverBase::sweep_equation(e, out, dt_stage);
    fill_boundary(e);
    if (!en.verified && jit_config().verify_first_sweep) {
      en.verified = true;
      // Differential check: replay this exact sweep on the VM oracle, from
      // the boundary values the kernel read, and require bit identity of the
      // field and of the fused sum against the post-pass. A mismatch demotes
      // the equation to the VM and keeps the oracle's answer — never a wrong
      // result.
      fvm::CellField ref("jit_verify", out.num_cells(), out.dof_per_cell(), out.layout());
      run_kernel(e, out, dt_stage);
      rt::SpanAttrs attrs;
      attrs.phase = "compute";
      rt::TraceSpan span("jit.verify", attrs);
      const auto t0 = Clock::now();
      vm_sweep(e, ref, dt_stage, all_cells_);
      bool same = bits_equal(out, ref);
      if (const fvm::CellField* target = eqs_[e].reduce_target; target != nullptr && same) {
        fvm::CellField ref_sum("jit_verify_sum", target->num_cells(), target->dof_per_cell(),
                               target->layout());
        reduce_into(eqs_[e], ref, ref_sum);
        same = bits_equal(*target, ref_sum);
      }
      auto& reg = rt::MetricsRegistry::global();
      if (!same) {
        reg.counter("jit.verify.mismatch").add();
        reg.counter("jit.fallback").add();
        en.plan.fn = nullptr;
        std::copy(ref.data().begin(), ref.data().end(), out.data().begin());
      }
      reg.counter("jit.verify.sweeps").add();
      reg.counter("jit.verify.seconds").add(seconds_since(t0));
      return same;
    }
    en.verified = true;
    run_kernel(e, out, dt_stage);
    return true;
  }

 private:
  static bool bits_equal(const fvm::CellField& a, const fvm::CellField& b) {
    return std::memcmp(a.data().data(), b.data().data(), a.data().size() * sizeof(double)) == 0;
  }

  // Which body each cell runs, the one place the rule lives: the fused body
  // when the kernel has one (NativePlan::fused_faces = K) and exactly K of
  // the cell's faces contribute, each interior or a value BC. A boundary
  // face without a BC contributes nothing; a flux BC needs the general body.
  void classify_cells(const BcTable& bc, EquationNative& en) const {
    const int64_t nc = p_.mesh().num_cells();
    en.cell_fused.assign(static_cast<size_t>(nc), 0);
    en.general_cells = 0;
    for (int64_t c = 0; c < nc; ++c) {
      int32_t contributing = 0;
      bool flux = false;
      for (int64_t fs = faces_.off[static_cast<size_t>(c)]; fs < faces_.off[static_cast<size_t>(c) + 1]; ++fs) {
        const int32_t bs = bc.face_bslot[static_cast<size_t>(fs)];
        if (faces_.nbr[static_cast<size_t>(fs)] < 0 && bs < 0) continue;
        ++contributing;
        flux = flux || (bs >= 0 && bc.kind[static_cast<size_t>(bs)] == BcTable::kFlux);
      }
      const bool fused = en.plan.fused_faces > 0 && contributing == en.plan.fused_faces && !flux;
      en.cell_fused[static_cast<size_t>(c)] = fused ? 1 : 0;
      en.general_cells += fused ? 0 : 1;
    }
  }

  void run_kernel(size_t e, fvm::CellField& out, double dt_stage) {
    EquationNative& en = native_[e];
    const BcTable& bc = eqs_[e].bc;
    const int64_t nc = p_.mesh().num_cells();
    // Commits swap field storage, so each launch re-reads the base pointers.
    for (size_t i = 0; i < en.plan.arrays.size(); ++i)
      if (const fvm::CellField* f = en.plan.array_fields[i]) en.plan.arrays[i] = f->data().data();
    KernelArgsV1 args;
    args.ncells = nc;
    args.dt = dt_stage;
    args.out = out.data().data();
    args.arrays = en.plan.arrays.data();
    args.scalars = en.plan.scalars.data();
    args.face_off = faces_.off.data();
    args.face_nbr = faces_.nbr.data();
    args.face_geom = faces_.geom.data();
    args.face_bslot = bc.face_bslot.data();
    args.bc_kind = bc.kind.data();
    args.bc_value = bc.value.data();
    if (fvm::CellField* target = eqs_[e].reduce_target) args.reduce_out = target->data().data();
    args.cell_fused = en.cell_fused.data();
    rt::SpanAttrs attrs;
    attrs.phase = "compute";
    rt::TraceSpan span("jit.exec", attrs);
    const auto t0 = Clock::now();
    if (pool_ != nullptr) {
      pool_->parallel_for_chunks(
          0, nc,
          [&](int64_t begin, int64_t end) {
            KernelArgsV1 a = args;
            a.cell_begin = begin;
            a.cell_end = end;
            en.plan.fn(&a);
          },
          std::max<int64_t>(nc / (8 * static_cast<int64_t>(pool_->size())), 16));
    } else {
      args.cell_begin = 0;
      args.cell_end = nc;
      en.plan.fn(&args);
    }
    auto& reg = rt::MetricsRegistry::global();
    reg.counter("jit.exec.batches").add();
    reg.counter("jit.exec.seconds").add(seconds_since(t0));
    reg.counter("jit.exec.evals").add(static_cast<double>(nc * en.plan.ndof));
    reg.counter("jit.exec.general_cells").add(static_cast<double>(en.general_cells));
  }

  std::vector<EquationNative> native_;
};

}  // namespace

std::unique_ptr<dsl::Solver> make_native_solver(dsl::Problem& problem, rt::ThreadPool* pool) {
  return std::make_unique<NativeSolver>(problem, pool);
}

namespace {

// Compiles the equations (VM programs) without ever invoking the system
// compiler, purely to reach the emitter.
class SourceProbe final : public StepSolverBase {
 public:
  explicit SourceProbe(dsl::Problem& p) : StepSolverBase(p, nullptr) {}
  std::string sources() {
    std::string out;
    for (const CompiledEquation& ce : eqs_) {
      if (!out.empty()) out += "\n";
      out += emit_native_plan(kernel_inputs(ce, env_, faces_.max_faces)).source;
    }
    return out;
  }
};

}  // namespace

std::string emitted_native_source(dsl::Problem& problem) {
  return SourceProbe(problem).sources();
}

}  // namespace finch::codegen
