#include "native_solver.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/dsl/problem.hpp"
#include "native_backend.hpp"
#include "runtime/metrics.hpp"
#include "runtime/trace.hpp"
#include "step_solver_base.hpp"

namespace finch::codegen {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// K: the largest number of faces of any cell, the face table's capacity and
// the fused body's face count.
int32_t max_cell_faces(const mesh::Mesh& mesh) {
  size_t k = 0;
  for (int32_t c = 0; c < mesh.num_cells(); ++c) k = std::max<size_t>(k, mesh.cell_faces(c).size());
  return static_cast<int32_t>(k);
}

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

// One boundary-condition slot: a (cell, face) pair with an applicable BC.
struct BcSlot {
  int32_t cell = 0;
  int32_t face = 0;
  mesh::Vec3 normal{};
  const fvm::BoundaryCondition* bc = nullptr;
};

struct EquationNative {
  NativePlan plan;  // plan.fn == nullptr → VM fallback for this equation
  bool verified = false;
  std::vector<int32_t> face_bslot;  // per face slot; -1 = no BC (zero flux)
  std::vector<BcSlot> slots;
  std::vector<uint8_t> bc_kind;      // per slot: 1 = value (ghost), 2 = flux
  std::vector<double> bc_value;      // slots × ndof, refreshed every sweep
  std::vector<uint8_t> cell_fused;   // per cell: 1 = runs the kernel's fused body
  int64_t general_cells = 0;         // cells on the general body, per sweep
};

class NativeSolver final : public StepSolverBase {
 public:
  NativeSolver(dsl::Problem& p, rt::ThreadPool* pool) : StepSolverBase(p, pool) {
    build_face_csr();
    auto& reg = rt::MetricsRegistry::global();
    native_.resize(eqs_.size());
    for (size_t e = 0; e < eqs_.size(); ++e) {
      CompiledEquation& ce = eqs_[e];
      EquationNative& en = native_[e];
      build_bc_table(ce, en);
      try {
        en.plan = emit_native_plan(kernel_inputs(ce, env_, max_faces_));
        classify_cells(en);
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
    refresh_bc(e);
    if (!en.verified && jit_config().verify_first_sweep) {
      en.verified = true;
      // Differential check: replay this exact sweep on the VM oracle and
      // require bit identity of the field and of the fused sum against the
      // post-pass. A mismatch demotes the equation to the VM and keeps the
      // oracle's answer — never a wrong result.
      fvm::CellField ref("jit_verify", out.num_cells(), out.dof_per_cell(), out.layout());
      std::copy(out.data().begin(), out.data().end(), ref.data().begin());
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
  void build_face_csr() {
    const mesh::Mesh& mesh = p_.mesh();
    const int64_t nc = mesh.num_cells();
    face_off_.assign(static_cast<size_t>(nc) + 1, 0);
    for (int64_t c = 0; c < nc; ++c)
      face_off_[static_cast<size_t>(c) + 1] =
          face_off_[static_cast<size_t>(c)] +
          static_cast<int64_t>(mesh.cell_faces(static_cast<int32_t>(c)).size());
    max_faces_ = max_cell_faces(mesh);
    const size_t nslots = static_cast<size_t>(face_off_[static_cast<size_t>(nc)]);
    face_id_.reserve(nslots);
    face_nbr_.reserve(nslots);
    face_geom_.reserve(nslots * 4);
    for (int64_t c = 0; c < nc; ++c) {
      const auto cell = static_cast<int32_t>(c);
      // Match the VM exactly: inverse volume first, then area * inv_vol.
      const double inv_vol = 1.0 / mesh.cell_volume(cell);
      for (int32_t f : mesh.cell_faces(cell)) {
        const mesh::Face& face = mesh.face(f);
        const mesh::Vec3 n = mesh.outward_normal(f, cell);
        face_id_.push_back(f);
        face_nbr_.push_back(face.is_boundary() ? -1 : mesh.across(f, cell));
        face_geom_.push_back(n.x);
        face_geom_.push_back(n.y);
        face_geom_.push_back(n.z);
        face_geom_.push_back(face.area * inv_vol);
      }
    }
  }

  static bool bits_equal(const fvm::CellField& a, const fvm::CellField& b) {
    return std::memcmp(a.data().data(), b.data().data(), a.data().size() * sizeof(double)) == 0;
  }

  void build_bc_table(const CompiledEquation& ce, EquationNative& en) {
    const mesh::Mesh& mesh = p_.mesh();
    en.face_bslot.assign(face_id_.size(), -1);
    size_t s = 0;
    for (int32_t cell = 0; cell < mesh.num_cells(); ++cell) {
      for (int32_t f : mesh.cell_faces(cell)) {
        const size_t slot = s++;
        if (face_nbr_[slot] >= 0) continue;
        const mesh::Face& face = mesh.face(f);
        const fvm::BoundaryCondition* bc =
            p_.boundaries().find(ce.field->name(), face.boundary_region);
        if (bc == nullptr) continue;  // default zero-flux wall, kernel skips it
        en.face_bslot[slot] = static_cast<int32_t>(en.slots.size());
        en.slots.push_back({cell, f, mesh.outward_normal(f, cell), bc});
        en.bc_kind.push_back(bc->type == fvm::BcType::Flux ? 2 : 1);
      }
    }
    en.bc_value.assign(en.slots.size() * static_cast<size_t>(ce.field->dof_per_cell()), 0.0);
  }

  // Which body each cell runs, the one place the rule lives: the fused body
  // when the kernel has one (NativePlan::fused_faces = K) and exactly K of
  // the cell's faces contribute, each interior or a value BC. A boundary
  // face without a BC contributes nothing; a flux BC needs the general body.
  void classify_cells(EquationNative& en) const {
    const int64_t nc = p_.mesh().num_cells();
    en.cell_fused.assign(static_cast<size_t>(nc), 0);
    en.general_cells = 0;
    for (int64_t c = 0; c < nc; ++c) {
      int32_t contributing = 0;
      bool flux = false;
      for (int64_t fs = face_off_[static_cast<size_t>(c)]; fs < face_off_[static_cast<size_t>(c) + 1]; ++fs) {
        const int32_t bs = en.face_bslot[static_cast<size_t>(fs)];
        if (face_nbr_[static_cast<size_t>(fs)] < 0 && bs < 0) continue;
        ++contributing;
        flux = flux || (bs >= 0 && en.bc_kind[static_cast<size_t>(bs)] == 2);
      }
      const bool fused = en.plan.fused_faces > 0 && contributing == en.plan.fused_faces && !flux;
      en.cell_fused[static_cast<size_t>(c)] = fused ? 1 : 0;
      en.general_cells += fused ? 0 : 1;
    }
  }

  // Host pre-pass: one boundary callback per slot fills that face's DOFs
  // before launching the kernel. Legal because sweeps write scratch storage —
  // fields are static for the duration of a sweep, so the callbacks see the
  // same state they would see inside the VM's per-cell evaluation.
  void refresh_bc(size_t e) {
    CompiledEquation& ce = eqs_[e];
    EquationNative& en = native_[e];
    rt::SpanAttrs attrs;
    attrs.phase = "compute";
    rt::TraceSpan span("jit.bc_refresh", attrs);
    const auto t0 = Clock::now();
    const auto ndof = static_cast<size_t>(ce.field->dof_per_cell());
    fvm::BoundaryContext bctx;
    bctx.mesh = &p_.mesh();
    bctx.fields = &p_.fields();
    bctx.field = ce.field;
    bctx.extent = ce.extent;
    bctx.time = time_;
    for (size_t s = 0; s < en.slots.size(); ++s) {
      const BcSlot& slot = en.slots[s];
      bctx.cell = slot.cell;
      bctx.face = slot.face;
      bctx.normal = slot.normal;
      slot.bc->fn(bctx, std::span<double>(en.bc_value).subspan(s * ndof, ndof));
    }
    auto& reg = rt::MetricsRegistry::global();
    reg.counter("bc.calls").add(static_cast<double>(en.slots.size()));
    reg.counter("jit.bc_refresh.seconds").add(seconds_since(t0));
  }

  void run_kernel(size_t e, fvm::CellField& out, double dt_stage) {
    EquationNative& en = native_[e];
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
    args.face_off = face_off_.data();
    args.face_nbr = face_nbr_.data();
    args.face_geom = face_geom_.data();
    args.face_bslot = en.face_bslot.data();
    args.bc_kind = en.bc_kind.data();
    args.bc_value = en.bc_value.data();
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

  // Face CSR shared by every equation: faces of cell c occupy slots
  // [face_off_[c], face_off_[c+1]), in mesh.cell_faces() order.
  std::vector<int64_t> face_off_;
  std::vector<int32_t> face_id_;
  std::vector<int32_t> face_nbr_;
  std::vector<double> face_geom_;  // nx, ny, nz, area/volume per slot
  int32_t max_faces_ = 0;
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
    const int32_t max_faces = max_cell_faces(p_.mesh());
    for (const CompiledEquation& ce : eqs_) {
      if (!out.empty()) out += "\n";
      out += emit_native_plan(kernel_inputs(ce, env_, max_faces)).source;
    }
    return out;
  }
};

}  // namespace

std::string emitted_native_source(dsl::Problem& problem) {
  return SourceProbe(problem).sources();
}

}  // namespace finch::codegen
