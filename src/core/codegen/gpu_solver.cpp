#include "gpu_solver.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "bytecode.hpp"

#include "core/symbolic/simplify.hpp"
#include "core/dsl/problem.hpp"
#include "runtime/metrics.hpp"
#include "runtime/trace.hpp"

namespace finch::codegen {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<ArrayUse> array_uses(dsl::Problem& p) {
  std::vector<ArrayUse> uses;
  const auto& recs = p.equations();
  auto find = [&uses](const std::string& name) -> ArrayUse& {
    for (auto& u : uses)
      if (u.name == name) return u;
    uses.push_back(ArrayUse{name, 0, false, false, false, false});
    return uses.back();
  };
  // GPU side: everything the generated kernels touch.
  for (const auto& rec : recs) {
    for (const auto& usage : rec.program.usage) {
      ArrayUse& a = find(usage.name);
      a.gpu_reads = a.gpu_reads || usage.read_self || usage.read_neighbor;
      a.gpu_writes = a.gpu_writes || usage.written;
      if (p.fields().has(usage.name)) {
        a.bytes = static_cast<int64_t>(p.fields().get(usage.name).size()) * 8;
      } else if (p.indexed_coefficients().count(usage.name) != 0) {
        a.bytes = static_cast<int64_t>(p.indexed_coefficients().at(usage.name).size()) * 8;
      } else {
        a.bytes = 8;
      }
    }
  }
  // CPU side: post-step annotations, or conservative everything-every-step.
  if (p.has_movement_annotations()) {
    for (const auto& v : p.cpu_step_reads()) find(v).cpu_reads = true;
    for (const auto& v : p.cpu_step_writes()) find(v).cpu_writes = true;
  } else {
    for (auto& a : uses) {
      a.cpu_reads = true;
      a.cpu_writes = true;
    }
  }
  return uses;
}

class GpuSolver final : public dsl::Solver {
 public:
  GpuSolver(dsl::Problem& p, rt::SimGpu* gpu) : p_(p), gpu_(gpu) {
    if (p.scheme() != dsl::TimeScheme::ForwardEuler)
      throw std::invalid_argument("GPU target currently lowers ForwardEuler only");
    build_env();
    const auto& recs = p.equations();
    for (const auto& rec : recs) {
      Compiled ce;
      ce.rec = &rec;
      ce.volume = compile(sym::simplify(sym::add(rec.classified.rhs_volume)), env_);
      ce.has_surface = !rec.classified.rhs_surface.empty();
      if (ce.has_surface) ce.surface = compile(sym::simplify(sym::add(rec.classified.rhs_surface)), env_);
      ce.field = &p.fields().get(rec.variable);
      const sym::EntityInfo& info = *p.entities().find(rec.variable);
      int32_t stride = 1;
      ce.addr.n_idx = 0;
      for (const auto& idx : info.indices) {
        ce.addr.loop_slot[static_cast<size_t>(ce.addr.n_idx)] = env_.loop_slot_of(idx);
        ce.addr.stride[static_cast<size_t>(ce.addr.n_idx)] = stride;
        stride *= p.entities().find_index(idx)->extent();
        ++ce.addr.n_idx;
      }
      ce.dofs_per_cell = ce.field->dof_per_cell();
      if (!info.indices.empty()) ce.dir_slot = env_.loop_slot_of(info.indices[0]);
      if (info.indices.size() > 1) ce.band_slot = env_.loop_slot_of(info.indices[1]);
      eqs_.push_back(std::move(ce));
    }

    // Interior / boundary split (boundary cells need CPU callbacks).
    const mesh::Mesh& mesh = p.mesh();
    std::vector<char> is_bdry(static_cast<size_t>(mesh.num_cells()), 0);
    for (int32_t c : mesh.boundary_cells()) is_bdry[static_cast<size_t>(c)] = 1;
    for (int32_t c = 0; c < mesh.num_cells(); ++c)
      (is_bdry[static_cast<size_t>(c)] ? boundary_cells_ : interior_cells_).push_back(c);

    // Movement plan + one-time uploads. Device buffers hold real copies so
    // transfer semantics are exercised; the numerics read the host fields
    // (bit-identical — the device copy is a mirror).
    plan_ = plan_movement(array_uses(p));
    for (const auto& t : plan_.upload_once) {
      if (!p.fields().has(t.array)) continue;
      const fvm::CellField& f = p.fields().get(t.array);
      device_[t.array] = gpu_->allocate(f.size());
      gpu_->memcpy_h2d(device_[t.array], f.data());
    }
    upload_comm_ = gpu_->counters().copy_seconds;  // setup cost, not per-step
    for (auto& ce : eqs_)
      scratch_.emplace_back(ce.field->name() + "_new", ce.field->num_cells(), ce.field->dof_per_cell(),
                            ce.field->layout());
    kernel_stream_ = gpu_->create_stream();
  }

  void step() override {
    p_.run_pre_steps(time_);
    const double dev_before = gpu_->stream_clock(kernel_stream_);
    const double copy_before = gpu_->counters().copy_seconds;

    // 1. Interior kernel, launched asynchronously on its own stream.
    auto t0 = Clock::now();
    for (size_t e = 0; e < eqs_.size(); ++e) launch_interior(eqs_[e], scratch_[e]);
    const double kernel_seconds = gpu_->stream_clock(kernel_stream_) - dev_before;

    // 2. Boundary contributions on the CPU, overlapping the kernel (Fig. 6).
    for (size_t e = 0; e < eqs_.size(); ++e) cpu_boundary(eqs_[e], scratch_[e]);
    const double cpu_boundary_seconds = seconds_since(t0);

    // 3. Synchronize and bring results back per the movement plan; commit.
    for (auto& t : plan_.per_step_d2h) charge_d2h(t);
    for (size_t e = 0; e < eqs_.size(); ++e) {
      std::span<const double> src = scratch_[e].data();
      std::span<double> dst = eqs_[e].field->data();
      std::copy(src.begin(), src.end(), dst.begin());
    }
    phases_.intensity += std::max(kernel_seconds, cpu_boundary_seconds);

    // 4. CPU post-processing (temperature update).
    t0 = Clock::now();
    p_.run_post_steps(time_);
    phases_.post_process += seconds_since(t0);

    // 5. Send CPU-updated variables to the device.
    for (auto& t : plan_.per_step_h2d) charge_h2d(t);
    phases_.communication += gpu_->counters().copy_seconds - copy_before;

    time_ += p_.dt();
  }

 private:
  struct Compiled {
    const dsl::Problem::EquationRecord* rec = nullptr;
    Program volume, surface;
    bool has_surface = false;
    fvm::CellField* field = nullptr;
    Binding addr;
    int32_t dofs_per_cell = 1;
    int dir_slot = -1, band_slot = -1;
  };

  void build_env() {
    env_.table = &p_.entities();
    for (const auto& [name, info] : p_.entities().indices()) {
      env_.index_order.push_back(name);
      env_.index_extent.push_back(info.extent());
    }
    env_.fields = &p_.fields();
    env_.coefficients = &p_.indexed_coefficients();
    env_.scalar_coefficients = &p_.scalar_coefficients();
  }

  void set_loop_values(const Compiled& ce, int32_t dof, EvalContext& ctx) {
    // Invert dof -> index values for the variable's index list.
    int32_t rem = dof;
    for (int k = ce.addr.n_idx; k-- > 0;) {
      const int32_t digit = rem / ce.addr.stride[static_cast<size_t>(k)];
      ctx.loop_values[static_cast<size_t>(ce.addr.loop_slot[static_cast<size_t>(k)])] = digit;
      rem -= digit * ce.addr.stride[static_cast<size_t>(k)];
    }
  }

  void launch_interior(Compiled& ce, fvm::CellField& out) {
    const mesh::Mesh& mesh = p_.mesh();
    const Program::Stats vs = ce.volume.analyze();
    const Program::Stats ss = ce.has_surface ? ce.surface.analyze() : Program::Stats{};
    const int faces = mesh.dimension() == 2 ? 4 : 6;

    rt::KernelStats ks;
    ks.threads = static_cast<int64_t>(interior_cells_.size()) * ce.dofs_per_cell;
    ks.flops_per_thread = vs.flops + faces * (ss.flops + 2);  // + area/vol scale & accumulate
    const int total_flops = vs.flops + faces * ss.flops;
    ks.fma_fraction = total_flops > 0
                          ? static_cast<double>(2 * (vs.fma_pairs + faces * ss.fma_pairs)) / total_flops
                          : 0.0;
    // Unique DRAM traffic per thread: the own value write + read dominate;
    // neighbor values and per-band tables are shared across many threads and
    // mostly resolve in cache.
    ks.dram_bytes_per_thread = 8.0 /*write*/ + 8.0 /*own read*/ + 2.0 /*amortized shared*/;
    ks.divergence = 0.02 * ss.branches;  // upwind selects cause mild divergence

    rt::TraceSpan span("gpu.launch_interior");
    const auto t0 = Clock::now();
    gpu_->launch(
        "interior_" + ce.rec->variable, ks,
        [&] {
          for (int32_t cell : interior_cells_) {
            EvalContext ctx;
            ctx.dt = p_.dt();
            ctx.cell = cell;
            for (int32_t dof = 0; dof < ce.dofs_per_cell; ++dof) {
              set_loop_values(ce, dof, ctx);
              double value = eval(ce.volume, ctx);
              if (ce.has_surface) value += surface_interior(ce, ctx, cell);
              out.at(cell, dof) = value;
            }
          }
        },
        kernel_stream_);
    const int64_t evals = static_cast<int64_t>(interior_cells_.size()) * ce.dofs_per_cell;
    note_eval_batch(ce.volume, ce.has_surface ? &ce.surface : nullptr, evals,
                    ce.has_surface ? evals * faces : 0, seconds_since(t0));
  }

  double surface_interior(Compiled& ce, EvalContext& ctx, int32_t cell) {
    const mesh::Mesh& mesh = p_.mesh();
    const double inv_vol = 1.0 / mesh.cell_volume(cell);
    double acc = 0.0;
    for (int32_t f : mesh.cell_faces(cell)) {
      const mesh::Face& face = mesh.face(f);
      const mesh::Vec3 n = mesh.outward_normal(f, cell);
      ctx.normal = {n.x, n.y, n.z};
      ctx.neighbor = mesh.across(f, cell);
      acc += face.area * inv_vol * eval(ce.surface, ctx);
      ctx.neighbor = -1;
    }
    return acc;
  }

  void cpu_boundary(Compiled& ce, fvm::CellField& out) {
    const mesh::Mesh& mesh = p_.mesh();
    for (int32_t cell : boundary_cells_) {
      EvalContext ctx;
      ctx.dt = p_.dt();
      ctx.cell = cell;
      const double inv_vol = 1.0 / mesh.cell_volume(cell);
      for (int32_t dof = 0; dof < ce.dofs_per_cell; ++dof) {
        set_loop_values(ce, dof, ctx);
        double value = eval(ce.volume, ctx);
        if (ce.has_surface) {
          // Sum face terms into a local accumulator so the result is
          // bit-identical to the CPU target's association order.
          double acc = 0.0;
          for (int32_t f : mesh.cell_faces(cell)) {
            const mesh::Face& face = mesh.face(f);
            const mesh::Vec3 n = mesh.outward_normal(f, cell);
            ctx.normal = {n.x, n.y, n.z};
            const double scale = face.area * inv_vol;
            if (!face.is_boundary()) {
              ctx.neighbor = mesh.across(f, cell);
              acc += scale * eval(ce.surface, ctx);
              ctx.neighbor = -1;
              continue;
            }
            const fvm::BoundaryCondition* bc = p_.boundaries().find(ce.field->name(), face.boundary_region);
            if (bc == nullptr) continue;  // zero-flux default
            fvm::BoundaryContext bctx;
            bctx.mesh = &mesh;
            bctx.fields = &p_.fields();
            bctx.field = ce.field;
            bctx.cell = cell;
            bctx.face = f;
            bctx.normal = n;
            bctx.dof = dof;
            bctx.dir = ce.dir_slot >= 0 ? ctx.loop_values[static_cast<size_t>(ce.dir_slot)] : 0;
            bctx.band = ce.band_slot >= 0 ? ctx.loop_values[static_cast<size_t>(ce.band_slot)] : 0;
            bctx.time = time_;
            if (bc->type == fvm::BcType::Flux) {
              acc += scale * (-p_.dt()) * bc->fn(bctx);
            } else {
              ctx.ghost_field = ce.field;
              ctx.ghost_value = bc->fn(bctx);
              acc += scale * eval(ce.surface, ctx);
              ctx.ghost_field = nullptr;
            }
          }
          value += acc;
        }
        out.at(cell, dof) = value;
      }
    }
  }

  // Per-step transfers seal an ABFT sidecar from the source payload and
  // verify the destination against it; a mismatch (corrupted link) redoes
  // the copy, so silent transport damage never reaches the consumer side.
  void charge_d2h(MovementPlan::Transfer& t) {
    auto it = device_.find(t.array);
    if (it == device_.end() || !p_.fields().has(t.array)) return;
    rt::TraceSpan span("movement.d2h");
    host_scratch_.resize(it->second.size());
    t.seal({it->second.device_data(), it->second.size()});
    gpu_->memcpy_d2h(host_scratch_, it->second, kernel_stream_);
    rt::MetricsRegistry::global().counter("movement.d2h.transfers").add(1.0);
    if (!t.verify(host_scratch_)) {
      transfer_audit_failures_ += 1;
      rt::MetricsRegistry::global().counter("movement.audit_failures").add(1.0);
      gpu_->memcpy_d2h(host_scratch_, it->second, kernel_stream_);
    }
  }

  void charge_h2d(MovementPlan::Transfer& t) {
    auto it = device_.find(t.array);
    if (it == device_.end() || !p_.fields().has(t.array)) return;
    rt::TraceSpan span("movement.h2d");
    std::span<const double> src = p_.fields().get(t.array).data();
    t.seal(src);
    gpu_->memcpy_h2d(it->second, src, kernel_stream_);
    rt::MetricsRegistry::global().counter("movement.h2d.transfers").add(1.0);
    if (!t.verify({it->second.device_data(), src.size()})) {
      transfer_audit_failures_ += 1;
      rt::MetricsRegistry::global().counter("movement.audit_failures").add(1.0);
      gpu_->memcpy_h2d(it->second, src, kernel_stream_);
    }
  }

  dsl::Problem& p_;
  rt::SimGpu* gpu_;
  CompileEnv env_;
  std::vector<Compiled> eqs_;
  std::vector<fvm::CellField> scratch_;
  std::vector<int32_t> interior_cells_, boundary_cells_;
  MovementPlan plan_;
  std::map<std::string, rt::DeviceBuffer> device_;
  std::vector<double> host_scratch_;
  int kernel_stream_ = 0;
  double upload_comm_ = 0.0;
  int64_t transfer_audit_failures_ = 0;
};

}  // namespace

std::unique_ptr<dsl::Solver> make_gpu_solver(dsl::Problem& problem, rt::SimGpu* gpu) {
  return std::make_unique<GpuSolver>(problem, gpu);
}

MovementPlan gpu_movement_plan(dsl::Problem& problem, bool naive) {
  problem.compile(dsl::Target::CpuSerial);  // ensure finalized
  const auto uses = array_uses(problem);
  return naive ? plan_movement_naive(uses) : plan_movement(uses);
}

}  // namespace finch::codegen
