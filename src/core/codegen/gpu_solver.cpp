#include "gpu_solver.hpp"

#include <set>
#include <stdexcept>
#include <string>

#include "core/dsl/problem.hpp"
#include "runtime/metrics.hpp"
#include "runtime/trace.hpp"
#include "step_solver_base.hpp"

namespace finch::codegen {

namespace {

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

// The roofline profile of an equation's interior launch: one thread per DOF
// of the `cells` interior cells, whose mean face count is `faces`.
rt::KernelStats interior_stats(const CompiledEquation& ce, int64_t cells, double faces) {
  const Program::Stats vs = ce.volume.analyze();
  const Program::Stats ss = ce.has_surface ? ce.surface.analyze() : Program::Stats{};
  rt::KernelStats ks;
  ks.threads = cells * ce.field->dof_per_cell();
  ks.flops_per_thread = vs.flops + faces * (ss.flops + 2);  // + area/vol scale & accumulate
  const double total_flops = vs.flops + faces * ss.flops;
  ks.fma_fraction = total_flops > 0 ? 2 * (vs.fma_pairs + faces * ss.fma_pairs) / total_flops : 0.0;
  // Unique DRAM traffic per thread: the own value write + read dominate;
  // neighbor values and per-band tables are shared across many threads and
  // mostly resolve in cache.
  ks.dram_bytes_per_thread = 8.0 /*write*/ + 8.0 /*own read*/ + 2.0 /*amortized shared*/;
  ks.divergence = 0.02 * ss.branches;  // upwind selects cause mild divergence
  return ks;
}

class GpuSolver final : public StepSolverBase {
 public:
  GpuSolver(dsl::Problem& p, rt::SimGpu* gpu, bool native)
      : StepSolverBase(p, nullptr, native), gpu_(gpu), plan_(gpu_movement_plan(p)) {
    // One host round trip per step is what the plan prices; RK2's midpoint
    // callbacks would need one per stage.
    if (p.scheme() != dsl::TimeScheme::ForwardEuler)
      throw std::invalid_argument("GPU target currently lowers ForwardEuler only");

    // Interior / boundary split (boundary cells read the filled BC values).
    const mesh::Mesh& mesh = p.mesh();
    std::vector<char> is_bdry(static_cast<size_t>(mesh.num_cells()), 0);
    for (int32_t c : mesh.boundary_cells()) is_bdry[static_cast<size_t>(c)] = 1;
    int64_t interior_faces = 0;
    for (int32_t c = 0; c < mesh.num_cells(); ++c) {
      if (is_bdry[static_cast<size_t>(c)]) {
        boundary_cells_.push_back(c);
        continue;
      }
      interior_cells_.push_back(c);
      interior_faces += static_cast<int64_t>(mesh.cell_faces(c).size());
    }
    double faces = 0.0;  // mean face count of an interior cell
    if (!interior_cells_.empty())
      faces = static_cast<double>(interior_faces) / static_cast<double>(interior_cells_.size());
    for (const CompiledEquation& ce : eqs_)
      stats_.push_back(interior_stats(ce, static_cast<int64_t>(interior_cells_.size()), faces));

    // The movement plan is priced on the device, not performed: the numerics
    // read the host fields, so a device copy would be a mirror nothing reads.
    // The fields the plan uploads once are the device-resident arrays, and
    // only they cross the link per step.
    std::set<std::string> resident;
    for (const auto& t : plan_.upload_once) {
      if (!p.fields().has(t.array)) continue;
      resident.insert(t.array);
      gpu_->charge_copy(rt::SimGpu::Copy::H2D, t.bytes);
    }
    const auto off_device = [&](const MovementPlan::Transfer& t) {
      return resident.count(t.array) == 0;
    };
    std::erase_if(plan_.per_step_d2h, off_device);
    std::erase_if(plan_.per_step_h2d, off_device);
    kernel_stream_ = gpu_->create_stream();
  }

  // The base step, then the plan's per-step transfers on the kernel stream:
  // the downloads, then the uploads of CPU-updated variables.
  void step() override {
    const double copy_before = gpu_->counters().copy_seconds;
    StepSolverBase::step();
    for (const auto& t : plan_.per_step_d2h) charge(t, rt::SimGpu::Copy::D2H);
    for (const auto& t : plan_.per_step_h2d) charge(t, rt::SimGpu::Copy::H2D);
    phases_.communication += gpu_->counters().copy_seconds - copy_before;
  }

 private:
  // The interior cells as one launch on the kernel stream, then the
  // boundary cells on the host, overlapping it (Fig. 6). The launch body
  // runs on this thread, but its time is the device's: the host bills only
  // the boundary sweep. The guard report merges both halves by serial rank.
  SweepClocks sweep_mesh(size_t e, fvm::CellField& out, double dt_stage) override {
    const double before = gpu_->stream_clock(kernel_stream_);
    GuardTally guard;
    {
      rt::TraceSpan span("gpu.launch_interior");
      gpu_->launch(
          "interior_" + eqs_[e].field->name(), stats_[e],
          [&] { guard = sweep(e, out, dt_stage, interior_cells_); }, kernel_stream_);
    }
    const double device = gpu_->stream_clock(kernel_stream_) - before;
    const auto t0 = rt::Clock::now();
    guard.add(sweep(e, out, dt_stage, boundary_cells_));
    const double host = rt::seconds_since(t0);
    report_guard(e, guard);
    return {host, device};
  }

  // One per-step transfer of the plan, priced on the kernel stream.
  void charge(const MovementPlan::Transfer& t, rt::SimGpu::Copy dir) {
    const bool h2d = dir == rt::SimGpu::Copy::H2D;
    rt::TraceSpan span(h2d ? "movement.h2d" : "movement.d2h");
    gpu_->charge_copy(dir, t.bytes, kernel_stream_);
    rt::MetricsRegistry::global()
        .counter(h2d ? "movement.h2d.transfers" : "movement.d2h.transfers")
        .add(1.0);
  }

  rt::SimGpu* gpu_;
  MovementPlan plan_;  // per-step transfers of device-resident arrays only
  std::vector<int32_t> interior_cells_, boundary_cells_;
  std::vector<rt::KernelStats> stats_;  // per equation: its interior launch
  int kernel_stream_ = 0;
};

}  // namespace

std::unique_ptr<dsl::Solver> make_gpu_solver(dsl::Problem& problem, rt::SimGpu* gpu, bool native) {
  return std::make_unique<GpuSolver>(problem, gpu, native);
}

MovementPlan gpu_movement_plan(dsl::Problem& problem, bool naive) {
  problem.finalize();
  const auto uses = array_uses(problem);
  return naive ? plan_movement_naive(uses) : plan_movement(uses);
}

}  // namespace finch::codegen
