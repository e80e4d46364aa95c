#include "gpu_solver.hpp"

#include <algorithm>
#include <chrono>
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

class GpuSolver final : public StepSolverBase {
 public:
  GpuSolver(dsl::Problem& p, rt::SimGpu* gpu, bool native) : StepSolverBase(p, nullptr, native), gpu_(gpu) {
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
    if (!interior_cells_.empty())
      faces_per_cell_ = static_cast<double>(interior_faces) / static_cast<double>(interior_cells_.size());

    // The movement plan is priced on the device, not performed: the numerics
    // read the host fields, so a device copy would be a mirror nothing reads.
    // The fields the plan uploads once are the device-resident arrays, and
    // only they cross the link per step.
    plan_ = plan_movement(array_uses(p));
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

  void step() override {
    p_.run_pre_steps(time_);
    const double dev_before = gpu_->stream_clock(kernel_stream_);
    const double copy_before = gpu_->counters().copy_seconds;

    // 1. The host fills the boundary values both halves read, then launches
    // the interior kernel asynchronously on its own stream. The launch body
    // runs on this thread, but its time is the device's: the host is billed
    // only for its own work, the fill and the boundary cells.
    auto t0 = Clock::now();
    for (size_t e = 0; e < eqs_.size(); ++e) fill_boundary(e);
    double host_seconds = seconds_since(t0);
    std::vector<GuardTally> guards(eqs_.size());
    for (size_t e = 0; e < eqs_.size(); ++e) guards[e] = launch_interior(e);
    const double kernel_seconds = gpu_->stream_clock(kernel_stream_) - dev_before;

    // 2. Boundary cells on the CPU, overlapping the kernel (Fig. 6). Each
    // equation's guard report merges both halves by serial rank.
    t0 = Clock::now();
    for (size_t e = 0; e < eqs_.size(); ++e) {
      guards[e].add(sweep(e, scratch_[e], p_.dt(), boundary_cells_));
      report_guard(e, guards[e]);
    }
    host_seconds += seconds_since(t0);

    // 3. Synchronize: with both halves swept, the first kernel stage is
    // checked against the VM over every cell. Then price the plan's
    // downloads and commit.
    t0 = Clock::now();
    std::vector<char> fused(eqs_.size());
    for (size_t e = 0; e < eqs_.size(); ++e) fused[e] = finish_stage(e, scratch_[e], p_.dt());
    const double verify_seconds = seconds_since(t0);
    for (const auto& t : plan_.per_step_d2h) charge(t, rt::SimGpu::Copy::D2H);
    commit();
    phases_.compute += std::max(kernel_seconds, host_seconds) + verify_seconds;

    // 4. CPU post-processing: the declared reductions the kernel did not
    // form, then the post-steps (temperature update).
    t0 = Clock::now();
    for (size_t e = 0; e < eqs_.size(); ++e)
      if (!fused[e]) reduce(e);
    p_.run_post_steps(time_);
    phases_.post_process += seconds_since(t0);

    // 5. Price the uploads of CPU-updated variables.
    for (const auto& t : plan_.per_step_h2d) charge(t, rt::SimGpu::Copy::H2D);
    phases_.communication += gpu_->counters().copy_seconds - copy_before;

    time_ += p_.dt();
  }

 private:
  // The interior update as one device launch: the equation's sweep over the
  // interior cells, charged to the kernel stream with the roofline profile
  // of the equation's programs (one thread per DOF).
  GuardTally launch_interior(size_t e) {
    const CompiledEquation& ce = eqs_[e];
    const Program::Stats vs = ce.volume.analyze();
    const Program::Stats ss = ce.has_surface ? ce.surface.analyze() : Program::Stats{};
    const double faces = faces_per_cell_;

    rt::KernelStats ks;
    ks.threads = static_cast<int64_t>(interior_cells_.size()) * ce.field->dof_per_cell();
    ks.flops_per_thread = vs.flops + faces * (ss.flops + 2);  // + area/vol scale & accumulate
    const double total_flops = vs.flops + faces * ss.flops;
    ks.fma_fraction = total_flops > 0 ? 2 * (vs.fma_pairs + faces * ss.fma_pairs) / total_flops : 0.0;
    // Unique DRAM traffic per thread: the own value write + read dominate;
    // neighbor values and per-band tables are shared across many threads and
    // mostly resolve in cache.
    ks.dram_bytes_per_thread = 8.0 /*write*/ + 8.0 /*own read*/ + 2.0 /*amortized shared*/;
    ks.divergence = 0.02 * ss.branches;  // upwind selects cause mild divergence

    rt::TraceSpan span("gpu.launch_interior");
    GuardTally guard;
    gpu_->launch(
        "interior_" + ce.field->name(), ks,
        [&] { guard = sweep(e, scratch_[e], p_.dt(), interior_cells_); }, kernel_stream_);
    return guard;
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
  std::vector<int32_t> interior_cells_, boundary_cells_;
  double faces_per_cell_ = 0.0;  // mean face count of an interior cell
  MovementPlan plan_;  // per-step transfers of device-resident arrays only
  int kernel_stream_ = 0;
};

}  // namespace

std::unique_ptr<dsl::Solver> make_gpu_solver(dsl::Problem& problem, rt::SimGpu* gpu, bool native) {
  return std::make_unique<GpuSolver>(problem, gpu, native);
}

MovementPlan gpu_movement_plan(dsl::Problem& problem, bool naive) {
  problem.compile(dsl::Target::CpuSerial);  // ensure finalized
  const auto uses = array_uses(problem);
  return naive ? plan_movement_naive(uses) : plan_movement(uses);
}

}  // namespace finch::codegen
