#include "models.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "bte/direct_solver.hpp"
#include "mesh/mesh.hpp"

namespace finch::perf {

CalibratedCosts CalibratedCosts::measure() {
  // Run the hand-written solver on a reduced problem and scale its measured
  // per-DOF / per-cell costs. The DSL-generated and hand-written solvers
  // implement the same update, so one calibration serves both (the baseline's
  // 2x factor is applied where the paper reports it).
  // The calibration problem must exceed cache so the per-DOF cost matches
  // full-scale behaviour (a 24x24 toy grid under-measures it by 2-4x):
  // 80x80 cells x 20 dirs x ~27 resolved bands ~ 3.4e6 DOFs (~55 MB live).
  bte::BteScenario s;
  s.nx = s.ny = 80;
  s.lx = s.ly = 300e-6;
  s.ndirs = 20;
  s.nbands = 40;  // the paper's exact spectral resolution (55 resolved bands)
  s.dt = 1e-12;
  auto phys = std::make_shared<const bte::BtePhysics>(s.nbands, s.ndirs);
  bte::DirectSolver solver(s, phys);
  // The first step pays one-time page/TLB warm-up on the ~60 MB arrays;
  // measure steady-state steps only.
  solver.step();
  const double warm_int = solver.phases().compute;
  const double warm_temp = solver.phases().post_process;
  const int steps = 3;
  solver.run(steps);
  CalibratedCosts c;
  const double dofs = static_cast<double>(solver.num_cells()) * solver.dofs_per_cell() * steps;
  const double cells = static_cast<double>(solver.num_cells()) * steps;
  // The hand-written solver *is* the 2x-faster baseline; the DSL-generated
  // code costs ~2x more per DOF (paper: "roughly twice as long").
  const double direct_per_dof = (solver.phases().compute - warm_int) / dofs;
  c.sec_per_dof_intensity = 2.0 * direct_per_dof;
  // Temperature cost is measured at the paper's own 55-band discretization,
  // so no band-count normalization is needed (Newton iteration counts do not
  // scale linearly with bands).
  c.sec_per_cell_temperature = (solver.phases().post_process - warm_temp) / cells;
  c.fortran_speedup = 2.0;
  return c;
}

Workload Workload::paper() {
  Workload w;
  w.cell_nx = w.cell_ny = 120;
  w.cells = 120 * 120;
  w.dirs = 20;
  w.bands = 55;
  w.steps = 100;
  return w;
}

Workload Workload::from_scenario(const bte::BteScenario& s) {
  Workload w;
  w.cell_nx = s.nx;
  w.cell_ny = s.ny;
  w.cells = static_cast<int64_t>(s.nx) * s.ny;
  w.dirs = s.ndirs;
  // Resolved bands for the scenario's spectral band count.
  w.bands = bte::make_bands(bte::Dispersion::silicon(), s.nbands).size();
  w.steps = s.nsteps;
  return w;
}

namespace {

ScalingPoint finish(rt::BspSimulator& sim, int procs) {
  return ScalingPoint{procs, sim.elapsed(), sim.phases()};
}

// Temperature update with a serial (unparallelized) fraction.
double temp_seconds(const Workload& w, const CalibratedCosts& c, double serial_fraction, int procs) {
  const double full = static_cast<double>(w.cells) * c.sec_per_cell_temperature;
  return full * (serial_fraction + (1.0 - serial_fraction) / procs);
}

}  // namespace

ScalingPoint model_band_parallel(const Workload& w, const CalibratedCosts& c, const ModelConfig& m,
                                 int procs) {
  if (procs < 1) throw std::invalid_argument("model_band_parallel: procs >= 1");
  // Cannot split finer than one band per rank.
  const int eff = std::min<int64_t>(procs, w.bands);
  const int bands_local = static_cast<int>((w.bands + eff - 1) / eff);
  rt::BspSimulator sim(procs, m.comm);
  sim.set_trace_track(m.trace_track, m.trace_label);
  for (int step = 0; step < w.steps; ++step) {
    const double intensity =
        static_cast<double>(w.cells) * w.dirs * bands_local * c.sec_per_dof_intensity;
    sim.uniform_compute(intensity, rt::BspSimulator::Phase::Compute);
    // Band coupling: the temperature solve needs the total phonon energy per
    // cell, i.e. a single scalar reduction across bands ("only requires a
    // reduction of intensity across bands", SIII.C) — which is why the
    // band-parallel strategy communicates so little.
    sim.allreduce(w.cells * 8);
    sim.uniform_compute(temp_seconds(w, c, m.temp_serial_fraction, procs),
                        rt::BspSimulator::Phase::PostProcess);
    // Refreshed Io/beta for local bands are produced locally; no second hop.
  }
  return finish(sim, procs);
}

ScalingPoint model_cell_parallel(const Workload& w, const CalibratedCosts& c, const ModelConfig& m,
                                 int procs) {
  if (procs < 1) throw std::invalid_argument("model_cell_parallel: procs >= 1");
  // Real partition of the actual grid for exact halo volumes.
  mesh::Mesh grid = mesh::Mesh::structured_quad(w.cell_nx, w.cell_ny, 1.0, 1.0);
  auto part = mesh::partition(grid, procs, mesh::PartitionMethod::RCB);

  std::vector<int64_t> owned(static_cast<size_t>(procs), 0);
  for (int32_t cell = 0; cell < grid.num_cells(); ++cell) ++owned[static_cast<size_t>(part[static_cast<size_t>(cell)])];

  // Halo messages: every part sends its interface cells' full DOF vectors.
  std::vector<rt::Message> msgs;
  const int64_t dof_bytes = static_cast<int64_t>(w.dirs) * w.bands * 8;
  for (int32_t p = 0; p < procs; ++p) {
    mesh::HaloPlan plan = mesh::build_halo(grid, part, p);
    for (const auto& s : plan.sends)
      msgs.push_back({p, s.peer, static_cast<int64_t>(s.cells.size()) * dof_bytes});
  }

  rt::BspSimulator sim(procs, m.comm);
  sim.set_trace_track(m.trace_track, m.trace_label);
  std::vector<double> intensity(static_cast<size_t>(procs)), temp(static_cast<size_t>(procs));
  for (int32_t p = 0; p < procs; ++p) {
    intensity[static_cast<size_t>(p)] =
        static_cast<double>(owned[static_cast<size_t>(p)]) * w.dirs * w.bands * c.sec_per_dof_intensity;
    temp[static_cast<size_t>(p)] = static_cast<double>(owned[static_cast<size_t>(p)]) * c.sec_per_cell_temperature;
  }
  for (int step = 0; step < w.steps; ++step) {
    sim.exchange(msgs);  // neighbor values for the flux stencil
    sim.compute_step(intensity, rt::BspSimulator::Phase::Compute);
    // Temperature update is purely local in a cell partition.
    sim.compute_step(temp, rt::BspSimulator::Phase::PostProcess);
  }
  return finish(sim, procs);
}

ScalingPoint model_fortran(const Workload& w, const CalibratedCosts& c, const ModelConfig& m, int procs) {
  // Hand-written band-parallel code: ~2x faster per DOF, but one sub-phase is
  // "parallelized slightly differently" and stops scaling (Fig. 9).
  const int eff = std::min<int64_t>(procs, w.bands);
  const int bands_local = static_cast<int>((w.bands + eff - 1) / eff);
  const double per_dof = c.sec_per_dof_intensity / c.fortran_speedup;
  rt::BspSimulator sim(procs, m.comm);
  sim.set_trace_track(m.trace_track, m.trace_label);
  for (int step = 0; step < w.steps; ++step) {
    const double parallel_part =
        static_cast<double>(w.cells) * w.dirs * bands_local * per_dof;
    const double serial_part = static_cast<double>(w.cells) * w.dirs * w.bands * per_dof *
                               m.fortran_serial_fraction;
    sim.uniform_compute(parallel_part + serial_part, rt::BspSimulator::Phase::Compute);
    sim.allreduce(w.cells * 8);
    sim.uniform_compute(temp_seconds(w, c, m.temp_serial_fraction, procs) / c.fortran_speedup,
                        rt::BspSimulator::Phase::PostProcess);
  }
  return finish(sim, procs);
}

namespace {

rt::KernelStats kernel_stats(const Workload& w, const ModelConfig& m, int bands_local) {
  rt::KernelStats ks;
  ks.threads = w.cells * w.dirs * bands_local;
  ks.flops_per_thread = m.kernel_flops_per_dof;
  ks.fma_fraction = m.kernel_fma_fraction;
  ks.dram_bytes_per_thread = m.kernel_dram_bytes_per_dof;
  ks.divergence = m.kernel_divergence;
  return ks;
}

}  // namespace

ScalingPoint model_gpu(const Workload& w, const CalibratedCosts& c, const ModelConfig& m, int devices) {
  if (devices < 1) throw std::invalid_argument("model_gpu: devices >= 1");
  const int eff = std::min<int64_t>(devices, w.bands);
  const int bands_local = static_cast<int>((w.bands + eff - 1) / eff);
  rt::SimGpu gpu(m.gpu);
  const double kernel = gpu.model_kernel_seconds(kernel_stats(w, m, bands_local));

  // Per-step PCIe traffic per device (movement plan: I_local back, Io/beta up).
  const int64_t d2h = w.cells * w.dirs * bands_local * 8;
  const int64_t h2d = 2 * w.cells * w.bands * 8;
  const double pcie = 2 * m.gpu.pcie_latency_s +
                      static_cast<double>(d2h + h2d) / m.gpu.pcie_bandwidth_Bps;

  rt::BspSimulator sim(devices, m.comm);
  sim.set_trace_track(m.trace_track, m.trace_label);
  for (int step = 0; step < w.steps; ++step) {
    sim.uniform_compute(kernel, rt::BspSimulator::Phase::Compute);
    sim.uniform_compute(pcie, rt::BspSimulator::Phase::Communication);
    sim.allreduce(w.cells * 8);
    sim.uniform_compute(temp_seconds(w, c, m.temp_serial_fraction, devices),
                        rt::BspSimulator::Phase::PostProcess);
  }
  return finish(sim, devices);
}

GpuProfile model_gpu_profile(const Workload& w, const ModelConfig& m) {
  rt::SimGpu gpu(m.gpu);
  rt::KernelStats ks = kernel_stats(w, m, w.bands);
  GpuProfile prof;
  prof.kernel_seconds_per_step = gpu.model_kernel_seconds(ks);
  prof.sm_utilization = gpu.model_sm_utilization(ks);
  const double flops = ks.flops_per_thread * static_cast<double>(ks.threads);
  const double bytes = ks.dram_bytes_per_thread * static_cast<double>(ks.threads);
  prof.flop_fraction = flops / prof.kernel_seconds_per_step / m.gpu.peak_dp_flops;
  prof.mem_fraction = bytes / prof.kernel_seconds_per_step / m.gpu.mem_bandwidth_Bps;
  return prof;
}

}  // namespace finch::perf
