#include "step_solver_base.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "core/symbolic/simplify.hpp"
#include "runtime/metrics.hpp"
#include "runtime/trace.hpp"

namespace finch::codegen {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void GuardTally::add(const GuardReport& g, int64_t rank) {
  report.evals += g.evals;
  report.nonfinite_results += g.nonfinite_results;
  if (g.nonfinite_results == 0 || rank >= first_rank) return;
  first_rank = rank;
  report.first_instr = g.first_instr;
  report.first_op = g.first_op;
  report.first_cell = g.first_cell;
}

StepSolverBase::StepSolverBase(dsl::Problem& p, rt::ThreadPool* pool) : p_(p), pool_(pool) {
  if (p.scheme() != dsl::TimeScheme::ForwardEuler && p.scheme() != dsl::TimeScheme::RK2Midpoint)
    throw std::invalid_argument("CPU target lowers ForwardEuler and RK2Midpoint");
  build_env();
  build_faces();
  for (const auto& rec : p.equations()) {
    CompiledEquation ce;
    ce.program = &rec.program;
    ce.volume = compile(sym::simplify(sym::add(rec.classified.rhs_volume)), env_);
    ce.has_surface = !rec.classified.rhs_surface.empty();
    if (ce.has_surface) ce.surface = compile(sym::simplify(sym::add(rec.classified.rhs_surface)), env_);
    ce.field = &p.fields().get(rec.variable);
    const sym::EntityInfo& info = *p.entities().find(rec.variable);
    int32_t stride = 1;
    ce.var_addr.n_idx = 0;
    for (const auto& idx : info.indices) {
      const auto k = static_cast<size_t>(ce.var_addr.n_idx);
      ce.var_addr.loop_slot[k] = env_.loop_slot_of(idx);
      ce.var_addr.stride[k] = stride;
      ce.extent[k] = p.entities().find_index(idx)->extent();
      stride *= ce.extent[k];
      ++ce.var_addr.n_idx;
    }
    if (const auto& r = rec.program.reduction) {
      ce.reduce_target = &p.fields().get(r->target);
      const std::vector<double>& w = p.indexed_coefficients().at(r->weight);
      Binding& b = ce.reduce_weight;
      b.source = Binding::Source::CoefIndexed;
      b.coef = w.data();
      b.coef_len = static_cast<int32_t>(w.size());
      b.n_idx = 1;
      b.loop_slot[0] = ce.var_addr.loop_slot[0];
      b.stride[0] = 1;
      b.debug_name = r->weight;
    }
    build_bc_table(ce);
    build_lanes(ce);
    eqs_.push_back(std::move(ce));
  }
  all_cells_.resize(static_cast<size_t>(p.mesh().num_cells()));
  std::iota(all_cells_.begin(), all_cells_.end(), 0);
  // Scratch new-value storage mirroring each updated field, plus the RK2
  // stage-2 buffers.
  for (const auto& ce : eqs_) {
    const fvm::CellField& f = *ce.field;
    scratch_.emplace_back(f.name() + "_new", f.num_cells(), f.dof_per_cell(), f.layout());
    if (p.scheme() == dsl::TimeScheme::RK2Midpoint)
      stage_.emplace_back(f.name() + "_stage", f.num_cells(), f.dof_per_cell(), f.layout());
  }
}

void StepSolverBase::step() {
  p_.run_pre_steps(time_);
  auto t0 = Clock::now();
  {
    rt::SpanAttrs attrs;
    attrs.phase = "compute";
    rt::TraceSpan span("cpu.intensity", attrs);
    if (p_.scheme() == dsl::TimeScheme::ForwardEuler)
      euler_step();
    else
      rk2_step();
  }
  phases_.compute += seconds_since(t0);
  t0 = Clock::now();
  {
    rt::SpanAttrs attrs;
    attrs.phase = "post_process";
    rt::TraceSpan span("cpu.post_process", attrs);
    p_.run_post_steps(time_);
  }
  phases_.post_process += seconds_since(t0);
  time_ += p_.dt();
}

bool StepSolverBase::sweep_equation(size_t e, fvm::CellField& out, double dt_stage) {
  fill_boundary(e);
  report_guard(e, vm_sweep(e, out, dt_stage, all_cells_));
  return false;
}

void StepSolverBase::euler_step() {
  std::vector<char> fused(eqs_.size());
  for (size_t e = 0; e < eqs_.size(); ++e) fused[e] = sweep_equation(e, scratch_[e], p_.dt());
  commit();
  for (size_t e = 0; e < eqs_.size(); ++e)
    if (!fused[e]) reduce(e);
}

// RK2 midpoint via the Euler-form programs: the generated update computes
// E(u, h) = u + h*f(u), so
//   mid   = E(u_old, dt/2)
//   u_new = u_old + (E(mid, dt) - mid) = u_old + dt*f(mid).
// After the stage-1 commit the old state sits in scratch, so stage 2 sweeps
// into its own buffer and the update reads u_old from scratch.
void StepSolverBase::rk2_step() {
  const double dt = p_.dt();
  for (size_t e = 0; e < eqs_.size(); ++e) sweep_equation(e, scratch_[e], dt / 2);
  commit();  // fields now hold the midpoint state (BC callbacks see it too)
  for (size_t e = 0; e < eqs_.size(); ++e) sweep_equation(e, stage_[e], dt);
  for (size_t e = 0; e < eqs_.size(); ++e) {
    std::span<double> field = eqs_[e].field->data();       // midpoint state
    std::span<const double> y = stage_[e].data();          // E(mid, dt)
    std::span<const double> old = scratch_[e].data();      // u_old
    for (size_t i = 0; i < field.size(); ++i) field[i] = old[i] + (y[i] - field[i]);
  }
  // A stage's fused sum is not of the committed value: always the post-pass.
  for (size_t e = 0; e < eqs_.size(); ++e) reduce(e);
}

void StepSolverBase::commit() {
  for (size_t e = 0; e < eqs_.size(); ++e) eqs_[e].field->swap_storage(scratch_[e]);
}

void reduce_into(const CompiledEquation& ce, const fvm::CellField& src, fvm::CellField& dst) {
  const int32_t n = ce.extent[0];
  const double* w = ce.reduce_weight.coef;
  for (int32_t cell = 0; cell < src.num_cells(); ++cell) {
    for (int32_t rest = 0; rest < dst.dof_per_cell(); ++rest) {
      double sum = 0.0;
      for (int32_t i = 0; i < n; ++i) sum += w[i] * src.at(cell, i + n * rest);
      dst.at(cell, rest) = sum;
    }
  }
}

void StepSolverBase::reduce(size_t e) {
  const CompiledEquation& ce = eqs_[e];
  if (ce.reduce_target != nullptr) reduce_into(ce, *ce.field, *ce.reduce_target);
}

void StepSolverBase::build_env() {
  env_.table = &p_.entities();
  for (const auto& [name, info] : p_.entities().indices()) {
    env_.index_order.push_back(name);
    env_.index_extent.push_back(info.extent());
  }
  env_.fields = &p_.fields();
  env_.coefficients = &p_.indexed_coefficients();
  env_.scalar_coefficients = &p_.scalar_coefficients();
}

void StepSolverBase::build_faces() {
  const mesh::Mesh& mesh = p_.mesh();
  faces_.off.assign(1, 0);
  for (int32_t cell = 0; cell < mesh.num_cells(); ++cell) {
    // Inverse volume first, then area * inv_vol: the scale every executor uses.
    const double inv_vol = 1.0 / mesh.cell_volume(cell);
    for (int32_t f : mesh.cell_faces(cell)) {
      const mesh::Face& face = mesh.face(f);
      const mesh::Vec3 n = mesh.outward_normal(f, cell);
      faces_.nbr.push_back(face.is_boundary() ? -1 : mesh.across(f, cell));
      faces_.geom.insert(faces_.geom.end(), {n.x, n.y, n.z, face.area * inv_vol});
    }
    const auto nf = static_cast<int64_t>(mesh.cell_faces(cell).size());
    faces_.off.push_back(faces_.off.back() + nf);
    faces_.max_faces = std::max(faces_.max_faces, static_cast<int32_t>(nf));
  }
}

void StepSolverBase::build_bc_table(CompiledEquation& ce) const {
  const mesh::Mesh& mesh = p_.mesh();
  BcTable& t = ce.bc;
  t.face_bslot.assign(faces_.nbr.size(), -1);
  if (!ce.has_surface) return;  // nothing reads a boundary face
  size_t fs = 0;
  for (int32_t cell = 0; cell < mesh.num_cells(); ++cell) {
    for (int32_t f : mesh.cell_faces(cell)) {
      const size_t slot = fs++;
      if (faces_.nbr[slot] >= 0) continue;
      const fvm::BoundaryCondition* bc = p_.boundaries().find(ce.field->name(), mesh.face(f).boundary_region);
      if (bc == nullptr) continue;  // a wall with no condition: zero flux
      t.face_bslot[slot] = static_cast<int32_t>(t.slots.size());
      t.slots.push_back({cell, f, mesh.outward_normal(f, cell), bc});
      t.kind.push_back(bc->type == fvm::BcType::Flux ? BcTable::kFlux : BcTable::kValue);
    }
  }
  t.value.assign(t.slots.size() * static_cast<size_t>(ce.field->dof_per_cell()), 0.0);
}

void StepSolverBase::build_lanes(CompiledEquation& ce) const {
  const int32_t ndof = ce.field->dof_per_cell();
  // Lane d of a cell is DOF d of the updated variable: its loop values are
  // the variable's indices, the first one fastest (var_addr's stride-1
  // index). The assembly loops are exactly the cell loop plus these indices,
  // so lanes cover the loop nest; slots the variable does not carry stay 0.
  std::vector<std::array<int32_t, 4>> lane_loops(static_cast<size_t>(ndof), {0, 0, 0, 0});
  for (int32_t d = 0; d < ndof; ++d) {
    int32_t rem = d;
    for (int k = ce.var_addr.n_idx; k-- > 0;) {
      const auto kk = static_cast<size_t>(k);
      lane_loops[static_cast<size_t>(d)][static_cast<size_t>(ce.var_addr.loop_slot[kk])] =
          rem / ce.var_addr.stride[kk];
      rem %= ce.var_addr.stride[kk];
    }
  }
  ce.vol_lanes = LaneOffsets(ce.volume, lane_loops);
  if (ce.has_surface) ce.surf_lanes = LaneOffsets(ce.surface, lane_loops);

  // Guard ranks: the position of (cell, lane) in a serial walk of the
  // declared assembly loops (outermost loop = most significant digit), so
  // the first offender reported does not depend on how the pool splits cells
  // or which cells a sweep walks.
  ce.lane_rank.assign(static_cast<size_t>(ndof), 0);
  int64_t place = 1;
  const auto& loops = ce.program->loops;
  for (size_t k = loops.size(); k-- > 0;) {
    if (loops[k].kind == ir::LoopSpec::Kind::Cells) {
      ce.cell_place = place;
      place *= p_.mesh().num_cells();
      continue;
    }
    const auto slot = static_cast<size_t>(env_.loop_slot_of(loops[k].index_name));
    for (int32_t d = 0; d < ndof; ++d)
      ce.lane_rank[static_cast<size_t>(d)] += lane_loops[static_cast<size_t>(d)][slot] * place;
    place *= loops[k].extent;
  }
}

void StepSolverBase::fill_boundary(size_t e) {
  CompiledEquation& ce = eqs_[e];
  rt::SpanAttrs attrs;
  attrs.phase = "compute";
  rt::TraceSpan span("bc.fill", attrs);
  const auto t0 = Clock::now();
  const auto ndof = static_cast<size_t>(ce.field->dof_per_cell());
  fvm::BoundaryContext bctx;
  bctx.mesh = &p_.mesh();
  bctx.fields = &p_.fields();
  bctx.field = ce.field;
  bctx.extent = ce.extent;
  bctx.time = time_;
  for (size_t s = 0; s < ce.bc.slots.size(); ++s) {
    const BcTable::Slot& slot = ce.bc.slots[s];
    bctx.cell = slot.cell;
    bctx.face = slot.face;
    bctx.normal = slot.normal;
    slot.bc->fn(bctx, std::span<double>(ce.bc.value).subspan(s * ndof, ndof));
  }
  auto& reg = rt::MetricsRegistry::global();
  reg.counter("bc.calls").add(static_cast<double>(ce.bc.slots.size()));
  reg.counter("bc.fill.seconds").add(seconds_since(t0));
}

GuardTally StepSolverBase::vm_sweep(size_t eq, fvm::CellField& out, double dt_stage,
                                    std::span<const int32_t> cells) {
  const CompiledEquation& ce = eqs_[eq];
  const BcTable& bct = ce.bc;
  rt::TraceSpan span("cpu.sweep");
  const auto sweep_t0 = Clock::now();
  const int32_t ndof = ce.field->dof_per_cell();
  const size_t nvals = std::max(ce.volume.nodes.size(), ce.has_surface ? ce.surface.nodes.size() : 0);
  GuardTally sweep_guard;
  int64_t surface_evals = 0;
  std::mutex merge_mutex;

  auto sweep_cells = [&](int64_t begin, int64_t end) {
    std::vector<double> vals(nvals * kLaneBlock);
    std::array<double, kLaneBlock> vol, acc, val;
    std::array<GuardReport, kLaneBlock> lane_guard;
    GuardTally chunk_guard;
    int64_t chunk_surface_evals = 0;
    auto run = [&](const Program& prog, const LaneOffsets& lanes, const LaneBlock& blk, double* res) {
      if (guard_enabled_)
        eval_block_guarded(prog, lanes, blk, vals.data(), res, lane_guard.data());
      else
        eval_block(prog, lanes, blk, vals.data(), res);
    };
    for (int64_t i = begin; i < end; ++i) {
      const int32_t cell = cells[static_cast<size_t>(i)];
      // Face slots the surface term visits: none without surface terms.
      const int64_t fs_begin = faces_.off[static_cast<size_t>(cell)];
      const int64_t fs_end = ce.has_surface ? faces_.off[static_cast<size_t>(cell) + 1] : fs_begin;
      for (int32_t first = 0; first < ndof; first += kLaneBlock) {
        const int n = std::min(kLaneBlock, ndof - first);
        if (guard_enabled_) std::fill_n(lane_guard.begin(), n, GuardReport{});
        LaneBlock blk;
        blk.cell = cell;
        blk.dt = dt_stage;
        blk.first = first;
        blk.count = n;
        run(ce.volume, ce.vol_lanes, blk, vol.data());
        // Per lane: the volume value, then each face slot in CSR order.
        std::fill_n(acc.begin(), n, 0.0);
        for (int64_t fs = fs_begin; fs < fs_end; ++fs) {
          const auto ufs = static_cast<size_t>(fs);
          const int32_t bs = bct.face_bslot[ufs];
          if (faces_.nbr[ufs] < 0 && bs < 0) continue;  // a wall with no condition: zero flux
          const double* geom = faces_.geom.data() + 4 * ufs;
          const double scale = geom[3];
          blk.normal = {geom[0], geom[1], geom[2]};
          blk.neighbor = faces_.nbr[ufs];
          blk.ghost_field = nullptr;
          if (bs >= 0) {
            const double* bc_value = bct.value.data() + static_cast<size_t>(bs) * static_cast<size_t>(ndof) + first;
            if (bct.kind[static_cast<size_t>(bs)] == BcTable::kFlux) {
              // The callback returns the physical outward flux integrand f;
              // the discretization contributes -dt*(A/V)*f, matching the
              // generated surface terms, which already carry the -dt factor
              // (stage dt for RK).
              for (int l = 0; l < n; ++l) acc[static_cast<size_t>(l)] += scale * (-dt_stage) * bc_value[l];
              continue;
            }
            blk.ghost_field = ce.field;  // value BC: the filled values are the ghost
            blk.ghost_value = bc_value;
          }
          run(ce.surface, ce.surf_lanes, blk, val.data());
          chunk_surface_evals += n;
          for (int l = 0; l < n; ++l) acc[static_cast<size_t>(l)] += scale * val[static_cast<size_t>(l)];
        }
        for (int l = 0; l < n; ++l) {
          const auto ul = static_cast<size_t>(l);
          // No "+ 0.0" without surface terms: it would turn -0.0 into +0.0.
          out.at(cell, first + l) = ce.has_surface ? vol[ul] + acc[ul] : vol[ul];
          if (guard_enabled_)
            chunk_guard.add(lane_guard[ul], cell * ce.cell_place + ce.lane_rank[static_cast<size_t>(first + l)]);
        }
      }
    }
    std::lock_guard<std::mutex> lock(merge_mutex);
    surface_evals += chunk_surface_evals;
    sweep_guard.add(chunk_guard);
  };

  const auto ncells = static_cast<int64_t>(cells.size());
  if (pool_ != nullptr)
    pool_->parallel_for_chunks(0, ncells, sweep_cells,
                               std::max<int64_t>(ncells / (8 * static_cast<int64_t>(pool_->size())), 1));
  else
    sweep_cells(0, ncells);

  // Batch-level VM telemetry (per-eval timers would dominate the ~40-90 ns
  // evals), counting exactly the surface evaluations the sweep ran: interior
  // and value-BC faces, not flux-BC or BC-less walls.
  note_eval_batch(ce.volume, ce.has_surface ? &ce.surface : nullptr, ncells * ndof, surface_evals,
                  seconds_since(sweep_t0));
  return sweep_guard;
}

void StepSolverBase::report_guard(size_t e, const GuardTally& tally) {
  if (!guard_enabled_) return;
  const GuardReport& g = tally.report;
  guard_report_.evals += g.evals;
  guard_report_.nonfinite_results += g.nonfinite_results;
  if (guard_report_.first_cell < 0 && g.first_cell >= 0) {
    guard_report_.first_cell = g.first_cell;
    guard_report_.detail = eqs_[e].field->name() + " kernel, instr " + std::to_string(g.first_instr) +
                           " (op " + std::to_string(static_cast<int>(g.first_op)) + ")";
  }
}

}  // namespace finch::codegen
