#include "step_solver_base.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "core/symbolic/simplify.hpp"
#include "runtime/metrics.hpp"
#include "runtime/trace.hpp"

namespace finch::codegen {

void GuardTally::add(const GuardReport& g, int64_t rank) {
  report.evals += g.evals;
  report.nonfinite_results += g.nonfinite_results;
  if (g.nonfinite_results == 0 || rank >= first_rank) return;
  first_rank = rank;
  report.first_instr = g.first_instr;
  report.first_op = g.first_op;
  report.first_cell = g.first_cell;
}

namespace {

bool same_bits(double a, double b) { return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b); }

// ce's reduction of `src` in `cell` for the outer DOF `rest`: sum_i w[i] *
// src[i + n*rest] over the stride-1 index i, summed in i order from 0.0. The
// post-pass, and the oracle of the native kernel's fused sum.
double reduced(const CompiledEquation& ce, const fvm::CellField& src, int32_t cell, int32_t rest) {
  const int32_t n = ce.extent[0];
  const double* w = ce.reduce_weight.coef;
  double sum = 0.0;
  for (int32_t i = 0; i < n; ++i) sum += w[i] * src.at(cell, i + n * rest);
  return sum;
}

// True when `target` holds ce's reduction of `src` bitwise.
bool sums_match(const CompiledEquation& ce, const fvm::CellField& src, const fvm::CellField& target) {
  for (int32_t cell = 0; cell < target.num_cells(); ++cell)
    for (int32_t rest = 0; rest < target.dof_per_cell(); ++rest)
      if (!same_bits(reduced(ce, src, cell, rest), target.at(cell, rest))) return false;
  return true;
}

}  // namespace

StepSolverBase::StepSolverBase(dsl::Problem& p, rt::ThreadPool* pool, bool native) : p_(p), pool_(pool) {
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
    ce.vol_place = place(ce.volume, ce.var_addr, false);
    if (ce.has_surface) ce.surf_place = place(ce.surface, ce.var_addr, true);
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
  if (native) load_kernels();
}

void StepSolverBase::step() {
  p_.run_pre_steps(time_);
  auto t0 = rt::Clock::now();
  unbilled_ = 0.0;
  {
    rt::SpanAttrs attrs;
    attrs.phase = "compute";
    rt::TraceSpan span("cpu.intensity", attrs);
    if (p_.scheme() == dsl::TimeScheme::ForwardEuler)
      euler_step();
    else
      rk2_step();
  }
  phases_.compute += rt::seconds_since(t0) - unbilled_;
  t0 = rt::Clock::now();
  {
    rt::SpanAttrs attrs;
    attrs.phase = "post_process";
    rt::TraceSpan span("cpu.post_process", attrs);
    p_.run_post_steps(time_);
  }
  phases_.post_process += rt::seconds_since(t0);
  time_ += p_.dt();
}

StepSolverBase::SweepClocks StepSolverBase::sweep_mesh(size_t e, fvm::CellField& out, double dt_stage) {
  const auto t0 = rt::Clock::now();
  report_guard(e, sweep(e, out, dt_stage, all_cells_));
  return {rt::seconds_since(t0), 0.0};
}

std::vector<char> StepSolverBase::sweep_stage(std::vector<fvm::CellField>& outs, double dt_stage) {
  ++stages_swept_;
  auto t0 = rt::Clock::now();
  for (size_t e = 0; e < eqs_.size(); ++e) fill_boundary(e);
  double host = rt::seconds_since(t0), device = 0.0, wall = host;
  std::vector<char> fused(eqs_.size());
  for (size_t e = 0; e < eqs_.size(); ++e) {
    t0 = rt::Clock::now();
    const SweepClocks clocks = sweep_mesh(e, outs[e], dt_stage);
    wall += rt::seconds_since(t0);
    host += clocks.host;
    device += clocks.device;
    fused[e] = finish_stage(e, outs[e], dt_stage);
  }
  unbilled_ += wall - std::max(host, device);
  return fused;
}

GuardTally StepSolverBase::sweep(size_t e, fvm::CellField& out, double dt_stage,
                                 std::span<const int32_t> cells) {
  if (!on_kernel(e)) return vm_sweep(e, out, dt_stage, cells);
  run_kernel(e, out, dt_stage, cells);
  return {};
}

bool StepSolverBase::finish_stage(size_t e, fvm::CellField& out, double dt_stage) {
  if (!on_kernel(e)) return false;
  EquationKernel& k = kernels_[e];
  if (k.verified) return true;
  k.verified = true;
  // Differential check: replay this exact stage on the VM oracle, from the
  // boundary values the kernel read, into the kernel's own `out`. Every value
  // must match bitwise, and so must the fused sum against the post-pass of
  // the replayed field. The replay leaves the oracle's answer in `out`, so a
  // mismatch demotes the equation to the VM and keeps it — never a wrong
  // result.
  rt::SpanAttrs attrs;
  attrs.phase = "compute";
  rt::TraceSpan span("jit.verify", attrs);
  const auto t0 = rt::Clock::now();
  int64_t differing = 0;
  vm_sweep(e, out, dt_stage, all_cells_, &differing);
  bool same = differing == 0;
  if (const fvm::CellField* target = eqs_[e].reduce_target; target != nullptr && same)
    same = sums_match(eqs_[e], out, *target);
  auto& reg = rt::MetricsRegistry::global();
  if (!same) {
    reg.counter("jit.verify.mismatch").add();
    reg.counter("jit.fallback").add();
    k.plan.fn = nullptr;
  }
  reg.counter("jit.verify.sweeps").add();
  reg.counter("jit.verify.seconds").add(rt::seconds_since(t0));
  return same;
}

void StepSolverBase::run_kernel(size_t e, fvm::CellField& out, double dt_stage,
                                std::span<const int32_t> cells) {
  EquationKernel& k = kernels_[e];
  const BcTable& bc = eqs_[e].bc;
  // Commits swap field storage, so each launch re-reads the base pointers.
  for (size_t i = 0; i < k.plan.arrays.size(); ++i)
    if (const fvm::CellField* f = k.plan.array_fields[i]) k.plan.arrays[i] = f->data().data();
  KernelArgsV1 args;
  args.ncells = p_.mesh().num_cells();
  args.dt = dt_stage;
  args.out = out.data().data();
  args.arrays = k.plan.arrays.data();
  args.scalars = k.plan.scalars.data();
  args.face_off = faces_.off.data();
  args.face_nbr = faces_.nbr.data();
  args.face_geom = faces_.geom.data();
  args.face_bslot = bc.face_bslot.data();
  args.bc_kind = bc.kind.data();
  args.bc_value = bc.value.data();
  if (fvm::CellField* target = eqs_[e].reduce_target) args.reduce_out = target->data().data();
  args.cell_fused = k.cell_fused.data();
  rt::SpanAttrs attrs;
  attrs.phase = "compute";
  rt::TraceSpan span("jit.exec", attrs);
  const auto t0 = rt::Clock::now();
  auto launch = [&](int64_t begin, int64_t end) {
    KernelArgsV1 a = args;
    a.cell_begin = begin;
    a.cell_end = end;
    k.plan.fn(&a);
  };
  // One call per maximal run of consecutive cell ids.
  for (size_t i = 0; i < cells.size();) {
    size_t j = i + 1;
    while (j < cells.size() && cells[j] == cells[j - 1] + 1) ++j;
    const int64_t begin = cells[i], end = int64_t{cells[j - 1]} + 1;
    if (pool_ != nullptr) {
      const int64_t grain = std::max<int64_t>((end - begin) / (8 * static_cast<int64_t>(pool_->size())), 16);
      pool_->parallel_for_chunks(begin, end, launch, grain);
    } else {
      launch(begin, end);
    }
    i = j;
  }
  int64_t general = 0;
  for (const int32_t c : cells) general += k.cell_fused[static_cast<size_t>(c)] != 0 ? 0 : 1;
  auto& reg = rt::MetricsRegistry::global();
  reg.counter("jit.exec.batches").add();
  reg.counter("jit.exec.seconds").add(rt::seconds_since(t0));
  reg.counter("jit.exec.evals").add(static_cast<double>(static_cast<int64_t>(cells.size()) * k.plan.ndof));
  reg.counter("jit.exec.general_cells").add(static_cast<double>(general));
}

void StepSolverBase::euler_step() {
  const std::vector<char> fused = sweep_stage(scratch_, p_.dt());
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
  const std::vector<char> fused = sweep_stage(scratch_, dt / 2);
  commit();  // fields now hold the midpoint state (BC callbacks see it too)
  // So do the declared sums: a kernel formed its sum of the midpoint in its
  // sweep, and the post-pass forms the rest, so stage 2's callbacks read the
  // same sums on every executor.
  for (size_t e = 0; e < eqs_.size(); ++e)
    if (!fused[e]) reduce(e);
  sweep_stage(stage_, dt);
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

void StepSolverBase::reduce(size_t e) {
  const CompiledEquation& ce = eqs_[e];
  fvm::CellField* target = ce.reduce_target;
  if (target == nullptr) return;
  for (int32_t cell = 0; cell < target->num_cells(); ++cell)
    for (int32_t rest = 0; rest < target->dof_per_cell(); ++rest)
      target->at(cell, rest) = reduced(ce, *ce.field, cell, rest);
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
  ce.vol_vm = PlacedProgram(ce.volume, ce.vol_place, ce.vol_lanes, ce.extent[0]);
  if (ce.has_surface) {
    ce.surf_lanes = LaneOffsets(ce.surface, lane_loops);
    ce.surf_vm = PlacedProgram(ce.surface, ce.surf_place, ce.surf_lanes, ce.extent[0]);
  }

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

NativeKernelInputs StepSolverBase::kernel_inputs(size_t e) const {
  const CompiledEquation& ce = eqs_[e];
  NativeKernelInputs in;
  in.name = "step_" + ce.field->name();
  in.volume = &ce.volume;
  in.surface = ce.has_surface ? &ce.surface : nullptr;
  in.volume_placement = &ce.vol_place;
  in.surface_placement = ce.has_surface ? &ce.surf_place : nullptr;
  in.env = &env_;
  in.out = ce.field;
  in.var_addr = &ce.var_addr;
  in.reduce_target = ce.reduce_target;
  in.reduce_weight = &ce.reduce_weight;
  in.max_faces = faces_.max_faces;
  return in;
}

void StepSolverBase::load_kernels() {
  auto& reg = rt::MetricsRegistry::global();
  kernels_.resize(eqs_.size());
  for (size_t e = 0; e < eqs_.size(); ++e) {
    EquationKernel& k = kernels_[e];
    try {
      k.plan = emit_native_plan(kernel_inputs(e));
      classify_cells(e);
      std::string err;
      if (!load_native_plan(k.plan, &err)) {
        k.plan.fn = nullptr;
        reg.counter("jit.fallback").add();
      }
    } catch (const std::exception&) {
      // Structure the emitter cannot lower: the VM handles it.
      k.plan.fn = nullptr;
      reg.counter("jit.fallback").add();
    }
  }
}

// Which body each cell runs, the one place the rule lives: the fused body
// when the kernel has one (NativePlan::fused_faces = K) and exactly K of the
// cell's faces contribute, each interior or a value BC. A boundary face
// without a BC contributes nothing; a flux BC needs the general body.
void StepSolverBase::classify_cells(size_t e) {
  const BcTable& bc = eqs_[e].bc;
  EquationKernel& k = kernels_[e];
  const int64_t nc = p_.mesh().num_cells();
  k.cell_fused.assign(static_cast<size_t>(nc), 0);
  for (int64_t c = 0; c < nc; ++c) {
    int32_t contributing = 0;
    bool flux = false;
    for (int64_t fs = faces_.off[static_cast<size_t>(c)]; fs < faces_.off[static_cast<size_t>(c) + 1]; ++fs) {
      const int32_t bs = bc.face_bslot[static_cast<size_t>(fs)];
      if (faces_.nbr[static_cast<size_t>(fs)] < 0 && bs < 0) continue;
      ++contributing;
      flux = flux || (bs >= 0 && bc.kind[static_cast<size_t>(bs)] == BcTable::kFlux);
    }
    const bool fused = k.plan.fused_faces > 0 && contributing == k.plan.fused_faces && !flux;
    k.cell_fused[static_cast<size_t>(c)] = fused ? 1 : 0;
  }
}

void StepSolverBase::fill_boundary(size_t e) {
  CompiledEquation& ce = eqs_[e];
  rt::SpanAttrs attrs;
  attrs.phase = "compute";
  rt::TraceSpan span("bc.fill", attrs);
  const auto t0 = rt::Clock::now();
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
  reg.counter("bc.fill.seconds").add(rt::seconds_since(t0));
}

GuardTally StepSolverBase::vm_sweep(size_t eq, fvm::CellField& out, double dt_stage,
                                    std::span<const int32_t> cells, int64_t* differing) {
  CompiledEquation& ce = eqs_[eq];
  const BcTable& bct = ce.bc;
  rt::TraceSpan span("cpu.sweep");
  const auto sweep_t0 = rt::Clock::now();
  const int32_t ndof = ce.field->dof_per_cell();
  // Unguarded, each node runs at its placed point; the per-sweep points run
  // once per stage of the equation.
  const bool placed = !guard_enabled_;
  const bool fresh = placed && (ce.vm_stage != stages_swept_ || ce.vm_dt != dt_stage);
  if (fresh) {
    ce.vol_vm.eval_sweep(ce.volume, ce.vol_lanes, dt_stage);
    if (ce.has_surface) ce.surf_vm.eval_sweep(ce.surface, ce.surf_lanes, dt_stage);
    ce.vm_stage = stages_swept_;
    ce.vm_dt = dt_stage;
  }
  GuardTally sweep_guard;
  int64_t faces_evaluated = 0, changed = 0;
  std::mutex merge_mutex;

  // A face slot whose term enters the cell's sum: interior, value BC or flux BC.
  struct Visit {
    double scale = 0.0;
    std::array<double, 3> normal{};
    int32_t neighbor = -1;
    const double* bc = nullptr;  // the slot's boundary values, or null on an interior face
    bool flux = false;
  };

  auto sweep_cells = [&](int64_t begin, int64_t end) {
    std::vector<Visit> visits(static_cast<size_t>(faces_.max_faces));
    std::optional<PlacedFrame> vol_frame, surf_frame;
    std::vector<double> vals;
    if (placed) {
      vol_frame.emplace(ce.volume, ce.vol_lanes, ce.vol_vm, faces_.max_faces);
      if (ce.has_surface) surf_frame.emplace(ce.surface, ce.surf_lanes, ce.surf_vm, faces_.max_faces);
    } else {
      vals.resize(std::max(ce.volume.nodes.size(), ce.surface.nodes.size()) * kLaneBlock);
    }
    std::array<double, kLaneBlock> vol_vals, acc, face_vals;
    std::array<GuardReport, kLaneBlock> lane_guard;
    GuardTally chunk_guard;
    int64_t chunk_faces = 0, chunk_changed = 0;
    // The block as the surface term sees face `v`.
    auto across = [&](const Visit& v, LaneBlock blk) {
      blk.normal = v.normal;
      blk.neighbor = v.neighbor;
      blk.ghost_field = v.bc != nullptr ? ce.field : nullptr;  // value BC: the filled values are the ghost
      blk.ghost_value = v.bc != nullptr ? v.bc + blk.first : nullptr;
      return blk;
    };
    for (int64_t i = begin; i < end; ++i) {
      const int32_t cell = cells[static_cast<size_t>(i)];
      // The face slots the surface term visits, in CSR order: none without
      // surface terms, and a wall with no condition has zero flux.
      int nf = 0;
      for (int64_t fs = faces_.off[static_cast<size_t>(cell)];
           ce.has_surface && fs < faces_.off[static_cast<size_t>(cell) + 1]; ++fs) {
        const auto ufs = static_cast<size_t>(fs);
        const int32_t bs = bct.face_bslot[ufs];
        if (faces_.nbr[ufs] < 0 && bs < 0) continue;
        const double* geom = faces_.geom.data() + 4 * ufs;
        Visit& v = visits[static_cast<size_t>(nf++)];
        v.scale = geom[3];
        v.normal = {geom[0], geom[1], geom[2]};
        v.neighbor = faces_.nbr[ufs];
        v.bc = bs >= 0 ? bct.value.data() + static_cast<size_t>(bs) * static_cast<size_t>(ndof) : nullptr;
        v.flux = bs >= 0 && bct.kind[static_cast<size_t>(bs)] == BcTable::kFlux;
        if (!v.flux) ++chunk_faces;  // the faces that run the surface program
      }
      LaneBlock blk;
      blk.cell = cell;
      blk.dt = dt_stage;
      if (placed) {
        vol_frame->eval_cell(cell, dt_stage);
        if (surf_frame) {
          surf_frame->eval_cell(cell, dt_stage);
          for (int k = 0; k < nf; ++k) {
            if (visits[static_cast<size_t>(k)].flux) continue;
            surf_frame->eval_face(k, across(visits[static_cast<size_t>(k)], blk));
          }
        }
      }
      for (int32_t first = 0; first < ndof; first += kLaneBlock) {
        const int n = std::min(kLaneBlock, ndof - first);
        blk.first = first;
        blk.count = n;
        const double* vol = vol_vals.data();
        if (placed) {
          vol = vol_frame->eval_cell_lanes(blk);
          if (surf_frame) surf_frame->eval_cell_lanes(blk);
        } else {
          std::fill_n(lane_guard.begin(), n, GuardReport{});
          eval_block_guarded(ce.volume, ce.vol_lanes, blk, vals.data(), vol_vals.data(), lane_guard.data());
        }
        // Per lane: the volume value, then each face slot in CSR order.
        std::fill_n(acc.begin(), n, 0.0);
        for (int k = 0; k < nf; ++k) {
          const Visit& v = visits[static_cast<size_t>(k)];
          if (v.flux) {
            // The callback returns the physical outward flux integrand f;
            // the discretization contributes -dt*(A/V)*f, matching the
            // generated surface terms, which already carry the -dt factor
            // (stage dt for RK).
            for (int l = 0; l < n; ++l) acc[static_cast<size_t>(l)] += v.scale * (-dt_stage) * v.bc[first + l];
            continue;
          }
          const double* val = face_vals.data();
          if (placed)
            val = surf_frame->eval_face_lanes(k, across(v, blk));
          else
            eval_block_guarded(ce.surface, ce.surf_lanes, across(v, blk), vals.data(), face_vals.data(),
                               lane_guard.data());
          for (int l = 0; l < n; ++l) acc[static_cast<size_t>(l)] += v.scale * val[l];
        }
        for (int l = 0; l < n; ++l) {
          const auto ul = static_cast<size_t>(l);
          // No "+ 0.0" without surface terms: it would turn -0.0 into +0.0.
          const double value = ce.has_surface ? vol[l] + acc[ul] : vol[l];
          double& slot = out.at(cell, first + l);
          if (differing != nullptr && !same_bits(slot, value)) ++chunk_changed;
          slot = value;
          if (!placed)
            chunk_guard.add(lane_guard[ul], cell * ce.cell_place + ce.lane_rank[static_cast<size_t>(first + l)]);
        }
      }
    }
    std::lock_guard<std::mutex> lock(merge_mutex);
    faces_evaluated += chunk_faces;
    changed += chunk_changed;
    sweep_guard.add(chunk_guard);
  };

  const auto ncells = static_cast<int64_t>(cells.size());
  if (pool_ != nullptr)
    pool_->parallel_for_chunks(0, ncells, sweep_cells,
                               std::max<int64_t>(ncells / (8 * static_cast<int64_t>(pool_->size())), 1));
  else
    sweep_cells(0, ncells);
  if (differing != nullptr) *differing += changed;

  // Batch-level VM telemetry (per-eval timers would dominate the evals):
  // vm.evals counts the program-lane evaluations, one volume eval per DOF
  // plus one surface eval per DOF of each interior and value-BC face (not
  // flux-BC or BC-less walls); the op counts are those of the nodes each
  // evaluation point ran, times how often it ran.
  VmWork work;
  work.evals = static_cast<double>((ncells + faces_evaluated) * ndof);
  if (placed) {
    ce.vol_vm.tally(work, fresh, ncells, 0);
    if (ce.has_surface) ce.surf_vm.tally(work, fresh, ncells, faces_evaluated);
  } else {
    work.add(ce.volume.analyze(), static_cast<double>(ncells * ndof));
    if (ce.has_surface) work.add(ce.surface.analyze(), static_cast<double>(faces_evaluated * ndof));
  }
  note_eval_batch(work, rt::seconds_since(sweep_t0));
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

namespace {

// Compiles the equations (VM programs) without loading a kernel, purely to
// reach the emitter.
class SourceProbe final : public StepSolverBase {
 public:
  explicit SourceProbe(dsl::Problem& p) : StepSolverBase(p, nullptr, false) {}
  std::vector<std::string> sources(Dialect dialect) const {
    std::vector<std::string> out;
    for (size_t e = 0; e < eqs_.size(); ++e) {
      NativeKernelInputs in = kernel_inputs(e);
      in.dialect = dialect;
      out.push_back(emit_native_plan(in).source);
    }
    return out;
  }
};

}  // namespace

std::vector<std::string> emitted_kernel_sources(dsl::Problem& problem, Dialect dialect) {
  return SourceProbe(problem).sources(dialect);
}

}  // namespace finch::codegen
