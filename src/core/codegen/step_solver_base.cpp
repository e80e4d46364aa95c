#include "step_solver_base.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <numeric>
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

bool bits_equal(const fvm::CellField& a, const fvm::CellField& b) {
  return std::memcmp(a.data().data(), b.data().data(), a.data().size() * sizeof(double)) == 0;
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
  // boundary values the kernel read, and require bit identity of the field
  // and of the fused sum against the post-pass. A mismatch demotes the
  // equation to the VM and keeps the oracle's answer — never a wrong result.
  rt::SpanAttrs attrs;
  attrs.phase = "compute";
  rt::TraceSpan span("jit.verify", attrs);
  const auto t0 = rt::Clock::now();
  fvm::CellField ref("jit_verify", out.num_cells(), out.dof_per_cell(), out.layout());
  vm_sweep(e, ref, dt_stage, all_cells_);
  bool same = bits_equal(out, ref);
  if (const fvm::CellField* target = eqs_[e].reduce_target; target != nullptr && same) {
    fvm::CellField ref_sum("jit_verify_sum", target->num_cells(), target->dof_per_cell(), target->layout());
    reduce_into(eqs_[e], ref, ref_sum);
    same = bits_equal(*target, ref_sum);
  }
  auto& reg = rt::MetricsRegistry::global();
  if (!same) {
    reg.counter("jit.verify.mismatch").add();
    reg.counter("jit.fallback").add();
    k.plan.fn = nullptr;
    std::copy(ref.data().begin(), ref.data().end(), out.data().begin());
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

NativeKernelInputs StepSolverBase::kernel_inputs(size_t e) const {
  const CompiledEquation& ce = eqs_[e];
  NativeKernelInputs in;
  in.name = "step_" + ce.field->name();
  in.volume = &ce.volume;
  in.surface = ce.has_surface ? &ce.surface : nullptr;
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
                                    std::span<const int32_t> cells) {
  const CompiledEquation& ce = eqs_[eq];
  const BcTable& bct = ce.bc;
  rt::TraceSpan span("cpu.sweep");
  const auto sweep_t0 = rt::Clock::now();
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
                  rt::seconds_since(sweep_t0));
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
