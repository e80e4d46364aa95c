#include "native_backend.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include <unistd.h>

#include "runtime/checkpoint.hpp"
#include "runtime/metrics.hpp"
#include "runtime/trace.hpp"

#if __has_include(<dlfcn.h>)
#include <dlfcn.h>
#define FINCH_HAS_DLOPEN 1
#else
#define FINCH_HAS_DLOPEN 0
#endif

namespace fs = std::filesystem;

namespace finch::codegen {

namespace {

std::string getenv_str(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : std::string();
}

bool compiler_usable(const std::string& c) {
  if (c.empty()) return false;
  // Probe results are cached: each candidate costs one shell invocation.
  static std::mutex mu;
  static std::map<std::string, bool> cache;
  std::lock_guard<std::mutex> lk(mu);
  auto it = cache.find(c);
  if (it != cache.end()) return it->second;
  const std::string cmd = "command -v '" + c + "' >/dev/null 2>&1";
  const bool ok = std::system(cmd.c_str()) == 0;
  cache.emplace(c, ok);
  return ok;
}

std::string default_cache_dir() {
  std::string dir = getenv_str("FINCH_JIT_CACHE_DIR");
  if (!dir.empty()) return dir;
  const std::string home = getenv_str("HOME");
  if (!home.empty()) return home + "/.cache/finch-jit";
  return "/tmp/finch-jit";
}

JitConfig config_from_env() {
  JitConfig cfg;
  cfg.compiler = getenv_str("FINCH_JIT_CXX");
  if (cfg.compiler.empty()) {
    for (const char* cand : {"c++", "g++", "clang++"}) {
      if (compiler_usable(cand)) {
        cfg.compiler = cand;
        break;
      }
    }
  }
  cfg.extra_cflags = getenv_str("FINCH_JIT_CFLAGS");
  cfg.cache_dir = default_cache_dir();
  cfg.disable = getenv_str("FINCH_JIT_DISABLE") == "1";
  return cfg;
}

// ---- emission ---------------------------------------------------------------

// FNV-1a-64 over one trivially copyable value, chained by `h`.
template <class T>
uint64_t hash_value(const T& v, uint64_t h) {
  return rt::fnv1a64(std::as_bytes(std::span<const T, 1>(&v, 1)), h);
}

// Structural fingerprint of a program: ops, operand edges, binding
// signatures and Const bits. Runtime array contents and scalar-coefficient
// values are excluded (they arrive through the kernel argument block), so
// the same structure fingerprints identically across runs and processes.
uint64_t fingerprint(const Program& p) {
  uint64_t h = rt::kFnv1aOffset;
  for (const Node& n : p.nodes) {
    const std::array<int32_t, 5> head{{static_cast<int32_t>(n.op), n.a, n.b, n.c, n.slot}};
    h = hash_value(head, h);
    if (n.op == Op::Const) {
      uint64_t bits = 0;
      std::memcpy(&bits, &n.imm, sizeof bits);
      h = hash_value(bits, h);
    }
  }
  for (const Binding& b : p.bindings) h = rt::fnv1a64(b.signature(), h);
  return hash_value(p.ret, h);
}

// Evaluation flavor of one code region. The VM resolves neighbor-side loads
// differently per region (cpu solver sweep semantics); the emitter mirrors
// each case exactly.
enum class Flavor {
  Volume,    // no face: NORMAL = 0, neighbor loads read the self cell
  Interior,  // a face of the face table: neighbor loads read the row the
             // table holds for that field (the cell across an interior face;
             // on a value-BC face the BC row for the updated field, the self
             // row for every other field)
  Ghost,     // value-BC face: neighbor loads of the updated field read the
             // BC row at the lane's DOF, other neighbor loads fall back to self
};

// What a node's value varies with, unioned over its operands.
constexpr unsigned kDepCell = 1;   // a field value (of the cell or across a face)
constexpr unsigned kDepFace = 2;   // the face: its normal or the cell across it
constexpr unsigned kDepInner = 4;  // the variable's stride-1 index
constexpr unsigned kDepOuter = 8;  // another index of the variable

// Placement scope of an SSA node: each node is emitted once, at the
// outermost scope its dependencies allow. Face and Dir values of the surface
// program are computed while the face table is built; Dir applies to a
// variable with more than one index (the only case with a loop outside the
// stride-1 one to hoist out of).
enum class Scope {
  Fn,    // function top: constants, dt, scalar coefficients
  Cell,  // per cell
  Face,  // per face, into the face table: the face alone
  Dir,   // per (face, stride-1 index), into the face table: no field, no outer index
  Dof,   // inside the dof loops
};

struct Placement {
  std::vector<Scope> scope;
  std::vector<unsigned> deps;
};

struct ArrayInfo {
  std::string cname;       // F0, F1, ...
  const double* ptr;       // runtime base pointer
  bool is_field = false;   // indexed with a cell coordinate
  const fvm::CellField* field = nullptr;  // the field behind ptr (is_field only)
  fvm::Layout layout = fvm::Layout::CellMajor;
  int32_t dpc = 1;         // field dof_per_cell
  std::string entity;      // manifest comment
};

class Emitter {
 public:
  explicit Emitter(const NativeKernelInputs& in)
      : in_(in), vol_(*in.volume), surf_(in.surface != nullptr ? *in.surface : kNoSurface),
        has_surface_(in.surface != nullptr), k_(in.max_faces) {
    ndof_ = in.out->dof_per_cell();
    // The general body stages vol[NDOF] and flux[NDOF] on the stack.
    if (ndof_ > 16384)
      throw std::runtime_error("native backend: dof_per_cell too large for stack staging");
    if (has_surface_ && k_ < 1) throw std::runtime_error("native backend: no face count for the face table");
    build_loops();
    resolve_arrays();
    vol_place_ = place(vol_, false);
    surf_place_ = place(surf_, true);
    mark_exports();
    fused_ = has_fused_body();
  }

  NativePlan plan() {
    NativePlan p;
    p.name = in_.name;
    p.ir_fingerprint = fingerprint(vol_);
    if (has_surface_) p.ir_fingerprint = fingerprint(surf_) ^ (p.ir_fingerprint * 1099511628211ull);
    p.ndof = ndof_;
    p.fused_faces = fused_ ? k_ : 0;
    for (const auto& a : arrays_) {
      p.arrays.push_back(a.ptr);
      p.array_fields.push_back(a.field);
    }
    p.scalars = scalars_;
    p.source = render(p.ir_fingerprint);
    return p;
  }

 private:
  struct LoopVar {
    int slot = 0;
    int extent = 0;
  };
  struct PinnedVar {
    int slot = 0;
    int value = 0;
    std::string why;
  };

  void note_slot(std::map<int, bool>& used, const Binding& b) {
    for (int k = 0; k < b.n_idx; ++k) used[b.loop_slot[static_cast<size_t>(k)]] = true;
  }

  void build_loops() {
    std::map<int, bool> used;
    for (const auto& b : vol_.bindings) note_slot(used, b);
    for (const auto& b : surf_.bindings) note_slot(used, b);
    // The updated variable's indices become real loops, emitted with the
    // stride-1 index innermost so writes to `out` are contiguous. The
    // assembly loops name the cell loop and each of these indices exactly
    // once (build_step_program), so their declared order changes no value.
    const Binding& va = *in_.var_addr;
    for (int k = va.n_idx; k-- > 0;) {  // descending stride == outer to inner
      const int slot = va.loop_slot[static_cast<size_t>(k)];
      loops_.push_back({slot, in_.env->index_extent[static_cast<size_t>(slot)]});
      used.erase(slot);
    }
    // Any slot a binding references outside the loop nest keeps the VM's
    // default loop value of zero.
    for (const auto& [slot, _] : used) pinned_.push_back({slot, 0, "index outside the assembly loops"});
  }

  int array_of(const Binding& b) {
    const bool is_field =
        b.source == Binding::Source::FieldSelf || b.source == Binding::Source::FieldNeighbor;
    const std::string key = (is_field ? "field:" : "coef:") + b.debug_name;
    auto it = array_ids_.find(key);
    if (it != array_ids_.end()) return it->second;
    ArrayInfo a;
    a.cname = "F" + std::to_string(arrays_.size());
    a.is_field = is_field;
    a.entity = b.debug_name;
    if (is_field) {
      a.field = b.field;
      a.ptr = b.field->data().data();
      a.layout = b.field->layout();
      a.dpc = b.field->dof_per_cell();
    } else {
      a.ptr = b.coef;
    }
    const int id = static_cast<int>(arrays_.size());
    arrays_.push_back(a);
    array_ids_.emplace(key, id);
    return id;
  }

  int scalar_of(const Binding& b) {
    auto it = scalar_ids_.find(b.debug_name);
    if (it != scalar_ids_.end()) return it->second;
    const int id = static_cast<int>(scalars_.size());
    scalars_.push_back(b.scalar);
    scalar_names_.push_back(b.debug_name);
    scalar_ids_.emplace(b.debug_name, id);
    return id;
  }

  void resolve_arrays() {
    for (const auto& b : vol_.bindings) resolve_binding(b);
    for (const auto& b : surf_.bindings) {
      resolve_binding(b);
      // A field read across a face gets a row column in the face table.
      if (b.source != Binding::Source::FieldNeighbor) continue;
      const int id = array_ids_.at("field:" + b.debug_name);
      if (std::find(row_arrays_.begin(), row_arrays_.end(), id) == row_arrays_.end())
        row_arrays_.push_back(id);
    }
    if (in_.reduce_target != nullptr) resolve_binding(*in_.reduce_weight);
  }
  void resolve_binding(const Binding& b) {
    if (b.source == Binding::Source::Scalar)
      scalar_of(b);
    else
      array_of(b);
  }

  // The fused body reads every face through the table's rows, value-BC faces
  // included, so it needs cell-major fields (a row is contiguous, like the
  // BC row) and the updated field read across a face at its own DOF (the
  // ghost value of lane d is BC row entry d). Dof-major fields would not
  // vectorize in either body; they run the general body only.
  bool has_fused_body() const {
    if (!has_surface_ || in_.out->layout() != fvm::Layout::CellMajor) return false;
    for (const ArrayInfo& a : arrays_)
      if (a.is_field && a.layout != fvm::Layout::CellMajor) return false;
    for (const Binding& b : surf_.bindings)
      if (b.source == Binding::Source::FieldNeighbor && b.field == in_.out &&
          dof_expr(b) != dof_expr(*in_.var_addr))
        return false;
    return true;
  }

  // dof = sum_k i<slot_k> * stride_k for a binding's index tuple.
  static std::string dof_expr(const Binding& b) {
    if (b.n_idx == 0) return "0";
    std::string s;
    for (int k = 0; k < b.n_idx; ++k) {
      if (k > 0) s += " + ";
      s += "i" + std::to_string(b.loop_slot[static_cast<size_t>(k)]);
      if (b.stride[static_cast<size_t>(k)] != 1)
        s += "*" + std::to_string(b.stride[static_cast<size_t>(k)]);
    }
    return s;
  }

  std::string elem(const ArrayInfo& a, const std::string& cell, const std::string& dof) const {
    if (!a.is_field) return a.cname + "[" + dof + "]";
    if (a.layout == fvm::Layout::CellMajor) {
      if (a.dpc == 1) return a.cname + "[" + cell + "]";
      return a.cname + "[" + cell + "*" + std::to_string(a.dpc) + " + (" + dof + ")]";
    }
    return a.cname + "[(" + dof + ")*nc + " + cell + "]";
  }

  // A field's row of `cell`, and a DOF's element of the row at face-table
  // index `k` (cell-major rows are contiguous, dof-major ones stride nc).
  static std::string row_ptr(const ArrayInfo& a, const std::string& cell) {
    if (a.layout == fvm::Layout::CellMajor && a.dpc > 1)
      return a.cname + " + " + cell + "*" + std::to_string(a.dpc);
    return a.cname + " + " + cell;
  }
  static std::string row_elem(const ArrayInfo& a, const std::string& k, const std::string& dof) {
    const std::string row = "T" + a.cname + "[" + k + "]";
    if (a.layout == fvm::Layout::CellMajor) return row + "[" + (a.dpc == 1 ? "0" : dof) + "]";
    return row + "[(" + dof + ")*nc]";
  }

  // `face` is the face-table index of a face region.
  std::string load_expr(const Binding& b, Flavor f, const std::string& face) const {
    switch (b.source) {
      case Binding::Source::Scalar:
        return "SC[" + std::to_string(scalar_ids_.at(b.debug_name)) + "]";
      case Binding::Source::CoefIndexed:
        return arrays_[static_cast<size_t>(array_ids_.at("coef:" + b.debug_name))].cname + "[" +
               dof_expr(b) + "]";
      case Binding::Source::FieldSelf:
      case Binding::Source::FieldNeighbor: {
        const ArrayInfo& a = arrays_[static_cast<size_t>(array_ids_.at("field:" + b.debug_name))];
        if (b.source == Binding::Source::FieldSelf || f == Flavor::Volume)
          return elem(a, "cell", dof_expr(b));
        if (f == Flavor::Interior) return row_elem(a, face, dof_expr(b));
        // Ghost: the updated variable reads the boundary callback's ghost
        // value; every other field falls back to the self cell (zero
        // gradient) — the VM's EvalContext semantics verbatim.
        if (b.field == in_.out) return "TB[" + face + "][dof]";
        return elem(a, "cell", dof_expr(b));
      }
    }
    return "0.0";
  }

  static std::string literal(double v) {
    char hex[48], dec[48];
    std::snprintf(hex, sizeof hex, "%a", v);
    std::snprintf(dec, sizeof dec, "%.17g", v);
    return std::string(hex) + " /* " + dec + " */";
  }

  std::string node_expr(const Program& ir, const Node& n, const std::vector<std::string>& name,
                        Flavor f, const std::string& face) const {
    auto A = [&] { return name[static_cast<size_t>(n.a)]; };
    auto B = [&] { return name[static_cast<size_t>(n.b)]; };
    auto C = [&] { return name[static_cast<size_t>(n.c)]; };
    auto bin = [&](const char* op) { return A() + " " + op + " " + B(); };
    auto cmp = [&](const char* op) {
      return "(" + A() + " " + op + " " + B() + ") ? 1.0 : 0.0";
    };
    switch (n.op) {
      case Op::Const:
        return literal(n.imm);
      case Op::Load:
        return load_expr(ir.bindings[static_cast<size_t>(n.slot)], f, face);
      case Op::LoadNormal:
        if (f == Flavor::Volume) return "0.0";  // the VM's zeroed volume normal
        return n.slot == 0 ? "nx" : n.slot == 1 ? "ny" : "nz";
      case Op::LoadDt:
        return "dt";
      case Op::Add:
        return bin("+");
      case Op::Sub:
        return bin("-");
      case Op::Mul:
        return bin("*");
      case Op::Div:
        return bin("/");
      case Op::Neg:
        return "-" + A();
      case Op::Pow:
        return "pow(" + A() + ", " + B() + ")";
      case Op::CmpGT:
        return cmp(">");
      case Op::CmpGE:
        return cmp(">=");
      case Op::CmpLT:
        return cmp("<");
      case Op::CmpLE:
        return cmp("<=");
      case Op::CmpEQ:
        return cmp("==");
      case Op::CmpNE:
        return cmp("!=");
      case Op::Select:
        return "(" + A() + " != 0.0) ? " + B() + " : " + C();
      case Op::MathExp:
        return "exp(" + A() + ")";
      case Op::MathSqrt:
        return "sqrt(" + A() + ")";
      case Op::MathAbs:
        return "fabs(" + A() + ")";
      case Op::MathSin:
        return "sin(" + A() + ")";
      case Op::MathCos:
        return "cos(" + A() + ")";
      case Op::MathLog:
        return "log(" + A() + ")";
    }
    throw std::runtime_error("native backend: unexpected opcode in SSA graph");
  }

  // Placement scope per node (see Scope); operands' dependencies dominate.
  Placement place(const Program& ir, bool surface) const {
    const bool nested = surface && loops_.size() > 1;
    const int inner = loops_.empty() ? -1 : loops_.back().slot;
    Placement p{std::vector<Scope>(ir.nodes.size(), Scope::Fn), std::vector<unsigned>(ir.nodes.size(), 0)};
    for (size_t i = 0; i < ir.nodes.size(); ++i) {
      const Node& n = ir.nodes[i];
      unsigned d = 0;
      if (n.op == Op::Load) {
        const Binding& b = ir.bindings[static_cast<size_t>(n.slot)];
        for (int k = 0; k < b.n_idx; ++k) {
          const int slot = b.loop_slot[static_cast<size_t>(k)];
          if (slot == inner)
            d |= kDepInner;
          else if (std::any_of(loops_.begin(), loops_.end(),
                               [&](const LoopVar& lv) { return lv.slot == slot; }))
            d |= kDepOuter;  // pinned slots are constants
        }
        const bool field =
            b.source == Binding::Source::FieldSelf || b.source == Binding::Source::FieldNeighbor;
        if (field) d |= kDepCell;
        if (surface && b.source == Binding::Source::FieldNeighbor) d |= kDepFace;
      } else if (n.op == Op::LoadNormal && surface) {
        d |= kDepFace;
      }
      for (const int32_t operand : {n.a, n.b, n.c})
        if (operand >= 0) d |= p.deps[static_cast<size_t>(operand)];
      p.deps[i] = d;
      if (d == 0)
        p.scope[i] = Scope::Fn;
      else if (d == kDepFace)
        p.scope[i] = Scope::Face;
      else if (nested && (d & kDepInner) != 0 && (d & (kDepCell | kDepOuter)) == 0)
        p.scope[i] = Scope::Dir;
      else if (d == kDepCell)
        p.scope[i] = Scope::Cell;
      else
        p.scope[i] = Scope::Dof;
    }
    return p;
  }

  // Face and Dir values a body reads (a dof-loop operand or the surface
  // value itself) go into the face table; the rest stay local to its build.
  void mark_exports() {
    const std::vector<Scope>& sc = surf_place_.scope;
    exported_.assign(surf_.nodes.size(), false);
    auto tabled = [&](int32_t i) {
      if (i < 0) return false;
      const Scope at = sc[static_cast<size_t>(i)];
      return at == Scope::Face || at == Scope::Dir;
    };
    for (size_t i = 0; i < surf_.nodes.size(); ++i) {
      if (sc[i] != Scope::Dof) continue;
      for (const int32_t operand : {surf_.nodes[i].a, surf_.nodes[i].b, surf_.nodes[i].c})
        if (tabled(operand)) exported_[static_cast<size_t>(operand)] = true;
    }
    if (has_surface_ && tabled(surf_.ret)) exported_[static_cast<size_t>(surf_.ret)] = true;
  }

  // Surface node names inside a body for face-table index `k`: the exported
  // face and per-direction values are read from the table.
  std::vector<std::string> face_names(std::vector<std::string> n, const std::string& k) const {
    for (size_t i = 0; i < surf_.nodes.size(); ++i) {
      if (!exported_[i]) continue;
      const std::string id = std::to_string(i);
      n[i] = surf_place_.scope[i] == Scope::Face ? "TV" + id + "[" + k + "]"
                                                  : "S" + id + "[" + k + "][" + loop_var(loops_.back()) + "]";
    }
    return n;
  }

  // Emits `const double <prefix><id><suffix> = <expr>;` for every node `pick`
  // selects, naming it so; other nodes keep their prior names.
  template <class Pick>
  void emit_nodes(std::string& out, const Program& ir, Pick pick, std::vector<std::string>& name,
                  const std::string& prefix, Flavor f, const std::string& ind,
                  const std::string& face = "", const std::string& suffix = "") const {
    for (size_t i = 0; i < ir.nodes.size(); ++i) {
      if (!pick(i)) continue;
      name[i] = prefix + std::to_string(i) + suffix;
      out += ind + "const double " + name[i] + " = " + node_expr(ir, ir.nodes[i], name, f, face) + ";\n";
    }
  }
  static auto at(const Placement& p, Scope scope) {
    return [&p, scope](size_t i) { return p.scope[i] == scope; };
  }

  std::string out_index(const std::string& dof) const {
    if (in_.out->layout() == fvm::Layout::CellMajor)
      return "cell*" + std::to_string(ndof_) + " + " + dof;
    return "(" + dof + ")*nc + cell";
  }

  static std::string loop_var(const LoopVar& lv) { return "i" + std::to_string(lv.slot); }

  // Opens loops_[first, last) at indentation *cur, deepening it; returns the
  // matching closers.
  std::string open_loops(std::string& out, size_t first, size_t last, std::string* cur) const {
    std::string close;
    for (size_t k = first; k < last; ++k) {
      const std::string v = loop_var(loops_[k]);
      out += *cur + "for (int64_t " + v + " = 0; " + v + " < " + std::to_string(loops_[k].extent) +
             "; ++" + v + ") {\n";
      close = *cur + "}\n" + close;
      *cur += "  ";
    }
    return close;
  }

  // Opens the variable's dof loop nest; returns the matching closers and the
  // loop body indentation.
  std::string open_dof_loops(std::string& out, const std::string& ind, std::string* body_ind) const {
    *body_ind = ind;
    const std::string close = open_loops(out, 0, loops_.size(), body_ind);
    out += *body_ind + "const int64_t dof = " + dof_expr(*in_.var_addr) + ";\n";
    return close;
  }

  // The face table: the cell's contributing faces in CSR order, with each
  // face's kind, scale, rows and hoisted values. Both bodies read it.
  void emit_face_table(std::string& s, std::vector<std::string> sn) const {
    const std::string K = std::to_string(k_);
    const std::vector<Scope>& sc = surf_place_.scope;
    s += "    // Face table: the cell's contributing faces in CSR order, built once.\n";
    s += "    // A boundary face without a registered BC is a zero-flux wall and is\n";
    s += "    // skipped, as in the VM. Per face: its kind, its scale, the row each\n";
    s += "    // field read across it comes from, and its face and per-direction values.\n";
    s += "    int64_t nf = 0;\n";
    s += "    uint8_t TK[" + K + "];  // 0 interior, 1 value BC, 2 flux BC\n";
    s += "    double TS[" + K + "];  // area / cell volume\n";
    s += "    const double* TB[" + K + "];  // BC row of a boundary face\n";
    for (const int j : row_arrays_) {
      const ArrayInfo& a = arrays_[static_cast<size_t>(j)];
      s += "    const double* T" + a.cname + "[" + K + "];  // row of " + a.cname + " (" + a.entity +
           ") read across the face\n";
    }
    for (size_t i = 0; i < surf_.nodes.size(); ++i) {
      if (!exported_[i]) continue;
      s += sc[i] == Scope::Face ? "    double TV" + std::to_string(i) + "[" + K + "];\n"
                                : "    double S" + std::to_string(i) + "[" + K + "][" +
                                      std::to_string(loops_.back().extent) + "];\n";
    }
    s += "    for (int64_t fs = A->face_off[cell]; fs < A->face_off[cell + 1]; ++fs) {\n";
    s += "      const int64_t nbr = (int64_t)A->face_nbr[fs];\n";
    s += "      const int32_t bs = nbr >= 0 ? -1 : A->face_bslot[fs];\n";
    s += "      if (nbr < 0 && bs < 0) continue;\n";
    s += "      const int64_t k = nf++;\n";
    s += "      const double nx = A->face_geom[4*fs + 0]; (void)nx;\n";
    s += "      const double ny = A->face_geom[4*fs + 1]; (void)ny;\n";
    s += "      const double nz = A->face_geom[4*fs + 2]; (void)nz;\n";
    s += "      TS[k] = A->face_geom[4*fs + 3];\n";
    emit_nodes(s, surf_, at(surf_place_, Scope::Face), sn, "s", Flavor::Interior, "      ");
    for (size_t i = 0; i < surf_.nodes.size(); ++i)
      if (exported_[i] && sc[i] == Scope::Face)
        s += "      TV" + std::to_string(i) + "[k] = " + sn[i] + ";\n";
    if (std::find(sc.begin(), sc.end(), Scope::Dir) != sc.end()) {
      s += "      // Per face and direction: the values that vary with the face and the\n";
      s += "      // stride-1 index only, computed once here rather than once per dof.\n";
      std::string body = "      ";
      const std::string close = open_loops(s, loops_.size() - 1, loops_.size(), &body);
      emit_nodes(s, surf_, at(surf_place_, Scope::Dir), sn, "s", Flavor::Interior, body);
      for (size_t i = 0; i < surf_.nodes.size(); ++i)
        if (exported_[i] && sc[i] == Scope::Dir)
          s += body + "S" + std::to_string(i) + "[k][" + loop_var(loops_.back()) + "] = " + sn[i] + ";\n";
      s += close;
    }
    s += "      if (nbr >= 0) {\n";
    s += "        TK[k] = 0;\n";
    for (const int j : row_arrays_) {
      const ArrayInfo& a = arrays_[static_cast<size_t>(j)];
      s += "        T" + a.cname + "[k] = " + row_ptr(a, "nbr") + ";\n";
    }
    s += "      } else {\n";
    s += "        TK[k] = A->bc_kind[bs];\n";
    s += "        TB[k] = A->bc_value + (int64_t)bs * " + std::to_string(ndof_) + ";\n";
    for (const int j : row_arrays_) {
      const ArrayInfo& a = arrays_[static_cast<size_t>(j)];
      s += "        T" + a.cname + "[k] = " +
           (a.field == in_.out ? "TB[k];  // the ghost of a value BC" : row_ptr(a, "cell") + ";") + "\n";
    }
    s += "      }\n";
    s += "    }\n";
  }

  // Cells with exactly K interior or value-BC faces: one pass over the DOFs,
  // each summing its face terms in a register.
  void emit_fused_body(std::string& s, const std::string& ind, std::vector<std::string> vn,
                       std::vector<std::string> sn) const {
    const std::vector<Scope>& sc = surf_place_.scope;
    auto per_face = [&](size_t i) {
      return sc[i] == Scope::Dof && (surf_place_.deps[i] & kDepFace) != 0;
    };
    s += ind + "// Fused body: all " + std::to_string(k_) +
         " faces are interior or value BCs. Each DOF\n";
    s += ind + "// adds its face terms into a register in CSR order, the VM's order,\n";
    s += ind + "// and writes volume plus faces once.\n";
    emit_write_loop(s, ind, [&](const std::string& body) {
      emit_nodes(s, vol_, at(vol_place_, Scope::Dof), vn, "v", Flavor::Volume, body);
      emit_nodes(s, surf_, [&](size_t i) { return sc[i] == Scope::Dof && !per_face(i); }, sn, "s",
                 Flavor::Interior, body);
      s += body + "double flux = 0.0;\n";
      for (int k = 0; k < k_; ++k) {
        const std::string kk = std::to_string(k);
        std::vector<std::string> fn = face_names(sn, kk);
        emit_nodes(s, surf_, per_face, fn, "s", Flavor::Interior, body, kk, "_" + kk);
        s += body + "flux += TS[" + kk + "] * " + fn[static_cast<size_t>(surf_.ret)] + ";\n";
      }
      return vn[static_cast<size_t>(vol_.ret)] + " + flux";
    });
  }

  // Every other cell: volume and flux staged per DOF, the faces of the table
  // outermost so each face's dof loops vectorize.
  void emit_general_body(std::string& s, const std::string& ind, std::vector<std::string> vn,
                         const std::vector<std::string>& sn) const {
    const std::string nd = std::to_string(ndof_);
    s += ind + "// General body: volume and face terms staged per DOF.\n";
    s += ind + "double vol[" + nd + "];\n";
    s += ind + "double flux[" + nd + "];\n";
    s += ind + "// Volume terms, fused with the flux reset. The dof loops run the\n";
    s += ind + "// variable's stride-1 index innermost, so these writes vectorize\n";
    s += ind + "// across directions/bands.\n";
    std::string body;
    std::string close = open_dof_loops(s, ind, &body);
    emit_nodes(s, vol_, at(vol_place_, Scope::Dof), vn, "v", Flavor::Volume, body);
    s += body + "vol[dof] = " + vn[static_cast<size_t>(vol_.ret)] + ";\n";
    s += body + "flux[dof] = 0.0;\n";
    s += close;
    s += ind + "// Surface terms: the face loop is outermost so the dof loops\n";
    s += ind + "// vectorize; per dof the faces accumulate in the VM's order, so\n";
    s += ind + "// the sum is bit-identical to the interpreter's.\n";
    s += ind + "for (int64_t k = 0; k < nf; ++k) {\n";
    const std::string in1 = ind + "  ", in2 = ind + "    ";
    auto surface_terms = [&](const char* prefix, Flavor f) {
      std::vector<std::string> kn = face_names(sn, "k");
      close = open_dof_loops(s, in2, &body);
      emit_nodes(s, surf_, at(surf_place_, Scope::Dof), kn, prefix, f, body, "k");
      s += body + "flux[dof] += scale * " + kn[static_cast<size_t>(surf_.ret)] + ";\n";
      s += close;
    };
    s += in1 + "const double scale = TS[k];\n";
    s += in1 + "if (TK[k] == 0) {\n";
    surface_terms("s", Flavor::Interior);
    s += in1 + "} else if (TK[k] == 1) {\n";
    s += in2 + "// Value BC: the callback's ghost value substitutes for the\n";
    s += in2 + "// updated variable across the face.\n";
    surface_terms("g", Flavor::Ghost);
    s += in1 + "} else {\n";
    s += in2 + "// Flux BC: callback integrand enters as -dt * (A/V) * f.\n";
    close = open_dof_loops(s, in2, &body);
    s += body + "flux[dof] += scale * (-dt) * TB[k][dof];\n";
    s += close;
    s += in1 + "}\n";
    s += ind + "}\n";
    s += ind + "// Update: volume value plus the face accumulation, exactly once\n";
    s += ind + "// per (cell, dof).\n";
    emit_write_loop(s, ind, [](const std::string&) { return std::string("vol[dof] + flux[dof]"); });
  }

  // The reduction target's element of the current cell for the outer loop
  // indices: its DOF is the variable's DOF over the stride-1 extent.
  std::string reduce_index() const {
    const fvm::CellField& t = *in_.reduce_target;
    if (t.dof_per_cell() == 1) return "cell";
    const Binding& va = *in_.var_addr;
    Binding rest;
    for (int k = 1; k < va.n_idx; ++k, ++rest.n_idx) {
      rest.loop_slot[static_cast<size_t>(rest.n_idx)] = va.loop_slot[static_cast<size_t>(k)];
      rest.stride[static_cast<size_t>(rest.n_idx)] = va.stride[static_cast<size_t>(k)] / loops_.back().extent;
    }
    if (t.layout() == fvm::Layout::CellMajor)
      return "cell*" + std::to_string(t.dof_per_cell()) + " + " + dof_expr(rest);
    return "(" + dof_expr(rest) + ")*nc + cell";
  }

  // The loop nest that writes the cell's DOFs. `value` appends the statements
  // of one DOF's new value at the given indentation and returns its
  // expression. With a declared reduction, each stride-1 loop is followed by
  // its sum: w[i] * out[i] added from 0.0 in index order, the post-pass's
  // order. Kept out of the written loop, the add chain does not stop it from
  // vectorizing, and it overlaps the next outer index's loop.
  template <class ValueFn>
  void emit_write_loop(std::string& s, const std::string& ind, ValueFn value) const {
    if (in_.reduce_target == nullptr) {
      std::string body;
      const std::string close = open_dof_loops(s, ind, &body);
      const std::string v = value(body);
      s += body + "OUT[" + out_index("dof") + "] = " + v + ";\n";
      s += close;
      return;
    }
    std::string cur = ind;
    const std::string close = open_loops(s, 0, loops_.size() - 1, &cur);
    std::string body = cur;
    std::string inner_close = open_loops(s, loops_.size() - 1, loops_.size(), &body);
    s += body + "const int64_t dof = " + dof_expr(*in_.var_addr) + ";\n";
    const std::string v = value(body);
    s += body + "OUT[" + out_index("dof") + "] = " + v + ";\n";
    s += inner_close;
    s += cur + "// The declared sum over the stride-1 index, from 0.0 in index order\n";
    s += cur + "// as the VM's post-pass adds it.\n";
    s += cur + "double red = 0.0;\n";
    body = cur;
    inner_close = open_loops(s, loops_.size() - 1, loops_.size(), &body);
    s += body + "red += " + load_expr(*in_.reduce_weight, Flavor::Volume, "") + " * OUT[" +
         out_index(dof_expr(*in_.var_addr)) + "];\n";
    s += inner_close;
    s += cur + "RED[" + reduce_index() + "] = red;\n";
    s += close;
  }

  std::string render(uint64_t fp) const {
    std::string s;
    char fphex[32];
    std::snprintf(fphex, sizeof fphex, "%016llx", static_cast<unsigned long long>(fp));
    s += "// finch native kernel: " + in_.name + " (IR fingerprint " + fphex + ")\n";
    s += "// Generated by codegen::NativeBackend — ABI v1, see CODEGEN.md. Do not edit.\n";
    s += "// One statement per SSA node: the kernel performs op-for-op the same IEEE\n";
    s += "// arithmetic as the bytecode VM (compiled with -ffp-contract=off).\n";
    s += "#include <math.h>\n#include <stdint.h>\n\n";
    s += "typedef struct {\n";
    s += "  int64_t cell_begin, cell_end, ncells;\n";
    s += "  double dt;\n";
    s += "  double* out;\n";
    s += "  const double* const* arrays;\n";
    s += "  const double* scalars;\n";
    s += "  const int64_t* face_off;\n";
    s += "  const int32_t* face_nbr;\n";
    s += "  const double* face_geom;\n";
    s += "  const int32_t* face_bslot;\n";
    s += "  const uint8_t* bc_kind;\n";
    s += "  const double* bc_value;\n";
    s += "  double* reduce_out;\n";
    s += "  const uint8_t* cell_fused;\n";
    s += "} finch_kernel_args_v1;\n\n";
    s += "extern \"C\" int32_t finch_kernel_abi_version(void) { return 1; }\n\n";
    // Manifest: how the host fills arrays[] / scalars[].
    for (size_t i = 0; i < arrays_.size(); ++i) {
      const auto& a = arrays_[i];
      s += "// arrays[" + std::to_string(i) + "] = " + (a.is_field ? "field " : "coef ") + a.entity;
      if (a.is_field)
        s += std::string(" (") + (a.layout == fvm::Layout::CellMajor ? "cell-major" : "dof-major") +
             ", " + std::to_string(a.dpc) + " dof/cell)";
      s += "\n";
    }
    for (size_t i = 0; i < scalars_.size(); ++i)
      s += "// scalars[" + std::to_string(i) + "] = " + scalar_names_[i] + "\n";
    if (in_.dialect == Dialect::Cpp) {
      s += "\nextern \"C\" void finch_kernel_v1(const finch_kernel_args_v1* A) {\n";
    } else {
      s += "\n__global__ void " + in_.name + "(const finch_kernel_args_v1 args) {\n";
      s += "  const finch_kernel_args_v1* A = &args;\n";
    }
    s += "  const double dt = A->dt; (void)dt;\n";
    s += "  const int64_t nc = A->ncells; (void)nc;\n";
    s += "  const double* __restrict__ SC = A->scalars; (void)SC;\n";
    for (size_t i = 0; i < arrays_.size(); ++i)
      s += "  const double* __restrict__ " + arrays_[i].cname + " = A->arrays[" +
           std::to_string(i) + "];\n";
    s += "  double* __restrict__ OUT = A->out;\n";
    if (in_.reduce_target != nullptr) s += "  double* __restrict__ RED = A->reduce_out;\n";
    for (const auto& p : pinned_)
      s += "  const int64_t i" + std::to_string(p.slot) + " = " + std::to_string(p.value) +
           ";  // pinned: " + p.why + "\n";

    std::vector<std::string> vn(vol_.nodes.size());
    std::vector<std::string> sn(surf_.nodes.size());

    // Loop-invariant values (scalars, dt, constants and arithmetic on them).
    emit_nodes(s, vol_, at(vol_place_, Scope::Fn), vn, "v", Flavor::Volume, "  ");
    emit_nodes(s, surf_, at(surf_place_, Scope::Fn), sn, "s", Flavor::Interior, "  ");

    if (in_.dialect == Dialect::Cpp) {
      s += "  for (int64_t cell = A->cell_begin; cell < A->cell_end; ++cell) {\n";
    } else {
      s += "  {  // one thread per cell of the launch\n";
      s += "    const int64_t cell = A->cell_begin + (int64_t)blockIdx.x * blockDim.x + threadIdx.x;\n";
      s += "    if (cell >= A->cell_end) return;\n";
    }
    emit_nodes(s, vol_, at(vol_place_, Scope::Cell), vn, "v", Flavor::Volume, "    ");
    emit_nodes(s, surf_, at(surf_place_, Scope::Cell), sn, "s", Flavor::Interior, "    ");
    if (!has_surface_) {
      // Volume-only update: write out directly, no flux staging needed.
      emit_write_loop(s, "    ", [&](const std::string& body) {
        emit_nodes(s, vol_, at(vol_place_, Scope::Dof), vn, "v", Flavor::Volume, body);
        return vn[static_cast<size_t>(vol_.ret)];
      });
    } else {
      emit_face_table(s, sn);
      if (fused_) {
        s += "    if (A->cell_fused[cell]) {\n";
        emit_fused_body(s, "      ", vn, sn);
        s += "    } else {\n";
        emit_general_body(s, "      ", vn, sn);
        s += "    }\n";
      } else {
        emit_general_body(s, "    ", vn, sn);
      }
    }
    s += "  }\n}\n";
    return s;
  }

  static inline const Program kNoSurface{};

  const NativeKernelInputs& in_;
  const Program& vol_;
  const Program& surf_;  // kNoSurface when the equation has no surface terms
  bool has_surface_;
  int32_t k_;            // K: the face table's capacity, the fused body's face count
  int64_t ndof_ = 0;
  Placement vol_place_, surf_place_;
  std::vector<bool> exported_;  // surface Face/Dir nodes the face table holds
  std::vector<int> row_arrays_; // fields read across a face: one row column each
  bool fused_ = false;
  std::vector<LoopVar> loops_;     // emission order: outermost first
  std::vector<PinnedVar> pinned_;  // slots fixed to a constant loop value
  std::vector<ArrayInfo> arrays_;
  std::map<std::string, int> array_ids_;
  std::vector<double> scalars_;
  std::vector<std::string> scalar_names_;
  std::map<std::string, int> scalar_ids_;
};

// ---- compile / cache / dlopen ----------------------------------------------

std::mutex g_cache_mu;
std::map<uint64_t, KernelFnV1>& mem_cache() {
  static std::map<uint64_t, KernelFnV1> cache;
  return cache;
}

std::string hex_key(uint64_t key) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(key));
  return buf;
}

std::string file_tail(const std::string& path, size_t max_bytes = 512) {
  std::ifstream is(path);
  if (!is) return "";
  std::ostringstream ss;
  ss << is.rdbuf();
  std::string s = ss.str();
  if (s.size() > max_bytes) s = "..." + s.substr(s.size() - max_bytes);
  return s;
}

bool write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) return false;
    os << content;
    if (!os) return false;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) fs::remove(tmp, ec);
  return !ec;
}

#if FINCH_HAS_DLOPEN
#if defined(__ELF__)
bool looks_like_shared_object(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  char magic[4] = {};
  is.read(magic, 4);
  return is.gcount() == 4 && magic[0] == 0x7f && magic[1] == 'E' && magic[2] == 'L' &&
         magic[3] == 'F';
}
#endif

// Opens a kernel shared object and resolves + sanity-checks the v1 ABI.
// Returns null (appending the reason to *log) on any failure — the caller
// treats that as a corrupt cache entry.
KernelFnV1 open_kernel(const std::string& so_path, std::string* log) {
#if defined(__ELF__)
  // Validate the magic with read(2) before involving the dynamic linker:
  // dlopen of a pathname this process already loaded returns the cached
  // mapping without re-reading the file, so a truncated or overwritten
  // entry must be rejected up front — touching the stale mapping's code
  // after its backing file shrank raises SIGBUS.
  if (!looks_like_shared_object(so_path)) {
    if (log != nullptr) *log += "not a valid shared object: " + so_path + "; ";
    return nullptr;
  }
#endif
  void* handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    if (log != nullptr) *log += std::string("dlopen: ") + ::dlerror() + "; ";
    return nullptr;
  }
  auto abi = reinterpret_cast<int32_t (*)()>(::dlsym(handle, "finch_kernel_abi_version"));
  if (abi == nullptr || abi() != 1) {
    if (log != nullptr) *log += "bad or missing finch_kernel_abi_version; ";
    ::dlclose(handle);
    return nullptr;
  }
  auto fn = reinterpret_cast<KernelFnV1>(::dlsym(handle, "finch_kernel_v1"));
  if (fn == nullptr) {
    if (log != nullptr) *log += "missing finch_kernel_v1 symbol; ";
    ::dlclose(handle);
    return nullptr;
  }
  // Intentionally no dlclose: the function pointer stays cached process-wide.
  return fn;
}
#endif

}  // namespace

JitConfig& jit_config() {
  static JitConfig cfg = config_from_env();
  return cfg;
}

void reset_jit_config_from_env() { jit_config() = config_from_env(); }

bool native_backend_available() {
#if FINCH_HAS_DLOPEN
  const JitConfig& cfg = jit_config();
  return !cfg.disable && !cfg.compiler.empty();
#else
  return false;
#endif
}

void reset_native_memory_cache() {
  std::lock_guard<std::mutex> lk(g_cache_mu);
  mem_cache().clear();
}

NativePlan emit_native_plan(const NativeKernelInputs& in) {
  rt::TraceSpan span("jit.emit");
  const auto t0 = rt::Clock::now();
  NativePlan plan = Emitter(in).plan();
  rt::MetricsRegistry::global().counter("jit.emit_seconds").add(rt::seconds_since(t0));
  return plan;
}

bool load_native_plan(NativePlan& plan, std::string* error) {
  auto fail = [&](const std::string& m) {
    if (error != nullptr) *error = m;
    return false;
  };
  const JitConfig cfg = jit_config();  // snapshot: config may mutate under tests
  if (cfg.disable) return fail("jit disabled (FINCH_JIT_DISABLE=1)");
#if !FINCH_HAS_DLOPEN
  return fail("dlopen not available on this platform");
#else
  if (cfg.compiler.empty()) return fail("no usable compiler found (set FINCH_JIT_CXX)");
  auto& reg = rt::MetricsRegistry::global();

  // Flag ladder: the tuned variant first, the conservative baseline second
  // (-march=native is not universal). Both keep bit-compatible FP semantics:
  // no fast-math, no FMA contraction. Each variant is its own cache key.
  const std::string base = "-O3 -fPIC -shared -ffp-contract=off";
  const std::string extra = cfg.extra_cflags.empty() ? "" : " " + cfg.extra_cflags;
  const std::string variants[] = {base + " -march=native" + extra, base + extra};

  std::string log;
  for (const std::string& flags : variants) {
    uint64_t key = rt::fnv1a64(plan.source);
    key = rt::fnv1a64(cfg.compiler, key);
    key = rt::fnv1a64(flags, key);

    {
      std::lock_guard<std::mutex> lk(g_cache_mu);
      auto it = mem_cache().find(key);
      if (it != mem_cache().end()) {
        plan.fn = it->second;
        plan.key = key;
        plan.flags = flags;
        reg.counter("jit.cache.hit").add();
        reg.counter("jit.cache.hit_mem").add();
        return true;
      }
    }

    std::error_code ec;
    fs::create_directories(cfg.cache_dir, ec);
    if (ec) {
      log += "cache dir '" + cfg.cache_dir + "': " + ec.message() + "; ";
      continue;
    }
    const std::string stem = cfg.cache_dir + "/" + hex_key(key);
    const std::string so = stem + ".so";

    if (fs::exists(so, ec)) {
      rt::TraceSpan hit_span("jit.cache.hit");
      if (KernelFnV1 fn = open_kernel(so, &log); fn != nullptr) {
        std::lock_guard<std::mutex> lk(g_cache_mu);
        mem_cache()[key] = fn;
        plan.fn = fn;
        plan.key = key;
        plan.flags = flags;
        reg.counter("jit.cache.hit").add();
        reg.counter("jit.cache.hit_disk").add();
        return true;
      }
      // Unreadable / truncated / wrong-ABI entry: evict and recompile.
      reg.counter("jit.cache.corrupt").add();
      fs::remove(so, ec);
    }

    reg.counter("jit.cache.miss").add();
    rt::TraceSpan compile_span("jit.compile");
    const auto t0 = rt::Clock::now();
    if (!fs::exists(stem + ".cpp", ec) && !write_file_atomic(stem + ".cpp", plan.source)) {
      log += "cannot write " + stem + ".cpp; ";
      continue;
    }
    // Concurrent solvers may compile the same key: each writes a unique temp
    // object, and the rename makes publication atomic. The name must be
    // unique per attempt, not just per process — the dynamic linker caches
    // loaded objects by pathname, and dlopen of a previously-used temp name
    // would return the stale mapping instead of the fresh compile.
    static std::atomic<uint64_t> tmp_seq{0};
    const std::string so_tmp = so + ".tmp." + std::to_string(::getpid()) + "." +
                               std::to_string(tmp_seq.fetch_add(1));
    const std::string cmd = cfg.compiler + " " + flags + " -o '" + so_tmp + "' '" + stem +
                            ".cpp' > '" + stem + ".log' 2>&1";
    const int rc = std::system(cmd.c_str());
    reg.counter("jit.compile_seconds").add(rt::seconds_since(t0));
    if (rc != 0 || !fs::exists(so_tmp, ec)) {
      log += "compile failed (" + cfg.compiler + " " + flags + "): " + file_tail(stem + ".log") + "; ";
      fs::remove(so_tmp, ec);
      continue;
    }
    // Load the pid-unique temp object BEFORE publishing it under the final
    // name: the linker's pathname cache means re-opening `so` after a
    // corrupt entry was evicted could resurrect the stale broken mapping.
    // The mapping survives the rename (or removal) of its file.
    KernelFnV1 fn = open_kernel(so_tmp, &log);
    if (fn == nullptr) {
      fs::remove(so_tmp, ec);
      continue;
    }
    fs::rename(so_tmp, so, ec);
    if (ec) {
      // Publication failed but the loaded kernel is good — future processes
      // just recompile.
      log += "publish " + so + ": " + ec.message() + "; ";
      fs::remove(so_tmp, ec);
    }
    {
      std::lock_guard<std::mutex> lk(g_cache_mu);
      mem_cache()[key] = fn;
    }
    plan.fn = fn;
    plan.key = key;
    plan.flags = flags;
    return true;
  }
  return fail("native kernel unavailable: " + log);
#endif
}

}  // namespace finch::codegen
