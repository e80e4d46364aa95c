#include "bytecode.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <sstream>
#include <tuple>

#include "core/symbolic/operators.hpp"
#include "core/symbolic/printer.hpp"
#include "runtime/metrics.hpp"

namespace finch::codegen {

namespace sym = finch::sym;

int CompileEnv::loop_slot_of(const std::string& index_name) const {
  for (size_t i = 0; i < index_order.size(); ++i)
    if (index_order[i] == index_name) return static_cast<int>(i);
  throw CompileError("undeclared index in expression: " + index_name);
}

std::string Binding::signature() const {
  std::string s;
  s += static_cast<char>('0' + static_cast<int>(source));
  s += '|';
  s += debug_name;
  s += '|';
  for (int k = 0; k < n_idx; ++k) {
    s += std::to_string(loop_slot[static_cast<size_t>(k)]);
    s += ':';
    s += std::to_string(stride[static_cast<size_t>(k)]);
    s += ',';
  }
  return s;
}

namespace {

uint64_t bits_of(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

// Lowers a tree to the node list in one walk, operands before users. node()
// value-numbers as it goes: a node structurally equal to an earlier one (op,
// operand ids, binding, Const bits) is that node, so repeated subtrees
// collapse and every emitted node is used.
class Compiler {
 public:
  explicit Compiler(const CompileEnv& env) : env_(env) {}

  Program run(const sym::Expr& e) {
    prog_.ret = emit(e);
    return std::move(prog_);
  }

 private:
  int32_t node(Op op, int32_t a = -1, int32_t b = -1, int32_t c = -1, int32_t slot = 0,
               double imm = 0.0) {
    const Key key{op, a, b, c, slot, op == Op::Const ? bits_of(imm) : 0};
    auto [it, fresh] = values_.try_emplace(key, static_cast<int32_t>(prog_.nodes.size()));
    if (fresh) prog_.nodes.push_back({op, a, b, c, slot, op == Op::Const ? imm : 0.0});
    return it->second;
  }

  // Operands are emitted left to right: the node order (and so the native
  // kernel's text) follows the tree.
  int32_t emit_binary(Op op, const sym::Expr& a, const sym::Expr& b) {
    const int32_t na = emit(a);
    const int32_t nb = emit(b);
    return node(op, na, nb);
  }

  int32_t emit(const sym::Expr& e) {
    switch (e->kind()) {
      case sym::Kind::Number:
        return node(Op::Const, -1, -1, -1, 0, sym::as<sym::NumberNode>(e)->value);
      case sym::Kind::Symbol:
        return emit_symbol(*sym::as<sym::SymbolNode>(e));
      case sym::Kind::EntityRef:
        return emit_entity(*sym::as<sym::EntityRefNode>(e));
      case sym::Kind::Add: {
        const auto& terms = sym::as<sym::AddNode>(e)->terms;
        int32_t acc = emit(terms[0]);
        for (size_t i = 1; i < terms.size(); ++i) {
          const int32_t t = emit(terms[i]);
          acc = node(Op::Add, acc, t);
        }
        return acc;
      }
      case sym::Kind::Mul: {
        const auto& fs = sym::as<sym::MulNode>(e)->factors;
        int32_t acc = emit(fs[0]);
        for (size_t i = 1; i < fs.size(); ++i) {
          // x * y^-1 lowers to a divide.
          if (const auto* p = sym::as<sym::PowNode>(fs[i]);
              p != nullptr && sym::is_number(p->expo, -1.0)) {
            const int32_t d = emit(p->base);
            acc = node(Op::Div, acc, d);
            continue;
          }
          const int32_t f = emit(fs[i]);
          acc = node(Op::Mul, acc, f);
        }
        return acc;
      }
      case sym::Kind::Pow: {
        const auto* p = sym::as<sym::PowNode>(e);
        if (sym::is_number(p->expo, 2.0)) {
          const int32_t base = emit(p->base);
          return node(Op::Mul, base, base);
        }
        if (sym::is_number(p->expo, -1.0)) {
          const int32_t one = node(Op::Const, -1, -1, -1, 0, 1.0);
          const int32_t base = emit(p->base);
          return node(Op::Div, one, base);
        }
        return emit_binary(Op::Pow, p->base, p->expo);
      }
      case sym::Kind::Compare: {
        const auto* c = sym::as<sym::CompareNode>(e);
        Op op;
        switch (c->op) {
          case sym::CmpOp::GT: op = Op::CmpGT; break;
          case sym::CmpOp::GE: op = Op::CmpGE; break;
          case sym::CmpOp::LT: op = Op::CmpLT; break;
          case sym::CmpOp::LE: op = Op::CmpLE; break;
          case sym::CmpOp::EQ: op = Op::CmpEQ; break;
          case sym::CmpOp::NE: op = Op::CmpNE; break;
          default: throw CompileError("unsupported comparison");
        }
        return emit_binary(op, c->lhs, c->rhs);
      }
      case sym::Kind::Call:
        return emit_call(*sym::as<sym::CallNode>(e));
      case sym::Kind::Vector:
        throw CompileError("vector literal survived operator expansion");
    }
    throw CompileError("unknown node kind");
  }

  int32_t emit_symbol(const sym::SymbolNode& s) {
    if (s.name == "dt") return node(Op::LoadDt);
    if (s.name.rfind("NORMAL_", 0) == 0) {
      int comp = std::stoi(s.name.substr(7)) - 1;
      if (comp < 0 || comp > 2) throw CompileError("bad normal component: " + s.name);
      return node(Op::LoadNormal, -1, -1, -1, comp);
    }
    if (s.name == sym::kSurfaceMarker || s.name == sym::kTimeDerivativeMarker)
      throw CompileError("marker symbol '" + s.name + "' reached the executable target; "
                         "classification must strip it first");
    throw CompileError("unbound symbol in integrand: " + s.name);
  }

  // A reference must carry its entity's declared index extents, position by
  // position: with other indices its strides would address DOFs the storage
  // does not have. (A non-symbol index is refused below.)
  void check_indices(const sym::EntityRefNode& r) const {
    const sym::EntityInfo* info = env_.table != nullptr ? env_.table->find(r.name) : nullptr;
    if (info == nullptr) return;
    std::vector<std::string> used;
    for (const sym::Expr& idx : r.indices) {
      const auto* is = sym::as<sym::SymbolNode>(idx);
      if (is == nullptr) return;
      used.push_back(is->name);
    }
    auto extent = [&](const std::string& index) {
      return env_.index_extent[static_cast<size_t>(env_.loop_slot_of(index))];
    };
    auto shape = [&](const std::vector<std::string>& names) {
      std::string s = r.name + "[";
      for (size_t k = 0; k < names.size(); ++k)
        s += (k > 0 ? "," : "") + names[k] + "=" + std::to_string(extent(names[k]));
      return s + "]";
    };
    bool same = used.size() == info->indices.size();
    for (size_t k = 0; same && k < used.size(); ++k) same = extent(used[k]) == extent(info->indices[k]);
    if (!same)
      throw CompileError("entity " + r.name + " is declared as " + shape(info->indices) + " but referenced as " +
                         shape(used));
  }

  int32_t emit_entity(const sym::EntityRefNode& r) {
    check_indices(r);
    Binding b;
    b.debug_name = r.name;
    // DOF addressing from the entity's declared index list.
    auto fill_indices = [&](const std::vector<sym::Expr>& idx) {
      b.n_idx = 0;
      int32_t stride = 1;
      for (size_t k = 0; k < idx.size(); ++k) {
        const auto* is = sym::as<sym::SymbolNode>(idx[k]);
        if (is == nullptr) throw CompileError("only plain index symbols supported in [..] for executable target");
        if (b.n_idx >= 3) throw CompileError("too many indices on entity " + r.name);
        b.loop_slot[static_cast<size_t>(b.n_idx)] = env_.loop_slot_of(is->name);
        b.stride[static_cast<size_t>(b.n_idx)] = stride;
        stride *= env_.index_extent[static_cast<size_t>(env_.loop_slot_of(is->name))];
        ++b.n_idx;
      }
    };

    if (r.entity_kind == sym::EntityKind::Variable) {
      if (env_.fields == nullptr || !env_.fields->has(r.name))
        throw CompileError("no field storage bound for variable " + r.name);
      b.field = &env_.fields->get(r.name);
      b.source = r.side == sym::CellSide::Cell2 ? Binding::Source::FieldNeighbor : Binding::Source::FieldSelf;
      fill_indices(r.indices);
    } else {
      // Coefficient: indexed array, per-cell field, or scalar.
      if (env_.coefficients != nullptr && env_.coefficients->count(r.name) != 0) {
        const auto& arr = env_.coefficients->at(r.name);
        b.source = Binding::Source::CoefIndexed;
        b.coef = arr.data();
        b.coef_len = static_cast<int32_t>(arr.size());
        fill_indices(r.indices);
      } else if (env_.fields != nullptr && env_.fields->has(r.name)) {
        b.field = &env_.fields->get(r.name);
        b.source = r.side == sym::CellSide::Cell2 ? Binding::Source::FieldNeighbor : Binding::Source::FieldSelf;
        fill_indices(r.indices);
      } else if (env_.scalar_coefficients != nullptr && env_.scalar_coefficients->count(r.name) != 0) {
        b.source = Binding::Source::Scalar;
        b.scalar = env_.scalar_coefficients->at(r.name);
      } else {
        throw CompileError("no storage bound for coefficient " + r.name);
      }
    }
    auto [it, fresh] = binding_ids_.try_emplace(b.signature(), static_cast<int32_t>(prog_.bindings.size()));
    if (fresh) prog_.bindings.push_back(std::move(b));
    return node(Op::Load, -1, -1, -1, it->second);
  }

  int32_t emit_call(const sym::CallNode& c) {
    if (c.func == "conditional") {
      if (c.args.size() != 3) throw CompileError("conditional takes 3 arguments");
      const int32_t cond = emit(c.args[0]);
      const int32_t t = emit(c.args[1]);
      const int32_t f = emit(c.args[2]);
      return node(Op::Select, cond, t, f);
    }
    static const std::map<std::string, Op> kMath = {
        {"exp", Op::MathExp}, {"sqrt", Op::MathSqrt}, {"abs", Op::MathAbs},
        {"sin", Op::MathSin}, {"cos", Op::MathCos},   {"log", Op::MathLog},
    };
    auto it = kMath.find(c.func);
    if (it != kMath.end()) {
      if (c.args.size() != 1) throw CompileError(c.func + " takes 1 argument");
      const int32_t a = emit(c.args[0]);
      return node(it->second, a);
    }
    throw CompileError("call to '" + c.func + "' cannot be lowered; register it as a symbolic "
                       "operator or route it through a boundary/post-step callback");
  }

  using Key = std::tuple<Op, int32_t, int32_t, int32_t, int32_t, uint64_t>;

  const CompileEnv& env_;
  Program prog_;
  std::map<Key, int32_t> values_;                 // structural key -> node id
  std::map<std::string, int32_t> binding_ids_;    // Binding::signature -> binding id
};

}  // namespace

Program compile(const sym::Expr& integrand, const CompileEnv& env) { return Compiler(env).run(integrand); }

Placement place(const Program& p, const Binding& var, bool surface) {
  const bool nested = surface && var.n_idx > 1;
  const int inner = var.n_idx > 0 ? var.loop_slot[0] : -1;
  auto is_var_index = [&](int slot) {
    for (int k = 0; k < var.n_idx; ++k)
      if (var.loop_slot[static_cast<size_t>(k)] == slot) return true;
    return false;  // a constant: the lanes' loop value 0
  };
  Placement pl{std::vector<Scope>(p.nodes.size(), Scope::Fn), std::vector<unsigned>(p.nodes.size(), 0)};
  for (size_t i = 0; i < p.nodes.size(); ++i) {
    const Node& n = p.nodes[i];
    unsigned d = 0;
    if (n.op == Op::Load) {
      const Binding& b = p.bindings[static_cast<size_t>(n.slot)];
      for (int k = 0; k < b.n_idx; ++k) {
        const int slot = b.loop_slot[static_cast<size_t>(k)];
        if (slot == inner)
          d |= kDepInner;
        else if (is_var_index(slot))
          d |= kDepOuter;
      }
      const bool field = b.source == Binding::Source::FieldSelf || b.source == Binding::Source::FieldNeighbor;
      if (field) d |= kDepCell;
      if (surface && b.source == Binding::Source::FieldNeighbor) d |= kDepFace;
    } else if (n.op == Op::LoadNormal && surface) {
      d |= kDepFace;
    }
    for (const int32_t operand : {n.a, n.b, n.c})
      if (operand >= 0) d |= pl.deps[static_cast<size_t>(operand)];
    pl.deps[i] = d;
    if (d == 0)
      pl.scope[i] = Scope::Fn;
    else if (d == kDepFace)
      pl.scope[i] = Scope::Face;
    else if (nested && (d & kDepInner) != 0 && (d & (kDepCell | kDepOuter)) == 0)
      pl.scope[i] = Scope::Dir;
    else if (d == kDepCell)
      pl.scope[i] = Scope::Cell;
    else
      pl.scope[i] = Scope::Dof;
  }
  return pl;
}

Point point_of(Scope scope, unsigned deps) {
  if (scope == Scope::Fn) return Point::Sweep;
  if ((deps & (kDepCell | kDepFace)) == 0) return Point::SweepLane;  // a Dir or Dof value of the indices alone
  switch (scope) {
    case Scope::Cell: return Point::Cell;
    case Scope::Face: return Point::Face;
    case Scope::Dir: return Point::FaceDir;
    default: return (deps & kDepFace) != 0 ? Point::FaceLane : Point::CellLane;
  }
}

namespace {

// Lane sources of the one interpreter below: how many lanes a dispatch covers
// and which DOF (and ghost value) lane l of a Load resolves to. The state all
// lanes share is read from `ctx`.
struct OneLane {
  static constexpr int kWidth = 1;
  const EvalContext& ctx;
  static constexpr int count() { return 1; }
  auto dofs(const Binding& b, int32_t /*slot*/) const {
    return [d = b.dof(ctx.loop_values)](int /*lane*/) { return d; };
  }
  double ghost(int /*lane*/) const { return ctx.ghost_value; }
};

struct BlockLanes {
  static constexpr int kWidth = kLaneBlock;
  const LaneBlock& ctx;
  const LaneOffsets& offsets;
  int count() const { return ctx.count; }
  auto dofs(const Binding& /*b*/, int32_t slot) const {
    return [row = offsets.row(slot) + ctx.first](int lane) { return static_cast<int64_t>(row[lane]); };
  }
  double ghost(int lane) const { return ctx.ghost_value[lane]; }
  bool contiguous(int32_t slot) const { return offsets.contiguous(slot, ctx.first, ctx.count); }
};

// Writes the lanes' values of binding `b` to d and returns d; with MayPoint
// (block lanes only), a load whose lanes read consecutive DOFs of one row
// returns that row instead.
template <bool MayPoint, class Lanes>
const double* load(const Binding& b, int32_t slot, const Lanes& lanes, double* d) {
  const int n = lanes.count();
  const auto dof = lanes.dofs(b, slot);
  auto gather = [&](int32_t cell) -> const double* {
    if constexpr (MayPoint) {
      if (b.field->layout() == fvm::Layout::CellMajor && lanes.contiguous(slot))
        return b.field->data().data() + b.field->flat_index(cell, static_cast<int32_t>(dof(0)));
    }
    for (int l = 0; l < n; ++l) d[l] = b.field->at(cell, static_cast<int32_t>(dof(l)));
    return d;
  };
  switch (b.source) {
    case Binding::Source::FieldSelf:
      return gather(lanes.ctx.cell);
    case Binding::Source::FieldNeighbor:
      if (lanes.ctx.neighbor >= 0) return gather(lanes.ctx.neighbor);
      if (lanes.ctx.ghost_field == b.field) {
        if constexpr (MayPoint) return lanes.ctx.ghost_value;
        for (int l = 0; l < n; ++l) d[l] = lanes.ghost(l);
        return d;
      }
      return gather(lanes.ctx.cell);  // zero-gradient fallback
    case Binding::Source::CoefIndexed:
      if constexpr (MayPoint) {
        if (lanes.contiguous(slot)) return b.coef + dof(0);
      }
      for (int l = 0; l < n; ++l) d[l] = b.coef[dof(l)];
      return d;
    case Binding::Source::Scalar:
      for (int l = 0; l < n; ++l) d[l] = b.scalar;
      return d;
  }
  return d;
}

// The one op switch: applies node `in` to lanes [0, count) of its operands'
// values a, b, c (null past the op's arity), writing d. Returns where the
// lanes' values are: d, or the row a MayPoint load reads in place.
template <bool MayPoint, class Lanes>
const double* apply(const Program& p, const Node& in, const Lanes& lanes, const double* a, const double* b,
                    const double* c, double* d) {
  const int n = lanes.count();
  auto fill = [&](double v) {
    for (int l = 0; l < n; ++l) d[l] = v;
  };
  auto unary = [&](auto f) {
    for (int l = 0; l < n; ++l) d[l] = f(a[l]);
  };
  auto binary = [&](auto f) {
    for (int l = 0; l < n; ++l) d[l] = f(a[l], b[l]);
  };
  auto compare = [&](auto f) { binary([f](double x, double y) { return f(x, y) ? 1.0 : 0.0; }); };
  switch (in.op) {
    case Op::Const: fill(in.imm); break;
    case Op::Load: return load<MayPoint>(p.bindings[static_cast<size_t>(in.slot)], in.slot, lanes, d);
    case Op::LoadNormal: fill(lanes.ctx.normal[static_cast<size_t>(in.slot)]); break;
    case Op::LoadDt: fill(lanes.ctx.dt); break;
    case Op::Add: binary([](double x, double y) { return x + y; }); break;
    case Op::Sub: binary([](double x, double y) { return x - y; }); break;
    case Op::Mul: binary([](double x, double y) { return x * y; }); break;
    case Op::Div: binary([](double x, double y) { return x / y; }); break;
    case Op::Neg: unary([](double x) { return -x; }); break;
    case Op::Pow: binary([](double x, double y) { return std::pow(x, y); }); break;
    case Op::CmpGT: compare([](double x, double y) { return x > y; }); break;
    case Op::CmpGE: compare([](double x, double y) { return x >= y; }); break;
    case Op::CmpLT: compare([](double x, double y) { return x < y; }); break;
    case Op::CmpLE: compare([](double x, double y) { return x <= y; }); break;
    case Op::CmpEQ: compare([](double x, double y) { return x == y; }); break;
    case Op::CmpNE: compare([](double x, double y) { return x != y; }); break;
    case Op::Select:
      for (int l = 0; l < n; ++l) d[l] = a[l] != 0.0 ? b[l] : c[l];
      break;
    case Op::MathExp: unary([](double x) { return std::exp(x); }); break;
    case Op::MathSqrt: unary([](double x) { return std::sqrt(x); }); break;
    case Op::MathAbs: unary([](double x) { return std::abs(x); }); break;
    case Op::MathSin: unary([](double x) { return std::sin(x); }); break;
    case Op::MathCos: unary([](double x) { return std::cos(x); }); break;
    case Op::MathLog: unary([](double x) { return std::log(x); }); break;
  }
  return d;
}

// Every node of the program, in order: the value of node i for lane l lives at
// vals[i * kWidth + l], and every node is applied to lanes [0, count) before
// the next one.
template <bool Guarded, class Lanes>
void run(const Program& p, const Lanes& lanes, double* vals, double* out, GuardReport* reports) {
  const int n = lanes.count();
  auto val = [vals](int32_t id) { return id < 0 ? nullptr : vals + static_cast<size_t>(id) * Lanes::kWidth; };
  for (size_t i = 0; i < p.nodes.size(); ++i) {
    const Node& in = p.nodes[i];
    double* d = val(static_cast<int32_t>(i));
    apply<false>(p, in, lanes, val(in.a), val(in.b), val(in.c), d);
    if constexpr (Guarded) {
      // Audit every intermediate so the report pinpoints the op that went bad
      // (a Div by zero, Pow of a negative base, Log of a corrupted field).
      for (int l = 0; l < n; ++l) {
        if (!std::isfinite(d[l]) && reports[l].first_instr < 0) {
          reports[l].first_instr = static_cast<int32_t>(i);
          reports[l].first_op = in.op;
          reports[l].first_cell = lanes.ctx.cell;
        }
      }
    }
  }
  const double* r = val(p.ret);
  for (int l = 0; l < n; ++l) {
    out[l] = r[l];
    if constexpr (Guarded) {
      reports[l].evals += 1;
      if (!std::isfinite(r[l])) reports[l].nonfinite_results += 1;
    }
  }
}

// Nodes `ids` of one evaluation point, for the lanes of `lanes`: node i reads
// its operands through at[], writes home(i), and at[i] then points at its
// values.
template <bool MayPoint, class Home>
void eval_nodes(const Program& p, const std::vector<int32_t>& ids, const BlockLanes& lanes, const double** at,
                Home home) {
  auto operand = [at](int32_t id) { return id < 0 ? nullptr : at[static_cast<size_t>(id)]; };
  for (const int32_t i : ids) {
    const Node& in = p.nodes[static_cast<size_t>(i)];
    at[i] = apply<MayPoint>(p, in, lanes, operand(in.a), operand(in.b), operand(in.c), home(i));
  }
}

// The same for a point evaluated once for all lanes: one lane, then its value
// broadcast across home(i)'s kLaneBlock lanes.
template <class Home>
void eval_broadcast(const Program& p, const std::vector<int32_t>& ids, LaneBlock blk, const LaneOffsets& offsets,
                    const double** at, Home home) {
  blk.first = 0;
  blk.count = 1;
  eval_nodes<false>(p, ids, BlockLanes{blk, offsets}, at, home);
  for (const int32_t i : ids) std::fill_n(home(i) + 1, kLaneBlock - 1, home(i)[0]);
}

// The op mix of the nodes `pick` selects; a Mul and the Add or Sub right
// after it that reads it are one FMA pair when both are picked.
template <class Pick>
Program::Stats mix(const Program& p, Pick pick) {
  Program::Stats s;
  for (size_t i = 0; i < p.nodes.size(); ++i) {
    if (!pick(i)) continue;
    const Node& in = p.nodes[i];
    switch (in.op) {
      case Op::Add: case Op::Sub: case Op::Mul: case Op::Div: case Op::Neg:
        ++s.flops;
        break;
      case Op::Pow: case Op::MathExp: case Op::MathSqrt: case Op::MathSin:
      case Op::MathCos: case Op::MathLog:
        s.flops += 8;  // multi-cycle special-function estimate
        break;
      case Op::CmpGT: case Op::CmpGE: case Op::CmpLT: case Op::CmpLE:
      case Op::CmpEQ: case Op::CmpNE:
        ++s.flops;
        break;
      case Op::MathAbs:
        ++s.flops;
        break;
      case Op::Select:
        ++s.branches;
        break;
      case Op::Load:
        ++s.loads;
        break;
      default:
        break;
    }
    if (in.op == Op::Mul && i + 1 < p.nodes.size() && pick(i + 1)) {
      const Node& nx = p.nodes[i + 1];
      const auto self = static_cast<int32_t>(i);
      if ((nx.op == Op::Add || nx.op == Op::Sub) && (nx.a == self || nx.b == self)) ++s.fma_pairs;
    }
  }
  return s;
}

template <bool Guarded>
double eval_one(const Program& p, const EvalContext& ctx, GuardReport* report) {
  // One value slot per node: small programs stay on the stack, larger ones
  // (no size cap) take a heap buffer.
  constexpr size_t kStackNodes = 256;
  double stack[kStackNodes];
  std::vector<double> heap(p.nodes.size() > kStackNodes ? p.nodes.size() : 0);
  double out;
  run<Guarded>(p, OneLane{ctx}, heap.empty() ? stack : heap.data(), &out, report);
  return out;
}

}  // namespace

double eval(const Program& p, const EvalContext& ctx) { return eval_one<false>(p, ctx, nullptr); }

double eval_guarded(const Program& p, const EvalContext& ctx, GuardReport& report) {
  return eval_one<true>(p, ctx, &report);
}

LaneOffsets::LaneOffsets(const Program& p, std::span<const std::array<int32_t, 4>> lane_loop_values)
    : lanes_(static_cast<int32_t>(lane_loop_values.size())),
      dof_(p.bindings.size() * lane_loop_values.size()),
      run_(dof_.size(), 1) {
  const size_t lanes = lane_loop_values.size();
  for (size_t s = 0; s < p.bindings.size(); ++s) {
    int32_t* dof = dof_.data() + s * lanes;
    int32_t* run = run_.data() + s * lanes;
    for (size_t l = 0; l < lanes; ++l) dof[l] = static_cast<int32_t>(p.bindings[s].dof(lane_loop_values[l]));
    for (size_t l = lanes; l-- > 1;)
      if (dof[l] == dof[l - 1] + 1) run[l - 1] = run[l] + 1;
  }
}

void eval_block(const Program& p, const LaneOffsets& offsets, const LaneBlock& block,
                double* vals, double* out) {
  run<false>(p, BlockLanes{block, offsets}, vals, out, nullptr);
}

void eval_block_guarded(const Program& p, const LaneOffsets& offsets, const LaneBlock& block,
                        double* vals, double* out, GuardReport* reports) {
  run<true>(p, BlockLanes{block, offsets}, vals, out, reports);
}

void VmWork::add(const Program::Stats& s, double times) {
  flops += s.flops * times;
  loads += s.loads * times;
  branches += s.branches * times;
  fma_pairs += s.fma_pairs * times;
}

PlacedProgram::PlacedProgram(const Program& p, const Placement& pl, const LaneOffsets& offsets, int32_t dir_extent)
    : home_(p.nodes.size()), lanes_(offsets.lanes()), dir_extent_(dir_extent) {
  std::vector<Point> point(p.nodes.size());
  for (size_t i = 0; i < p.nodes.size(); ++i) {
    point[i] = point_of(pl.scope[i], pl.deps[i]);
    std::vector<int32_t>& ids = ids_[static_cast<size_t>(point[i])];
    home_[i] = static_cast<int32_t>(ids.size());
    ids.push_back(static_cast<int32_t>(i));
  }
  for (int pt = 0; pt < kPoints; ++pt)
    stats_[static_cast<size_t>(pt)] = mix(p, [&](size_t i) { return point[i] == static_cast<Point>(pt); });
  sweep_.assign(ids_[static_cast<size_t>(Point::Sweep)].size() * kLaneBlock, 0.0);
  sweep_lane_.assign(ids_[static_cast<size_t>(Point::SweepLane)].size() * static_cast<size_t>(lanes_), 0.0);
}

void PlacedProgram::eval_sweep(const Program& p, const LaneOffsets& offsets, double dt) {
  std::vector<const double*> at(p.nodes.size(), nullptr);
  LaneBlock blk;
  blk.dt = dt;  // no cell, no face: the volume's normal reads 0, as in a volume block
  eval_broadcast(p, ids_[static_cast<size_t>(Point::Sweep)], blk, offsets, at.data(),
                 [&](int32_t i) { return sweep_.data() + static_cast<size_t>(home_[static_cast<size_t>(i)]) * kLaneBlock; });
  for (int32_t first = 0; first < lanes_; first += kLaneBlock) {
    blk.first = first;
    blk.count = std::min(kLaneBlock, lanes_ - first);
    eval_nodes<false>(p, ids_[static_cast<size_t>(Point::SweepLane)], BlockLanes{blk, offsets}, at.data(),
                      [&](int32_t i) {
                        return sweep_lane_.data() +
                               static_cast<size_t>(home_[static_cast<size_t>(i)]) * static_cast<size_t>(lanes_) +
                               static_cast<size_t>(first);
                      });
  }
}

void PlacedProgram::tally(VmWork& w, bool per_sweep, int64_t cells, int64_t faces) const {
  auto add = [&](Point pt, int64_t times) {
    w.add(stats_[static_cast<size_t>(pt)], static_cast<double>(times));
  };
  add(Point::Sweep, per_sweep ? 1 : 0);
  add(Point::SweepLane, per_sweep ? lanes_ : 0);
  add(Point::Cell, cells);
  add(Point::CellLane, cells * lanes_);
  add(Point::Face, faces);
  add(Point::FaceDir, faces * dir_extent_);
  add(Point::FaceLane, faces * lanes_);
}

PlacedFrame::PlacedFrame(const Program& p, const LaneOffsets& offsets, const PlacedProgram& pp, int32_t max_faces)
    : p_(p), offsets_(offsets), pp_(pp), at_(p.nodes.size(), nullptr),
      cell_(pp.ids_[static_cast<size_t>(Point::Cell)].size() * kLaneBlock),
      lane_((pp.ids_[static_cast<size_t>(Point::CellLane)].size() + pp.ids_[static_cast<size_t>(Point::FaceLane)].size()) *
            kLaneBlock),
      face_(static_cast<size_t>(max_faces) * pp.ids_[static_cast<size_t>(Point::Face)].size() * kLaneBlock),
      dir_len_(pp.dir_extent_ + kLaneBlock - 1) {
  dir_.resize(static_cast<size_t>(max_faces) * pp.ids_[static_cast<size_t>(Point::FaceDir)].size() *
              static_cast<size_t>(dir_len_));
  for (const int32_t i : ids(Point::Sweep)) at_[static_cast<size_t>(i)] = pp.sweep_.data() + home(i) * kLaneBlock;
}

double* PlacedFrame::face_home(int k, int32_t i) {
  return face_.data() + (static_cast<size_t>(k) * ids(Point::Face).size() + home(i)) * kLaneBlock;
}

double* PlacedFrame::dir_home(int k, int32_t i) {
  return dir_.data() + (static_cast<size_t>(k) * ids(Point::FaceDir).size() + home(i)) * static_cast<size_t>(dir_len_);
}

void PlacedFrame::eval_cell(int32_t cell, double dt) {
  LaneBlock blk;
  blk.cell = cell;
  blk.dt = dt;
  eval_broadcast(p_, ids(Point::Cell), blk, offsets_, at_.data(),
                 [&](int32_t i) { return cell_.data() + home(i) * kLaneBlock; });
}

void PlacedFrame::eval_face(int k, const LaneBlock& face) {
  eval_broadcast(p_, ids(Point::Face), face, offsets_, at_.data(), [&](int32_t i) { return face_home(k, i); });
  const int32_t ext = pp_.dir_extent_;
  LaneBlock blk = face;
  for (int32_t first = 0; first < ext; first += kLaneBlock) {
    blk.first = first;
    blk.count = std::min(kLaneBlock, ext - first);
    point_sweep_lanes(first);
    eval_nodes<false>(p_, ids(Point::FaceDir), BlockLanes{blk, offsets_}, at_.data(),
                      [&](int32_t i) { return dir_home(k, i) + first; });
  }
  // Lane d reads the value of its stride-1 index d % ext: repeated past ext,
  // the values of any block's lanes are consecutive.
  for (const int32_t i : ids(Point::FaceDir)) {
    double* v = dir_home(k, i);
    for (int32_t j = ext; j < dir_len_; ++j) v[j] = v[j - ext];
  }
}

const double* PlacedFrame::eval_cell_lanes(const LaneBlock& blk) {
  point_sweep_lanes(blk.first);
  return eval_lanes(Point::CellLane, blk);
}

const double* PlacedFrame::eval_face_lanes(int k, const LaneBlock& blk) {
  for (const int32_t i : ids(Point::Face)) at_[static_cast<size_t>(i)] = face_home(k, i);
  for (const int32_t i : ids(Point::FaceDir))
    at_[static_cast<size_t>(i)] = dir_home(k, i) + blk.first % pp_.dir_extent_;
  return eval_lanes(Point::FaceLane, blk);
}

const double* PlacedFrame::eval_lanes(Point pt, const LaneBlock& blk) {
  const size_t base = pt == Point::FaceLane ? ids(Point::CellLane).size() : 0;
  eval_nodes<true>(p_, ids(pt), BlockLanes{blk, offsets_}, at_.data(),
                   [&](int32_t i) { return lane_.data() + (base + home(i)) * kLaneBlock; });
  return at_[static_cast<size_t>(p_.ret)];
}

void PlacedFrame::point_sweep_lanes(int32_t first) {
  for (const int32_t i : ids(Point::SweepLane))
    at_[static_cast<size_t>(i)] =
        pp_.sweep_lane_.data() + home(i) * static_cast<size_t>(pp_.lanes_) + static_cast<size_t>(first);
}

void note_eval_batch(const VmWork& work, double seconds) {
  auto& mx = rt::MetricsRegistry::global();
  mx.counter("vm.evals").add(work.evals);
  mx.counter("vm.flops").add(work.flops);
  mx.counter("vm.loads").add(work.loads);
  mx.counter("vm.branches").add(work.branches);
  mx.counter("vm.fma_pairs").add(work.fma_pairs);
  if (seconds > 0.0) {
    mx.counter("vm.seconds").add(seconds);
    mx.histogram("vm.batch_seconds").observe(seconds);
    // Op-group time split, apportioned by the mix: the interpreter has no
    // per-instruction clock, so group seconds are the batch time weighted by
    // each group's share of executed ops.
    const double total_ops = work.flops + work.loads + work.branches;
    if (total_ops > 0.0) {
      mx.counter("vm.group.arithmetic_seconds").add(seconds * work.flops / total_ops);
      mx.counter("vm.group.memory_seconds").add(seconds * work.loads / total_ops);
      mx.counter("vm.group.control_seconds").add(seconds * work.branches / total_ops);
    }
  }
}

Program::Stats Program::analyze() const {
  return mix(*this, [](size_t) { return true; });
}

std::string disassemble(const Program& p) {
  std::ostringstream os;
  auto name = [](Op op) {
    switch (op) {
      case Op::Const: return "const";
      case Op::Load: return "load";
      case Op::LoadNormal: return "normal";
      case Op::LoadDt: return "dt";
      case Op::Add: return "add";
      case Op::Sub: return "sub";
      case Op::Mul: return "mul";
      case Op::Div: return "div";
      case Op::Neg: return "neg";
      case Op::Pow: return "pow";
      case Op::CmpGT: return "cmpgt";
      case Op::CmpGE: return "cmpge";
      case Op::CmpLT: return "cmplt";
      case Op::CmpLE: return "cmple";
      case Op::CmpEQ: return "cmpeq";
      case Op::CmpNE: return "cmpne";
      case Op::Select: return "select";
      case Op::MathExp: return "exp";
      case Op::MathSqrt: return "sqrt";
      case Op::MathAbs: return "abs";
      case Op::MathSin: return "sin";
      case Op::MathCos: return "cos";
      case Op::MathLog: return "log";
    }
    return "?";
  };
  for (size_t i = 0; i < p.nodes.size(); ++i) {
    const Node& in = p.nodes[i];
    os << "%" << i << " = " << name(in.op);
    for (int32_t operand : {in.a, in.b, in.c})
      if (operand >= 0) os << " %" << operand;
    if (in.op == Op::LoadNormal) os << " " << in.slot;
    if (in.op == Op::Load) os << "  ; " << p.bindings[static_cast<size_t>(in.slot)].debug_name;
    if (in.op == Op::Const) os << "  ; " << in.imm;
    os << "\n";
  }
  os << "ret %" << p.ret << "\n";
  return os.str();
}

}  // namespace finch::codegen
