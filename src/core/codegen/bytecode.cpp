#include "bytecode.hpp"

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

  int32_t emit_entity(const sym::EntityRefNode& r) {
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
};

template <class Lanes>
void load(const Binding& b, int32_t slot, const Lanes& lanes, double* d) {
  const int n = lanes.count();
  const auto dof = lanes.dofs(b, slot);
  auto gather = [&](int32_t cell) {
    for (int l = 0; l < n; ++l) d[l] = b.field->at(cell, static_cast<int32_t>(dof(l)));
  };
  switch (b.source) {
    case Binding::Source::FieldSelf:
      gather(lanes.ctx.cell);
      break;
    case Binding::Source::FieldNeighbor:
      if (lanes.ctx.neighbor >= 0) {
        gather(lanes.ctx.neighbor);
      } else if (lanes.ctx.ghost_field == b.field) {
        for (int l = 0; l < n; ++l) d[l] = lanes.ghost(l);
      } else {
        gather(lanes.ctx.cell);  // zero-gradient fallback
      }
      break;
    case Binding::Source::CoefIndexed:
      for (int l = 0; l < n; ++l) d[l] = b.coef[dof(l)];
      break;
    case Binding::Source::Scalar:
      for (int l = 0; l < n; ++l) d[l] = b.scalar;
      break;
  }
}

// The interpreter: the value of node i for lane l lives at vals[i * kWidth + l],
// and every node is applied to lanes [0, count) before the next one.
template <bool Guarded, class Lanes>
void run(const Program& p, const Lanes& lanes, double* vals, double* out, GuardReport* reports) {
  const int n = lanes.count();
  auto val = [vals](int32_t id) { return vals + static_cast<size_t>(id) * Lanes::kWidth; };
  for (size_t i = 0; i < p.nodes.size(); ++i) {
    const Node& in = p.nodes[i];
    double* d = val(static_cast<int32_t>(i));
    auto fill = [&](double v) {
      for (int l = 0; l < n; ++l) d[l] = v;
    };
    auto unary = [&](auto f) {
      const double* a = val(in.a);
      for (int l = 0; l < n; ++l) d[l] = f(a[l]);
    };
    auto binary = [&](auto f) {
      const double* a = val(in.a);
      const double* b = val(in.b);
      for (int l = 0; l < n; ++l) d[l] = f(a[l], b[l]);
    };
    auto compare = [&](auto f) { binary([f](double x, double y) { return f(x, y) ? 1.0 : 0.0; }); };
    switch (in.op) {
      case Op::Const: fill(in.imm); break;
      case Op::Load: load(p.bindings[static_cast<size_t>(in.slot)], in.slot, lanes, d); break;
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
      case Op::Select: {
        const double* a = val(in.a);
        const double* b = val(in.b);
        const double* c = val(in.c);
        for (int l = 0; l < n; ++l) d[l] = a[l] != 0.0 ? b[l] : c[l];
        break;
      }
      case Op::MathExp: unary([](double x) { return std::exp(x); }); break;
      case Op::MathSqrt: unary([](double x) { return std::sqrt(x); }); break;
      case Op::MathAbs: unary([](double x) { return std::abs(x); }); break;
      case Op::MathSin: unary([](double x) { return std::sin(x); }); break;
      case Op::MathCos: unary([](double x) { return std::cos(x); }); break;
      case Op::MathLog: unary([](double x) { return std::log(x); }); break;
    }
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
      dof_(p.bindings.size() * lane_loop_values.size()) {
  for (size_t s = 0; s < p.bindings.size(); ++s)
    for (size_t l = 0; l < lane_loop_values.size(); ++l)
      dof_[s * lane_loop_values.size() + l] = static_cast<int32_t>(p.bindings[s].dof(lane_loop_values[l]));
}

void eval_block(const Program& p, const LaneOffsets& offsets, const LaneBlock& block,
                double* vals, double* out) {
  run<false>(p, BlockLanes{block, offsets}, vals, out, nullptr);
}

void eval_block_guarded(const Program& p, const LaneOffsets& offsets, const LaneBlock& block,
                        double* vals, double* out, GuardReport* reports) {
  run<true>(p, BlockLanes{block, offsets}, vals, out, reports);
}

void note_eval_batch(const Program& volume, const Program* surface,
                     int64_t volume_evals, int64_t surface_evals, double seconds) {
  const Program::Stats vs = volume.analyze();
  const Program::Stats ss = surface != nullptr ? surface->analyze() : Program::Stats{};
  const double ve = static_cast<double>(volume_evals);
  const double se = surface != nullptr ? static_cast<double>(surface_evals) : 0.0;
  const double flops = vs.flops * ve + ss.flops * se;
  const double loads = vs.loads * ve + ss.loads * se;
  const double branches = vs.branches * ve + ss.branches * se;
  const double fma = vs.fma_pairs * ve + ss.fma_pairs * se;
  auto& mx = rt::MetricsRegistry::global();
  mx.counter("vm.evals").add(ve + se);
  mx.counter("vm.flops").add(flops);
  mx.counter("vm.loads").add(loads);
  mx.counter("vm.branches").add(branches);
  mx.counter("vm.fma_pairs").add(fma);
  if (seconds > 0.0) {
    mx.counter("vm.seconds").add(seconds);
    mx.histogram("vm.batch_seconds").observe(seconds);
    // Op-group time split, apportioned by the static mix: the interpreter has
    // no per-instruction clock, so group seconds are the batch time weighted
    // by each group's share of executed ops.
    const double total_ops = flops + loads + branches;
    if (total_ops > 0.0) {
      mx.counter("vm.group.arithmetic_seconds").add(seconds * flops / total_ops);
      mx.counter("vm.group.memory_seconds").add(seconds * loads / total_ops);
      mx.counter("vm.group.control_seconds").add(seconds * branches / total_ops);
    }
  }
}

Program::Stats Program::analyze() const {
  Stats s;
  // FMA detection: a Mul feeding the node right after it, an Add or Sub.
  for (size_t i = 0; i < nodes.size(); ++i) {
    const Node& in = nodes[i];
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
    if (in.op == Op::Mul && i + 1 < nodes.size()) {
      const Node& nx = nodes[i + 1];
      const auto self = static_cast<int32_t>(i);
      if ((nx.op == Op::Add || nx.op == Op::Sub) && (nx.a == self || nx.b == self)) ++s.fma_pairs;
    }
  }
  return s;
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
