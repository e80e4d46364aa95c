// Property test: the bytecode compiler+interpreter must agree with a direct
// tree-walking evaluation of the symbolic expression, for randomly generated
// expressions over the full node grammar (seeded, deterministic).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <tuple>
#include <vector>

#include "core/codegen/bytecode.hpp"
#include "core/symbolic/printer.hpp"
#include "core/symbolic/simplify.hpp"

using namespace finch;
using codegen::EvalContext;

namespace {

struct Env {
  sym::EntityTable table;
  fvm::FieldSet fields;
  std::map<std::string, std::vector<double>> coefs;
  std::map<std::string, double> scalars;
  codegen::CompileEnv cenv;

  explicit Env(fvm::Layout layout = fvm::Layout::CellMajor) {
    table.declare_index("d", 1, 3);
    table.declare_index("b", 1, 2);
    table.declare({"I", sym::EntityKind::Variable, 1, {"d", "b"}});
    table.declare({"u", sym::EntityKind::Variable, 1, {}});
    table.declare({"Sx", sym::EntityKind::Coefficient, 1, {"d"}});
    table.declare({"k", sym::EntityKind::Coefficient, 1, {}});
    fields.add("I", 4, 6, layout);
    fields.add("u", 4, 1, layout);
    for (int32_t c = 0; c < 4; ++c) {
      fields.get("u").at(c, 0) = 0.5 + c;
      for (int32_t dof = 0; dof < 6; ++dof) fields.get("I").at(c, dof) = 0.1 * (c + 1) * (dof + 1);
    }
    coefs["Sx"] = {0.3, -0.6, 0.9};
    scalars["k"] = 1.75;
    cenv.table = &table;
    cenv.index_order = {"b", "d"};
    cenv.index_extent = {2, 3};
    cenv.fields = &fields;
    cenv.coefficients = &coefs;
    cenv.scalar_coefficients = &scalars;
  }
};

// Reference evaluator: straight recursion over the tree.
double ref_eval(const sym::Expr& e, const Env& env, const EvalContext& ctx) {
  switch (e->kind()) {
    case sym::Kind::Number:
      return sym::as<sym::NumberNode>(e)->value;
    case sym::Kind::Symbol: {
      const std::string& n = sym::as<sym::SymbolNode>(e)->name;
      if (n == "dt") return ctx.dt;
      if (n == "NORMAL_1") return ctx.normal[0];
      if (n == "NORMAL_2") return ctx.normal[1];
      throw std::logic_error("ref_eval: unexpected symbol " + n);
    }
    case sym::Kind::EntityRef: {
      const auto* r = sym::as<sym::EntityRefNode>(e);
      if (r->name == "k") return env.scalars.at("k");
      // Resolve indices (b slot 0, d slot 1).
      auto idx_value = [&](const sym::Expr& ie) {
        const auto* s = sym::as<sym::SymbolNode>(ie);
        return s->name == "b" ? ctx.loop_values[0] : ctx.loop_values[1];
      };
      if (r->name == "Sx") return env.coefs.at("Sx")[static_cast<size_t>(idx_value(r->indices[0]))];
      const int32_t cell = r->side == sym::CellSide::Cell2 && ctx.neighbor >= 0 ? ctx.neighbor : ctx.cell;
      if (r->name == "u") return env.fields.get("u").at(cell, 0);
      const int32_t d = idx_value(r->indices[0]);
      const int32_t b = idx_value(r->indices[1]);
      return env.fields.get("I").at(cell, d + 3 * b);
    }
    case sym::Kind::Add: {
      double s = 0;
      for (const auto& t : sym::as<sym::AddNode>(e)->terms) s += ref_eval(t, env, ctx);
      return s;
    }
    case sym::Kind::Mul: {
      double s = 1;
      for (const auto& f : sym::as<sym::MulNode>(e)->factors) {
        if (const auto* p = sym::as<sym::PowNode>(f); p != nullptr && sym::is_number(p->expo, -1.0)) {
          s /= ref_eval(p->base, env, ctx);
          continue;
        }
        s *= ref_eval(f, env, ctx);
      }
      return s;
    }
    case sym::Kind::Pow: {
      const auto* p = sym::as<sym::PowNode>(e);
      if (sym::is_number(p->expo, 2.0)) {
        const double b = ref_eval(p->base, env, ctx);
        return b * b;
      }
      if (sym::is_number(p->expo, -1.0)) return 1.0 / ref_eval(p->base, env, ctx);
      return std::pow(ref_eval(p->base, env, ctx), ref_eval(p->expo, env, ctx));
    }
    case sym::Kind::Compare: {
      const auto* c = sym::as<sym::CompareNode>(e);
      const double l = ref_eval(c->lhs, env, ctx), r = ref_eval(c->rhs, env, ctx);
      switch (c->op) {
        case sym::CmpOp::GT: return l > r;
        case sym::CmpOp::GE: return l >= r;
        case sym::CmpOp::LT: return l < r;
        case sym::CmpOp::LE: return l <= r;
        case sym::CmpOp::EQ: return l == r;
        case sym::CmpOp::NE: return l != r;
      }
      return 0;
    }
    case sym::Kind::Call: {
      const auto* c = sym::as<sym::CallNode>(e);
      if (c->func == "conditional")
        return ref_eval(c->args[0], env, ctx) != 0.0 ? ref_eval(c->args[1], env, ctx)
                                                     : ref_eval(c->args[2], env, ctx);
      if (c->func == "exp") return std::exp(ref_eval(c->args[0], env, ctx));
      if (c->func == "abs") return std::abs(ref_eval(c->args[0], env, ctx));
      throw std::logic_error("ref_eval: unexpected call " + c->func);
    }
    default:
      throw std::logic_error("ref_eval: unexpected node");
  }
}

// Random expression generator over the supported grammar. Now and then it
// reuses one of its recent compound subtrees, so the compiler must merge whole
// repeated subtrees (not just repeated leaves) without changing a value.
class Gen {
 public:
  // `neighbor_field_loads` also draws the CELL2 side for I[d,b] leaves.
  explicit Gen(uint32_t seed, bool neighbor_field_loads = false)
      : rng_(seed), neighbor_field_loads_(neighbor_field_loads) {}

  sym::Expr expr(int depth) {
    if (depth <= 0) return leaf();
    if (!recent_.empty() && rng_() % 5 == 0) return recent_[rng_() % recent_.size()];
    sym::Expr e = compound(depth);
    recent_.push_back(e);
    if (recent_.size() > 8) recent_.erase(recent_.begin());
    return e;
  }

 private:
  sym::Expr compound(int depth) {
    switch (rng_() % 7) {
      case 0: case 1: {
        std::vector<sym::Expr> t;
        const int n = 2 + static_cast<int>(rng_() % 2);
        for (int i = 0; i < n; ++i) t.push_back(expr(depth - 1));
        return sym::add(std::move(t));
      }
      case 2: case 3: {
        std::vector<sym::Expr> f;
        const int n = 2 + static_cast<int>(rng_() % 2);
        for (int i = 0; i < n; ++i) f.push_back(expr(depth - 1));
        return sym::mul(std::move(f));
      }
      case 4:
        return sym::pow(expr(depth - 1), sym::num(2.0));
      case 5:
        return sym::conditional(sym::compare(sym::CmpOp::GT, expr(depth - 1), sym::num(0.0)),
                                expr(depth - 1), expr(depth - 1));
      default:
        return sym::call(rng_() % 2 == 0 ? "exp" : "abs", {scaled_leaf()});
    }
  }

  sym::Expr scaled_leaf() {
    // keep exp() arguments small
    return sym::mul({sym::num(0.1), leaf()});
  }

  sym::Expr leaf() {
    switch (rng_() % 6) {
      case 0: return sym::num(static_cast<double>(rng_() % 19) / 3.0 - 3.0);
      case 1: return sym::sym("dt");
      case 2: return sym::sym(rng_() % 2 == 0 ? "NORMAL_1" : "NORMAL_2");
      case 3: return sym::entity("u", sym::EntityKind::Variable, 1, {},
                                 rng_() % 2 == 0 ? sym::CellSide::Self : sym::CellSide::Cell2);
      case 4: {
        const sym::CellSide side = neighbor_field_loads_ && rng_() % 2 == 0 ? sym::CellSide::Cell2
                                                                            : sym::CellSide::Self;
        return sym::entity("I", sym::EntityKind::Variable, 1, {sym::sym("d"), sym::sym("b")}, side);
      }
      default: return sym::entity("Sx", sym::EntityKind::Coefficient, 1, {sym::sym("d")});
    }
  }

  std::mt19937 rng_;
  bool neighbor_field_loads_;
  std::vector<sym::Expr> recent_;  // the last few compound subtrees drawn
};

}  // namespace

class BytecodeFuzz : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BytecodeFuzz, CompiledMatchesReference) {
  Env env;
  Gen gen(GetParam());
  for (int round = 0; round < 60; ++round) {
    sym::Expr raw = gen.expr(3);
    sym::Expr e = sym::simplify(raw);
    codegen::Program prog = codegen::compile(e, env.cenv);
    // Also verify expansion preserves semantics.
    sym::Expr ex = sym::expand(raw);
    codegen::Program prog_ex = codegen::compile(ex, env.cenv);
    for (int trial = 0; trial < 4; ++trial) {
      EvalContext ctx;
      ctx.cell = trial % 4;
      ctx.neighbor = (trial + 1) % 4;
      ctx.dt = 0.25 * (trial + 1);
      ctx.normal = {trial % 2 ? 1.0 : -0.5, trial % 3 ? 0.5 : -1.0, 0.0};
      ctx.loop_values = {trial % 2, trial % 3, 0, 0};
      const double want = ref_eval(e, env, ctx);
      const double got = codegen::eval(prog, ctx);
      const double got_ex = codegen::eval(prog_ex, ctx);
      if (std::isfinite(want)) {
        EXPECT_NEAR(got, want, 1e-9 * (1.0 + std::abs(want)))
            << "expr: " << sym::to_string(e) << " trial " << trial;
        EXPECT_NEAR(got_ex, want, 1e-6 * (1.0 + std::abs(want)))
            << "expanded expr: " << sym::to_string(ex);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BytecodeFuzz, ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 42u));

// ---- non-finite guard ----------------------------------------------------
// Degenerate operands (division by zero, pow of a negative base, log of a
// non-positive argument) must evaluate without crashing, and eval_guarded()
// must report the resulting NaN/Inf instead of letting it pass silently.

TEST(BytecodeGuard, DivisionByZeroIsReported) {
  Env env;
  // 1 / dt with dt == 0: compiles to a Div, evaluates to +Inf.
  sym::Expr e = sym::mul({sym::num(1.0), sym::pow(sym::sym("dt"), sym::num(-1.0))});
  codegen::Program prog = codegen::compile(e, env.cenv);
  EvalContext ctx;
  ctx.dt = 0.0;
  const double plain = codegen::eval(prog, ctx);
  EXPECT_TRUE(std::isinf(plain));
  codegen::GuardReport report;
  const double guarded = codegen::eval_guarded(prog, ctx, report);
  EXPECT_TRUE(std::isinf(guarded));
  EXPECT_EQ(report.evals, 1);
  EXPECT_EQ(report.nonfinite_results, 1);
  EXPECT_GE(report.first_instr, 0);
  EXPECT_EQ(report.first_op, codegen::Op::Div);
  EXPECT_FALSE(report.clean());
}

TEST(BytecodeGuard, PowNegativeBaseIsReported) {
  Env env;
  // NORMAL_1 ^ 0.5 with a negative normal component -> NaN.
  sym::Expr e = sym::pow(sym::sym("NORMAL_1"), sym::num(0.5));
  codegen::Program prog = codegen::compile(e, env.cenv);
  EvalContext ctx;
  ctx.normal = {-1.0, 0.0, 0.0};
  EXPECT_TRUE(std::isnan(codegen::eval(prog, ctx)));
  codegen::GuardReport report;
  EXPECT_TRUE(std::isnan(codegen::eval_guarded(prog, ctx, report)));
  EXPECT_EQ(report.nonfinite_results, 1);
  EXPECT_EQ(report.first_op, codegen::Op::Pow);
}

TEST(BytecodeGuard, LogOfZeroAndNegativeIsReported) {
  Env env;
  sym::Expr e = sym::call("log", {sym::sym("dt")});
  codegen::Program prog = codegen::compile(e, env.cenv);
  codegen::GuardReport report;
  EvalContext ctx;
  ctx.dt = 0.0;  // log(0) -> -Inf
  EXPECT_TRUE(std::isinf(codegen::eval_guarded(prog, ctx, report)));
  ctx.dt = -2.0;  // log(<0) -> NaN
  EXPECT_TRUE(std::isnan(codegen::eval_guarded(prog, ctx, report)));
  EXPECT_EQ(report.evals, 2);
  EXPECT_EQ(report.nonfinite_results, 2);
  EXPECT_EQ(report.first_op, codegen::Op::MathLog);
  EXPECT_FALSE(report.clean());
}

TEST(BytecodeGuard, CleanExpressionReportsClean) {
  Env env;
  sym::Expr e = sym::mul({sym::num(2.0), sym::sym("dt")});
  codegen::Program prog = codegen::compile(e, env.cenv);
  EvalContext ctx;
  ctx.dt = 0.5;
  codegen::GuardReport report;
  EXPECT_DOUBLE_EQ(codegen::eval_guarded(prog, ctx, report), 1.0);
  EXPECT_EQ(report.evals, 1);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.first_instr, -1);
}

TEST(BytecodeGuard, GuardedMatchesUnguardedOnFuzzedExpressions) {
  Env env;
  Gen gen(1234u);
  codegen::GuardReport report;
  for (int round = 0; round < 40; ++round) {
    sym::Expr e = sym::simplify(gen.expr(3));
    codegen::Program prog = codegen::compile(e, env.cenv);
    EvalContext ctx;
    ctx.cell = round % 4;
    ctx.neighbor = (round + 1) % 4;
    ctx.dt = 0.25 * (round % 5);
    ctx.normal = {round % 2 ? 1.0 : -0.5, 0.5, 0.0};
    ctx.loop_values = {round % 2, round % 3, 0, 0};
    const double plain = codegen::eval(prog, ctx);
    const double guarded = codegen::eval_guarded(prog, ctx, report);
    if (std::isfinite(plain))
      EXPECT_DOUBLE_EQ(guarded, plain);
    else
      EXPECT_FALSE(std::isfinite(guarded));
  }
  EXPECT_EQ(report.evals, 40);
}

// ---- lane blocks ------------------------------------------------------------
// eval_block() must reproduce the one-lane eval() bit for bit on every lane:
// for lane counts that leave a partial block (1, 3), fill one exactly
// (kLaneBlock) or spill into a second (kLaneBlock + 1); under both field
// layouts; for interior-neighbor, value-BC ghost and zero-gradient loads; and
// with NaN/Inf among the field and ghost inputs. The guarded form must also
// match eval_guarded()'s per-evaluation report.

namespace {

// Bitwise equality, except that any two NaNs match: when both operands of an
// add or multiply are NaN, IEEE 754 leaves open which one the result carries,
// and the compiler may commute the operands differently in the vectorized
// lane loop than in the one-lane code (seen as +nan vs -nan at -O2).
bool same_bits(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

class LaneBlockFuzz : public ::testing::TestWithParam<std::tuple<int, fvm::Layout>> {};

TEST_P(LaneBlockFuzz, BlocksMatchOneLaneEvalBitwise) {
  const auto [lanes, layout] = GetParam();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Env env(layout);
  env.fields.get("I").at(1, 4) = nan;
  env.fields.get("I").at(2, 1) = inf;
  env.fields.get("u").at(2, 0) = -inf;
  std::mt19937 rng(static_cast<uint32_t>(lanes));
  std::vector<std::array<int32_t, 4>> lane_loops(static_cast<size_t>(lanes));
  std::vector<double> ghost(static_cast<size_t>(lanes));
  for (int l = 0; l < lanes; ++l) {
    // Slot 0 is b (extent 2), slot 1 is d (extent 3): see Env::cenv.
    lane_loops[static_cast<size_t>(l)] = {static_cast<int32_t>(rng() % 2),
                                          static_cast<int32_t>(rng() % 3), 0, 0};
    ghost[static_cast<size_t>(l)] = l % 7 == 3 ? nan : l % 7 == 5 ? -inf : 0.25 * l - 2.0;
  }
  struct Face {
    int32_t cell, neighbor;
    const fvm::CellField* ghost_field;
  };
  const Face faces[] = {
      {1, 2, nullptr},                    // interior: neighbor loads read cell 2
      {1, -1, &env.fields.get("I")},      // value BC on I: I's neighbor loads read the ghost
      {2, -1, &env.fields.get("u")},      // value BC on u; I falls back to zero gradient
      {2, -1, nullptr},                   // no ghost: every neighbor load is zero-gradient
  };
  Gen gen(1000u + static_cast<uint32_t>(lanes), /*neighbor_field_loads=*/true);
  for (int round = 0; round < 40; ++round) {
    const codegen::Program prog = codegen::compile(sym::simplify(gen.expr(3)), env.cenv);
    const codegen::LaneOffsets offsets(prog, lane_loops);
    std::vector<double> vals(prog.nodes.size() * codegen::kLaneBlock);
    for (const Face& f : faces) {
      for (int first = 0; first < lanes; first += codegen::kLaneBlock) {
        codegen::LaneBlock blk;
        blk.cell = f.cell;
        blk.neighbor = f.neighbor;
        blk.normal = {0.6, -0.8, 0.0};
        blk.dt = 0.3;
        blk.ghost_field = f.ghost_field;
        blk.ghost_value = ghost.data() + first;
        blk.first = first;
        blk.count = std::min(codegen::kLaneBlock, lanes - first);
        std::array<double, codegen::kLaneBlock> out{}, guarded{};
        std::array<codegen::GuardReport, codegen::kLaneBlock> reports{};
        codegen::eval_block(prog, offsets, blk, vals.data(), out.data());
        codegen::eval_block_guarded(prog, offsets, blk, vals.data(), guarded.data(), reports.data());
        for (int l = 0; l < blk.count; ++l) {
          const auto lane = static_cast<size_t>(first + l);
          EvalContext ctx;
          ctx.cell = blk.cell;
          ctx.neighbor = blk.neighbor;
          ctx.normal = blk.normal;
          ctx.dt = blk.dt;
          ctx.loop_values = lane_loops[lane];
          ctx.ghost_field = blk.ghost_field;
          ctx.ghost_value = ghost[lane];
          codegen::GuardReport want;
          const double plain = codegen::eval(prog, ctx);
          const double audited = codegen::eval_guarded(prog, ctx, want);
          const codegen::GuardReport& got = reports[static_cast<size_t>(l)];
          SCOPED_TRACE(::testing::Message() << "round " << round << ", lane " << lane << ", cell "
                                            << f.cell << ", neighbor " << f.neighbor);
          EXPECT_TRUE(same_bits(out[static_cast<size_t>(l)], plain))
              << out[static_cast<size_t>(l)] << " vs " << plain;
          EXPECT_TRUE(same_bits(guarded[static_cast<size_t>(l)], audited))
              << guarded[static_cast<size_t>(l)] << " vs " << audited;
          EXPECT_EQ(got.evals, want.evals);
          EXPECT_EQ(got.nonfinite_results, want.nonfinite_results);
          EXPECT_EQ(got.first_instr, want.first_instr);
          EXPECT_EQ(got.first_op, want.first_op);
          EXPECT_EQ(got.first_cell, want.first_cell);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    LaneCounts, LaneBlockFuzz,
    ::testing::Combine(::testing::Values(1, 3, codegen::kLaneBlock, codegen::kLaneBlock + 1),
                       ::testing::Values(fvm::Layout::CellMajor, fvm::Layout::DofMajor)),
    [](const ::testing::TestParamInfo<std::tuple<int, fvm::Layout>>& info) {
      return std::to_string(std::get<0>(info.param)) + "Lanes" +
             (std::get<1>(info.param) == fvm::Layout::CellMajor ? "CellMajor" : "DofMajor");
    });

// ---- program size -----------------------------------------------------------
// Nothing caps a program's size. A sum of 400 distinct products lowers to more
// than 1,000 nodes; it must match the tree-walking reference one lane at a
// time, and lane blocks must match the one-lane eval bit for bit.

TEST(BytecodeSize, SumOfFourHundredProductsMatchesReference) {
  Env env;
  std::vector<sym::Expr> terms;
  for (int i = 0; i < 400; ++i) {
    const sym::CellSide side = i % 2 == 0 ? sym::CellSide::Self : sym::CellSide::Cell2;
    terms.push_back(sym::mul(
        {sym::num(0.01 * (i + 1)),
         sym::entity("I", sym::EntityKind::Variable, 1, {sym::sym("d"), sym::sym("b")}, side),
         sym::entity("Sx", sym::EntityKind::Coefficient, 1, {sym::sym("d")})}));
  }
  const sym::Expr e = sym::add(std::move(terms));
  const codegen::Program prog = codegen::compile(e, env.cenv);
  ASSERT_GT(prog.nodes.size(), 1000u);

  const int lanes = codegen::kLaneBlock + 1;
  std::vector<std::array<int32_t, 4>> lane_loops(static_cast<size_t>(lanes));
  for (int l = 0; l < lanes; ++l) lane_loops[static_cast<size_t>(l)] = {l % 2, l % 3, 0, 0};
  const codegen::LaneOffsets offsets(prog, lane_loops);
  std::vector<double> vals(prog.nodes.size() * codegen::kLaneBlock);
  for (int first = 0; first < lanes; first += codegen::kLaneBlock) {
    codegen::LaneBlock blk;
    blk.cell = 1;
    blk.neighbor = 2;
    blk.dt = 0.3;
    blk.first = first;
    blk.count = std::min(codegen::kLaneBlock, lanes - first);
    std::array<double, codegen::kLaneBlock> out{};
    codegen::eval_block(prog, offsets, blk, vals.data(), out.data());
    for (int l = 0; l < blk.count; ++l) {
      EvalContext ctx;
      ctx.cell = blk.cell;
      ctx.neighbor = blk.neighbor;
      ctx.dt = blk.dt;
      ctx.loop_values = lane_loops[static_cast<size_t>(first + l)];
      const double want = ref_eval(e, env, ctx);
      const double one = codegen::eval(prog, ctx);
      codegen::GuardReport report;
      EXPECT_NEAR(one, want, 1e-12 * (1.0 + std::abs(want))) << "lane " << first + l;
      EXPECT_TRUE(same_bits(out[static_cast<size_t>(l)], one)) << "lane " << first + l;
      EXPECT_TRUE(same_bits(codegen::eval_guarded(prog, ctx, report), one)) << "lane " << first + l;
      EXPECT_TRUE(report.clean());
    }
  }
}
