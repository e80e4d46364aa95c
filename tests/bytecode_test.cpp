// Bytecode compiler/interpreter: lowering of each node kind, binding
// resolution (self/neighbor/ghost), index addressing, and static analysis.
#include <gtest/gtest.h>

#include "core/codegen/bytecode.hpp"
#include "core/symbolic/parser.hpp"
#include "core/symbolic/simplify.hpp"

using namespace finch;
using codegen::CompileEnv;
using codegen::EvalContext;
using codegen::Program;

namespace {

struct Fixture {
  sym::EntityTable table;
  fvm::FieldSet fields;
  std::map<std::string, std::vector<double>> coefs;
  std::map<std::string, double> scalars;
  CompileEnv env;

  Fixture() {
    table.declare_index("d", 1, 4);
    table.declare_index("b", 1, 3);
    table.declare({"I", sym::EntityKind::Variable, 1, {"d", "b"}});
    table.declare({"Io", sym::EntityKind::Variable, 1, {"b"}});
    table.declare({"u", sym::EntityKind::Variable, 1, {}});
    table.declare({"Sx", sym::EntityKind::Coefficient, 1, {"d"}});
    table.declare({"k", sym::EntityKind::Coefficient, 1, {}});

    fields.add("I", 5, 12);
    fields.add("Io", 5, 3);
    fields.add("u", 5, 1);
    for (int32_t c = 0; c < 5; ++c) {
      for (int32_t dof = 0; dof < 12; ++dof) fields.get("I").at(c, dof) = 100.0 * c + dof;
      for (int32_t dof = 0; dof < 3; ++dof) fields.get("Io").at(c, dof) = 1000.0 * c + dof;
      fields.get("u").at(c, 0) = 7.0 + c;
    }
    coefs["Sx"] = {0.1, 0.2, 0.3, 0.4};
    scalars["k"] = 2.5;

    env.table = &table;
    env.index_order = {"b", "d"};  // alphabetical, matching the solvers
    env.index_extent = {3, 4};
    env.fields = &fields;
    env.coefficients = &coefs;
    env.scalar_coefficients = &scalars;
  }

  double run(const std::string& expr_str, EvalContext ctx) {
    sym::Expr e = sym::simplify(sym::parse_expression(expr_str, table));
    Program p = codegen::compile(e, env);
    return codegen::eval(p, ctx);
  }
};

}  // namespace

TEST(Bytecode, ArithmeticAndDt) {
  Fixture f;
  EvalContext ctx;
  ctx.dt = 0.5;
  EXPECT_DOUBLE_EQ(f.run("1 + 2*3", ctx), 7.0);
  EXPECT_DOUBLE_EQ(f.run("dt * 4", ctx), 2.0);
  EXPECT_DOUBLE_EQ(f.run("10 / 4", ctx), 2.5);
  EXPECT_DOUBLE_EQ(f.run("2 ^ 10", ctx), 1024.0);
}

TEST(Bytecode, ScalarCoefficientAndField) {
  Fixture f;
  EvalContext ctx;
  ctx.cell = 2;
  EXPECT_DOUBLE_EQ(f.run("k * u", ctx), 2.5 * 9.0);
}

TEST(Bytecode, IndexedFieldAddressing) {
  Fixture f;
  EvalContext ctx;
  ctx.cell = 1;
  // loop slots: b=0, d=1. I[d,b] dof = d + 4*b.
  ctx.loop_values = {2, 3, 0, 0};  // b=2, d=3 -> dof 11
  EXPECT_DOUBLE_EQ(f.run("I[d,b]", ctx), 111.0);
  EXPECT_DOUBLE_EQ(f.run("Io[b]", ctx), 1002.0);
}

TEST(Bytecode, IndexedCoefficient) {
  Fixture f;
  EvalContext ctx;
  ctx.loop_values = {0, 2, 0, 0};  // d=2
  EXPECT_DOUBLE_EQ(f.run("Sx[d]", ctx), 0.3);
}

TEST(Bytecode, NeighborLoadAndGhost) {
  Fixture f;
  f.table.declare({"w", sym::EntityKind::Variable, 1, {}});  // not used; keep table realistic
  sym::Expr e = sym::entity("u", sym::EntityKind::Variable, 1, {}, sym::CellSide::Cell2);
  Program p = codegen::compile(e, f.env);
  EvalContext ctx;
  ctx.cell = 0;
  ctx.neighbor = 3;
  EXPECT_DOUBLE_EQ(codegen::eval(p, ctx), 10.0);  // u[3]
  // Boundary: ghost injection for the matching field.
  ctx.neighbor = -1;
  ctx.ghost_field = &f.fields.get("u");
  ctx.ghost_value = -42.0;
  EXPECT_DOUBLE_EQ(codegen::eval(p, ctx), -42.0);
  // Boundary without ghost: falls back to self.
  ctx.ghost_field = nullptr;
  EXPECT_DOUBLE_EQ(codegen::eval(p, ctx), 7.0);
}

TEST(Bytecode, NormalComponents) {
  Fixture f;
  sym::Expr e = sym::add({sym::mul({sym::num(2.0), sym::sym("NORMAL_1")}), sym::sym("NORMAL_2")});
  Program p = codegen::compile(e, f.env);
  EvalContext ctx;
  ctx.normal = {0.5, -1.0, 0.0};
  EXPECT_DOUBLE_EQ(codegen::eval(p, ctx), 0.0);
}

TEST(Bytecode, ConditionalSelect) {
  Fixture f;
  EvalContext ctx;
  EXPECT_DOUBLE_EQ(f.run("conditional(3 > 2, 10, 20)", ctx), 10.0);
  EXPECT_DOUBLE_EQ(f.run("conditional(1 > 2, 10, 20)", ctx), 20.0);
  EXPECT_DOUBLE_EQ(f.run("conditional(2 >= 2, 1, 0)", ctx), 1.0);
  EXPECT_DOUBLE_EQ(f.run("conditional(2 != 2, 1, 0)", ctx), 0.0);
}

// Value numbering keys a node on its op and every operand: nodes that differ
// only in a select's else branch, in operand order, or in a Const's bits must
// stay distinct nodes.
TEST(Bytecode, NodesDifferingInOneOperandStayDistinct) {
  Fixture f;
  EvalContext ctx;
  ctx.cell = 1;                    // u = 8
  ctx.loop_values = {0, 2, 0, 0};  // d = 2: Sx = 0.3
  EXPECT_DOUBLE_EQ(f.run("conditional(0 > u, k, u) + conditional(0 > u, k, Sx[d])", ctx), 8.3);
  EXPECT_DOUBLE_EQ(f.run("(u - k) * 10 + (k - u)", ctx), 49.5);
  EXPECT_DOUBLE_EQ(f.run("u * 0.5 + u * 0.25", ctx), 6.0);
}

TEST(Bytecode, MathBuiltins) {
  Fixture f;
  EvalContext ctx;
  EXPECT_NEAR(f.run("exp(1)", ctx), 2.718281828, 1e-8);
  EXPECT_DOUBLE_EQ(f.run("sqrt(16)", ctx), 4.0);
  EXPECT_DOUBLE_EQ(f.run("abs(0 - 3)", ctx), 3.0);
}

TEST(Bytecode, ErrorsOnMarkersAndUnknowns) {
  Fixture f;
  EvalContext ctx;
  EXPECT_THROW(f.run("SURFACE * u", ctx), codegen::CompileError);
  EXPECT_THROW(f.run("mystery_symbol + 1", ctx), codegen::CompileError);
  EXPECT_THROW(f.run("mystery_call(u)", ctx), codegen::CompileError);
}

TEST(Bytecode, AnalyzeCountsFlopsAndLoads) {
  Fixture f;
  sym::Expr e = sym::simplify(sym::parse_expression("k*u + Io[b]*2", f.table));
  Program p = codegen::compile(e, f.env);
  auto stats = p.analyze();
  EXPECT_EQ(stats.loads, 3);          // k, u, Io
  EXPECT_GE(stats.flops, 3);          // two muls + one add
  EXPECT_GE(stats.fma_pairs, 1);      // mul feeding add
}

TEST(Bytecode, DisassembleMentionsBindings) {
  Fixture f;
  sym::Expr e = sym::simplify(sym::parse_expression("k * u", f.table));
  Program p = codegen::compile(e, f.env);
  std::string d = codegen::disassemble(p);
  EXPECT_NE(d.find("load"), std::string::npos);
  EXPECT_NE(d.find("; k"), std::string::npos);
  EXPECT_NE(d.find("; u"), std::string::npos);
  EXPECT_NE(d.find("ret"), std::string::npos);
}

TEST(Bytecode, SquareLowersToMul) {
  Fixture f;
  EvalContext ctx;
  ctx.cell = 1;
  EXPECT_DOUBLE_EQ(f.run("u ^ 2", ctx), 64.0);
}
