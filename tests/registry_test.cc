#include "src/op/registry.h"

#include <gtest/gtest.h>

#include "src/algebra/builders.h"
#include "src/compose/eliminate.h"
#include "src/compose/monotone.h"
#include "src/eval/evaluator.h"
#include "src/op/extra_ops.h"
#include "tests/oracles/instance_api.h"

namespace mapcomp {
namespace {

Tuple T(std::initializer_list<int64_t> vals) {
  Tuple t;
  for (int64_t v : vals) t.push_back(Value(v));
  return t;
}

TEST(RegistryTest, DefaultHasExtensionOps) {
  const op::Registry& reg = op::Registry::Default();
  EXPECT_NE(reg.Find("lojoin"), nullptr);
  EXPECT_NE(reg.Find("semijoin"), nullptr);
  EXPECT_NE(reg.Find("antijoin"), nullptr);
  EXPECT_NE(reg.Find("tc"), nullptr);
  EXPECT_EQ(reg.Find("nonsense"), nullptr);
}

TEST(RegistryTest, MakeOpValidatesArguments) {
  const op::Registry& reg = op::Registry::Default();
  EXPECT_FALSE(reg.MakeOp("nope", {Rel("R", 1)}).ok());
  EXPECT_FALSE(reg.MakeOp("semijoin", {Rel("R", 1)}).ok());  // needs 2 args
  EXPECT_FALSE(reg.MakeOp("tc", {Rel("R", 3)}).ok());        // needs binary
  ExprPtr e = reg.MakeOp("semijoin", {Rel("R", 2), Rel("S", 1)}).value();
  EXPECT_EQ(e->arity(), 2);  // semijoin keeps first argument's arity
}

TEST(RegistryTest, DuplicateRegistrationRejected) {
  op::Registry reg = op::Registry::Empty();
  op::OperatorDef def;
  def.name = "twice";
  def.num_args = 1;
  def.arity = [](const std::vector<int>& a) -> Result<int> { return a[0]; };
  ASSERT_TRUE(reg.Register(def).ok());
  EXPECT_FALSE(reg.Register(def).ok());
}

TEST(RegistryTest, LeftOuterJoinEval) {
  Instance db;
  db.Set("R", {T({1}), T({2})});
  db.Set("S", {T({1, 7})});
  const op::Registry& reg = op::Registry::Default();
  ExprPtr lo = reg.MakeOp("lojoin", {Rel("R", 1), Rel("S", 2)},
                          Condition::AttrCmp(1, CmpOp::kEq, 2))
                   .value();
  auto out = Evaluate(lo, db).value();
  ASSERT_EQ(out.size(), 2u);
  // Row 1 joins; row 2 is padded with nulls.
  bool found_padded = false;
  for (const Tuple& t : out) {
    if (CompareValues(t[0], Value(int64_t{2})) == 0) {
      EXPECT_EQ(CompareValues(t[1], op::NullValue()), 0);
      EXPECT_EQ(CompareValues(t[2], op::NullValue()), 0);
      found_padded = true;
    }
  }
  EXPECT_TRUE(found_padded);
}

TEST(RegistryTest, TransitiveClosureEval) {
  Instance db;
  db.Set("E", {T({1, 2}), T({2, 3}), T({3, 4})});
  const op::Registry& reg = op::Registry::Default();
  ExprPtr tc = reg.MakeOp("tc", {Rel("E", 2)}).value();
  auto out = Evaluate(tc, db).value();
  EXPECT_EQ(out.size(), 6u);  // all i<j pairs on the chain
  EXPECT_TRUE(out.count(T({1, 4})) > 0);
}

TEST(RegistryTest, AntijoinEval) {
  Instance db;
  db.Set("R", {T({1}), T({2})});
  db.Set("S", {T({1})});
  const op::Registry& reg = op::Registry::Default();
  ExprPtr aj = reg.MakeOp("antijoin", {Rel("R", 1), Rel("S", 1)},
                          Condition::AttrCmp(1, CmpOp::kEq, 2))
                   .value();
  auto out = Evaluate(aj, db).value();
  EXPECT_EQ(out, (std::set<Tuple>{T({2})}));
}

/// §"Extensibility and modularity": a user registers a brand-new operator
/// with polarity + normalization rules, and ELIMINATE handles it without
/// any change to the algorithm.
TEST(RegistryTest, UserOperatorWithNormalizationRulesComposes) {
  op::Registry reg = op::Registry::Empty();
  op::OperatorDef ident;
  ident.name = "ident";
  ident.num_args = 1;
  ident.arity = [](const std::vector<int>& a) -> Result<int> { return a[0]; };
  ident.polarity = {op::Polarity::kMonotone};
  // ident(E) ⊆ E3  ↔  E ⊆ E3, and E1 ⊆ ident(E)  ↔  E1 ⊆ E.
  ident.left_rule = [](const Constraint& c, const std::string&)
      -> std::optional<std::vector<Constraint>> {
    return std::vector<Constraint>{
        Constraint::Contain(c.lhs->child(0), c.rhs)};
  };
  ident.right_rule = [](const Constraint& c, const std::string&)
      -> std::optional<std::vector<Constraint>> {
    return std::vector<Constraint>{
        Constraint::Contain(c.lhs, c.rhs->child(0))};
  };
  ASSERT_TRUE(reg.Register(std::move(ident)).ok());

  ExprPtr ident_s = UserOpExpr("ident", {Rel("S", 1)}, 1);
  ConstraintSet cs{Constraint::Contain(ident_s, Rel("T", 1)),
                   Constraint::Contain(Rel("R", 1), ident_s)};
  EliminateOptions opts;
  opts.registry = &reg;
  EliminateOutcome out = Eliminate(cs, "S", 1, opts);
  ASSERT_TRUE(out.success) << out.failure_reason;
  ASSERT_EQ(out.constraints.size(), 1u);
  EXPECT_TRUE(ContainsRelation(out.constraints[0].lhs, "R"));
  EXPECT_TRUE(ContainsRelation(out.constraints[0].rhs, "T"));

  // Without the rules, the same elimination fails.
  op::Registry bare = op::Registry::Empty();
  op::OperatorDef plain;
  plain.name = "ident";
  plain.num_args = 1;
  plain.arity = [](const std::vector<int>& a) -> Result<int> { return a[0]; };
  plain.polarity = {op::Polarity::kMonotone};
  ASSERT_TRUE(bare.Register(std::move(plain)).ok());
  EliminateOptions bare_opts;
  bare_opts.registry = &bare;
  EXPECT_FALSE(Eliminate(cs, "S", 1, bare_opts).success);
}

TEST(RegistryTest, PolarityTableSizeValidated) {
  op::Registry reg = op::Registry::Empty();
  op::OperatorDef bad;
  bad.name = "bad";
  bad.num_args = 2;
  bad.arity = [](const std::vector<int>&) -> Result<int> { return 1; };
  bad.polarity = {op::Polarity::kMonotone};  // wrong size
  EXPECT_FALSE(reg.Register(std::move(bad)).ok());
}

}  // namespace
}  // namespace mapcomp
