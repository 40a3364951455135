#include "src/logic/translate.h"

#include <gtest/gtest.h>

#include <random>

#include "src/algebra/builders.h"
#include "src/algebra/print.h"
#include "src/eval/checker.h"
#include "src/eval/generator.h"
#include "src/logic/homomorphism.h"
#include "src/logic/to_algebra.h"
#include "tests/oracles/instance_api.h"

namespace mapcomp {
namespace {

using logic::CQ;
using logic::Dependency;
using logic::LAtom;
using logic::Term;
using logic::VarAllocator;

TEST(TranslateTest, RelationLeaf) {
  VarAllocator vars;
  std::vector<CQ> ucq = logic::ExprToUCQ(Rel("R", 2), &vars).value();
  ASSERT_EQ(ucq.size(), 1u);
  EXPECT_EQ(ucq[0].atoms.size(), 1u);
  EXPECT_EQ(ucq[0].atoms[0].rel, "R");
  EXPECT_EQ(ucq[0].outputs.size(), 2u);
}

TEST(TranslateTest, UnionMakesDisjuncts) {
  VarAllocator vars;
  std::vector<CQ> ucq =
      logic::ExprToUCQ(Union(Rel("R", 1), Rel("S", 1)), &vars).value();
  EXPECT_EQ(ucq.size(), 2u);
}

TEST(TranslateTest, ProductConcatenates) {
  VarAllocator vars;
  std::vector<CQ> ucq =
      logic::ExprToUCQ(Product(Rel("R", 1), Rel("S", 2)), &vars).value();
  ASSERT_EQ(ucq.size(), 1u);
  EXPECT_EQ(ucq[0].atoms.size(), 2u);
  EXPECT_EQ(ucq[0].outputs.size(), 3u);
}

TEST(TranslateTest, SelectionEqualityUnifies) {
  VarAllocator vars;
  std::vector<CQ> ucq =
      logic::ExprToUCQ(Select(Condition::AttrCmp(1, CmpOp::kEq, 2),
                              Rel("R", 2)),
                       &vars)
          .value();
  ASSERT_EQ(ucq.size(), 1u);
  // Unification leaves both outputs as the same variable, no conditions.
  EXPECT_TRUE(ucq[0].conds.empty());
  EXPECT_TRUE(ucq[0].outputs[0] == ucq[0].outputs[1]);
}

TEST(TranslateTest, InequalityBecomesCondition) {
  VarAllocator vars;
  std::vector<CQ> ucq =
      logic::ExprToUCQ(Select(Condition::AttrCmp(1, CmpOp::kLt, 2),
                              Rel("R", 2)),
                       &vars)
          .value();
  ASSERT_EQ(ucq.size(), 1u);
  EXPECT_EQ(ucq[0].conds.size(), 1u);
  EXPECT_EQ(ucq[0].conds[0].op, CmpOp::kLt);
}

TEST(TranslateTest, DifferenceUnsupported) {
  VarAllocator vars;
  EXPECT_FALSE(
      logic::ExprToUCQ(Difference(Rel("R", 1), Rel("S", 1)), &vars).ok());
}

TEST(TranslateTest, DisjunctiveConditionUnsupported) {
  VarAllocator vars;
  Condition c = Condition::Or(Condition::AttrCmp(1, CmpOp::kEq, 2),
                              Condition::AttrCmp(1, CmpOp::kLt, 2));
  EXPECT_FALSE(logic::ExprToUCQ(Select(c, Rel("R", 2)), &vars).ok());
}

TEST(TranslateTest, SkolemAddsFunctionOutput) {
  VarAllocator vars;
  std::vector<CQ> ucq =
      logic::ExprToUCQ(SkolemApp("f", {1}, Rel("R", 2)), &vars).value();
  ASSERT_EQ(ucq.size(), 1u);
  ASSERT_EQ(ucq[0].outputs.size(), 3u);
  EXPECT_TRUE(ucq[0].outputs[2].IsFunc());
  EXPECT_EQ(ucq[0].outputs[2].func, "f");
}

TEST(TranslateTest, NestedSkolemArgumentFails) {
  // f applied to a column that is itself a Skolem output → nesting → fail
  // (deskolemize step 2, "check for cycles").
  VarAllocator vars;
  ExprPtr nested = SkolemApp("g", {3}, SkolemApp("f", {1}, Rel("R", 2)));
  EXPECT_FALSE(logic::ExprToUCQ(nested, &vars).ok());
}

TEST(TranslateTest, ConstraintToDependencies) {
  // π1(R) ⊆ π1(T): R(x,y) → ∃u T(x,u).
  Constraint c = Constraint::Contain(Project({1}, Rel("R", 2)),
                                     Project({1}, Rel("T", 2)));
  std::vector<Dependency> deps =
      logic::ConstraintToDependencies(c).value();
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0].body.size(), 1u);
  EXPECT_EQ(deps[0].head.size(), 1u);
  EXPECT_EQ(deps[0].head[0].rel, "T");
  // Head variable u is existential: appears in head only.
  std::set<logic::VarId> body_vars = deps[0].BodyVars();
  std::set<logic::VarId> head_vars = deps[0].HeadVars();
  bool has_existential = false;
  for (logic::VarId v : head_vars) {
    if (body_vars.count(v) == 0) has_existential = true;
  }
  EXPECT_TRUE(has_existential);
}

TEST(TranslateTest, UnionLhsSplitsIntoTwoDependencies) {
  Constraint c =
      Constraint::Contain(Union(Rel("R", 1), Rel("S", 1)), Rel("T", 1));
  std::vector<Dependency> deps =
      logic::ConstraintToDependencies(c).value();
  EXPECT_EQ(deps.size(), 2u);
}

TEST(TranslateTest, UnionRhsUnsupported) {
  Constraint c =
      Constraint::Contain(Rel("T", 1), Union(Rel("R", 1), Rel("S", 1)));
  EXPECT_FALSE(logic::ConstraintToDependencies(c).ok());
}

/// Round-trip property: constraint → dependencies → constraints preserves
/// semantics for the function-free CQ fragment.
class RoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(RoundTripTest, DependencyRoundTripPreservesSemantics) {
  Signature sig;
  ASSERT_TRUE(sig.AddRelation("R", 2).ok());
  ASSERT_TRUE(sig.AddRelation("S", 2).ok());
  ASSERT_TRUE(sig.AddRelation("T", 1).ok());

  std::vector<Constraint> cases = {
      Constraint::Contain(Project({1}, Rel("R", 2)), Rel("T", 1)),
      Constraint::Contain(Select(Condition::AttrCmp(1, CmpOp::kEq, 2),
                                 Rel("R", 2)),
                          Rel("S", 2)),
      Constraint::Contain(Intersect(Rel("R", 2), Rel("S", 2)), Rel("S", 2)),
      Constraint::Contain(Product(Rel("T", 1), Rel("T", 1)), Rel("S", 2)),
      Constraint::Contain(Project({1}, Rel("R", 2)),
                          Project({2}, Rel("S", 2))),
      Constraint::Contain(
          Select(Condition::AttrConst(1, CmpOp::kEq, int64_t{1}),
                 Rel("T", 1)),
          Project({1}, Rel("S", 2))),
  };
  const Constraint& c = cases[GetParam() % cases.size()];

  std::vector<Dependency> deps = logic::ConstraintToDependencies(c).value();
  ConstraintSet round;
  for (const Dependency& d : deps) {
    round.push_back(logic::DependencyToConstraint(d).value());
  }
  std::mt19937_64 rng(300 + GetParam());
  GenOptions gen;
  gen.domain_size = 3;
  gen.max_tuples_per_rel = 3;
  for (int i = 0; i < 40; ++i) {
    Instance db = RandomInstance(sig, &rng, gen);
    auto before = Satisfies(db, c, {});
    auto after = SatisfiesAll(db, round);
    ASSERT_TRUE(before.ok());
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*before, *after)
        << "constraint: " << c.ToString() << "\nround-trip:\n"
        << ConstraintSetToString(round) << "instance:\n"
        << db.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, RoundTripTest, ::testing::Range(0, 6));

TEST(HomomorphismTest, SimpleMappingExists) {
  // R(x,y) maps into {R(a,b)}: hom exists.
  std::vector<LAtom> from{LAtom{"R", {Term::MakeVar(0), Term::MakeVar(1)}}};
  std::vector<LAtom> to{LAtom{"R", {Term::MakeVar(5), Term::MakeVar(6)}}};
  EXPECT_TRUE(logic::FindHomomorphism(from, to).has_value());
}

TEST(HomomorphismTest, RepeatedVariableBlocksMapping) {
  // R(x,x) cannot map into R(a,b) with a≠b as distinct variables... it can
  // map both to the same target variable only if the target has one; with
  // target R(a,b) the hom x→a fails the second position.
  std::vector<LAtom> from{LAtom{"R", {Term::MakeVar(0), Term::MakeVar(0)}}};
  std::vector<LAtom> to{LAtom{"R", {Term::MakeVar(5), Term::MakeVar(6)}}};
  EXPECT_FALSE(logic::FindHomomorphism(from, to).has_value());
  std::vector<LAtom> to_diag{
      LAtom{"R", {Term::MakeVar(7), Term::MakeVar(7)}}};
  EXPECT_TRUE(logic::FindHomomorphism(from, to_diag).has_value());
}

TEST(HomomorphismTest, ConstantsMustMatch) {
  std::vector<LAtom> from{
      LAtom{"R", {Term::MakeConst(int64_t{1}), Term::MakeVar(0)}}};
  std::vector<LAtom> to_match{
      LAtom{"R", {Term::MakeConst(int64_t{1}), Term::MakeVar(3)}}};
  std::vector<LAtom> to_mismatch{
      LAtom{"R", {Term::MakeConst(int64_t{2}), Term::MakeVar(3)}}};
  EXPECT_TRUE(logic::FindHomomorphism(from, to_match).has_value());
  EXPECT_FALSE(logic::FindHomomorphism(from, to_mismatch).has_value());
}

TEST(HomomorphismTest, BodyBijectionRespectsSeed) {
  // Bodies {R(x0,x1)} and {R(y0,y1)}: bijection exists; seeding y0→x1
  // forces failure (positions disagree).
  std::vector<LAtom> a{LAtom{"R", {Term::MakeVar(0), Term::MakeVar(1)}}};
  std::vector<LAtom> b{LAtom{"R", {Term::MakeVar(0), Term::MakeVar(1)}}};
  EXPECT_TRUE(logic::FindBodyBijection(a, {}, b, {}, {}).has_value());
  std::map<logic::VarId, logic::VarId> seed{{0, 1}};
  EXPECT_FALSE(logic::FindBodyBijection(a, {}, b, {}, seed).has_value());
}

TEST(DependencyTest, CanonicalizationIsStable) {
  Dependency d;
  d.num_vars = 4;
  d.body.push_back(LAtom{"R", {Term::MakeVar(3), Term::MakeVar(1)}});
  d.head.push_back(LAtom{"T", {Term::MakeVar(3)}});
  Dependency c1 = d.Canonicalized();
  Dependency c2 = c1.Canonicalized();
  EXPECT_EQ(c1.ToString(), c2.ToString());
  EXPECT_EQ(c1.body[0].args[0].var, 0);
}

TEST(ToAlgebraTest, ExistentialVariableNotProjected) {
  // R(x) → ∃y S(x,y) becomes R ⊆ π1(S).
  Dependency d;
  d.num_vars = 2;
  d.body.push_back(LAtom{"R", {Term::MakeVar(0)}});
  d.head.push_back(LAtom{"S", {Term::MakeVar(0), Term::MakeVar(1)}});
  Constraint c = logic::DependencyToConstraint(d).value();
  EXPECT_TRUE(ExprEquals(c.lhs, Rel("R", 1)));
  EXPECT_TRUE(ExprEquals(c.rhs, Project({1}, Rel("S", 2))));
}

TEST(ToAlgebraTest, FunctionTermsRejected) {
  Dependency d;
  d.num_vars = 1;
  d.body.push_back(LAtom{"R", {Term::MakeVar(0)}});
  d.head.push_back(LAtom{"S", {Term::MakeFunc("f", {0})}});
  EXPECT_FALSE(logic::DependencyToConstraint(d).ok());
}

}  // namespace
}  // namespace mapcomp
