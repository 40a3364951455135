#include "src/compose/deskolemize.h"

#include <gtest/gtest.h>

#include <random>

#include "src/algebra/builders.h"
#include "src/algebra/print.h"
#include "src/eval/checker.h"
#include "src/eval/generator.h"
#include "tests/oracles/instance_api.h"

namespace mapcomp {
namespace {

TEST(DeskolemizeTest, PlainConstraintsPassThrough) {
  ConstraintSet cs{Constraint::Contain(Rel("R", 1), Rel("T", 1))};
  ConstraintSet out = Deskolemize(cs).value();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(ExprEquals(out[0].lhs, cs[0].lhs));
}

TEST(DeskolemizeTest, ProjectedAwaySkolemVanishes) {
  // π1(f1(R)) ⊆ T: the Skolem column is dropped by the projection, so the
  // dependency is function-free: R(x,y)… here R unary: R(x) → T(x).
  ConstraintSet cs{Constraint::Contain(
      Project({1}, SkolemApp("f", {1}, Rel("R", 1))), Rel("T", 1))};
  ConstraintSet out = Deskolemize(cs).value();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(ContainsSkolem(out[0].lhs) || ContainsSkolem(out[0].rhs));
  EXPECT_TRUE(ExprEquals(out[0].lhs, Rel("R", 1)));
  EXPECT_TRUE(ExprEquals(out[0].rhs, Rel("T", 1)));
}

TEST(DeskolemizeTest, SingleFunctionBecomesExistential) {
  // f1(R) ⊆ T with R unary, T binary: R(x) → ∃y T(x,y) = R ⊆ π1(T).
  ConstraintSet cs{
      Constraint::Contain(SkolemApp("f", {1}, Rel("R", 1)), Rel("T", 2))};
  ConstraintSet out = Deskolemize(cs).value();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(ExprEquals(out[0].lhs, Rel("R", 1)));
  EXPECT_TRUE(ExprEquals(out[0].rhs, Project({1}, Rel("T", 2))));
}

TEST(DeskolemizeTest, SharedFunctionMergesDependencies) {
  // f1(R) ⊆ T, f1(R) ⊆ U: both constraints talk about the same Skolem
  // value, so the merged result is R(x) → ∃y T(x,y) ∧ U(x,y) — NOT two
  // independent existentials.
  ConstraintSet cs{
      Constraint::Contain(SkolemApp("f", {1}, Rel("R", 1)), Rel("T", 2)),
      Constraint::Contain(SkolemApp("f", {1}, Rel("R", 1)), Rel("U", 2))};
  ConstraintSet out = Deskolemize(cs).value();
  ASSERT_EQ(out.size(), 1u);  // merged into one dependency
  // Semantics: whenever R(x), some y with T(x,y) AND U(x,y).
  Instance db;
  db.Set("R", {{Value(int64_t{1})}});
  db.Set("T", {{Value(int64_t{1}), Value(int64_t{5})}});
  db.Set("U", {{Value(int64_t{1}), Value(int64_t{6})}});
  // T and U rows exist but with different witnesses: must NOT satisfy.
  EXPECT_FALSE(SatisfiesAll(db, out).value());
  db.Add("U", {Value(int64_t{1}), Value(int64_t{5})});
  EXPECT_TRUE(SatisfiesAll(db, out).value());
}

TEST(DeskolemizeTest, RepeatedFunctionDifferentArgsFails) {
  // f(x) and f(y) with different argument columns inside one constraint:
  // step 3 failure (the Example 17 situation).
  // lhs: f1(R) × f2(R') over R binary… build directly:
  ExprPtr left = Product(SkolemApp("f", {1}, Rel("R", 1)),
                         SkolemApp("f", {1}, Rel("S", 1)));
  // Both Skolem apps use function name "f" but over different atoms, so
  // after translation f appears with two distinct argument variables.
  ConstraintSet cs{Constraint::Contain(left, Rel("T", 4))};
  Result<ConstraintSet> out = Deskolemize(cs);
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("step 3"), std::string::npos);
}

TEST(DeskolemizeTest, RestrictingBodyConditionFails) {
  // σ comparing the Skolem column with a base column restricts the
  // function's value in the body: steps 5-7 failure.
  ExprPtr sk = SkolemApp("f", {1}, Rel("R", 1));  // columns: x, f(x)
  ConstraintSet cs{Constraint::Contain(
      Select(Condition::AttrCmp(1, CmpOp::kEq, 2), sk), Rel("T", 2))};
  Result<ConstraintSet> out = Deskolemize(cs);
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("restrict"), std::string::npos);
}

TEST(DeskolemizeTest, HeadConditionOnSkolemColumnSurvives) {
  // f's value constrained on the HEAD side is fine: R(x) → ∃y T(x,y) ∧ y=3
  // i.e. f1(R) ⊆ σ_{2=3}(T)-style via substitution. Build the constraint
  // f1(R) ⊆ sel[#2=3](T).
  ConstraintSet cs{Constraint::Contain(
      SkolemApp("f", {1}, Rel("R", 1)),
      Select(Condition::AttrConst(2, CmpOp::kEq, int64_t{3}), Rel("T", 2)))};
  ConstraintSet out = Deskolemize(cs).value();
  ASSERT_FALSE(out.empty());
  Instance db;
  db.Set("R", {{Value(int64_t{1})}});
  db.Set("T", {{Value(int64_t{1}), Value(int64_t{4})}});
  EXPECT_FALSE(SatisfiesAll(db, out).value());
  db.Add("T", {Value(int64_t{1}), Value(int64_t{3})});
  EXPECT_TRUE(SatisfiesAll(db, out).value());
}

TEST(DeskolemizeTest, SharedFunctionWithMismatchedBodiesFails) {
  // f over R in one constraint and over S in another: bodies are not
  // isomorphic, merging fails (step 9).
  ConstraintSet cs{
      Constraint::Contain(SkolemApp("f", {1}, Rel("R", 1)), Rel("T", 2)),
      Constraint::Contain(
          SkolemApp("f", {1}, Intersect(Rel("R", 1), Rel("S", 1))),
          Rel("U", 2))};
  Result<ConstraintSet> out = Deskolemize(cs);
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("step 9"), std::string::npos);
}

TEST(DeskolemizeTest, DuplicateDependenciesRemoved) {
  // The same Skolemized constraint twice: step 10 deduplicates.
  Constraint c =
      Constraint::Contain(SkolemApp("f", {1}, Rel("R", 1)), Rel("T", 2));
  ConstraintSet cs{c, c};
  ConstraintSet out = Deskolemize(cs).value();
  EXPECT_EQ(out.size(), 1u);
}

TEST(DeskolemizeTest, KeyMinimizedSkolemRoundTrip) {
  // Skolem depending on a key prefix only: g depends on column 1 of R(2).
  // R(x,y) → ∃z S(x,y,z) where z depends only on x; with a single
  // occurrence the ∃ form is equivalent.
  ConstraintSet cs{
      Constraint::Contain(SkolemApp("g", {1}, Rel("R", 2)), Rel("S", 3))};
  ConstraintSet out = Deskolemize(cs).value();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(ContainsSkolem(out[0].lhs) || ContainsSkolem(out[0].rhs));
  // Soundness spot check.
  Signature sig;
  ASSERT_TRUE(sig.AddRelation("R", 2).ok());
  ASSERT_TRUE(sig.AddRelation("S", 3).ok());
  Instance db;
  db.Set("R", {{Value(int64_t{1}), Value(int64_t{2})}});
  db.Set("S", {{Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{9})}});
  EXPECT_TRUE(SatisfiesAll(db, out).value());
  db.Clear("S");
  EXPECT_FALSE(SatisfiesAll(db, out).value());
}

}  // namespace
}  // namespace mapcomp
