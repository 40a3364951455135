#include "src/compose/normalize_left.h"

#include <gtest/gtest.h>

#include <random>

#include "src/algebra/builders.h"
#include "src/algebra/print.h"
#include "src/eval/checker.h"
#include "src/eval/generator.h"
#include "tests/oracles/instance_api.h"

namespace mapcomp {
namespace {

const op::Registry& Reg() { return op::Registry::Default(); }

/// Property check: the input constraints and (others + S ⊆ bound) have the
/// same models — they are over the same relations, so equivalence is
/// per-instance agreement.
void ExpectSemanticallyEqual(const ConstraintSet& input,
                             const LeftNormalForm& nf,
                             const std::string& symbol, int arity,
                             const Signature& sig, uint64_t seed) {
  ConstraintSet normalized = nf.others;
  normalized.push_back(Constraint::Contain(Rel(symbol, arity),
                                           nf.upper_bound));
  std::mt19937_64 rng(seed);
  GenOptions gen;
  gen.domain_size = 3;
  gen.max_tuples_per_rel = 3;
  for (int round = 0; round < 40; ++round) {
    Instance db = RandomInstance(sig, &rng, gen);
    auto before = SatisfiesAll(db, input);
    auto after = SatisfiesAll(db, normalized);
    ASSERT_TRUE(before.ok());
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*before, *after)
        << "instance:\n" << db.ToString()
        << "input:\n" << ConstraintSetToString(input)
        << "normalized:\n" << ConstraintSetToString(normalized);
  }
}

TEST(LeftNormalizeTest, PaperExample7) {
  // R − S ⊆ T, π(S) ⊆ U  ⇒  R ⊆ S ∪ T, S ⊆ U × D^r.
  ConstraintSet input{
      Constraint::Contain(Difference(Rel("R", 2), Rel("S", 2)), Rel("T", 2)),
      Constraint::Contain(Project({1}, Rel("S", 2)), Rel("U", 1))};
  LeftNormalForm nf = LeftNormalize(input, "S", 2, &Reg()).value();
  ASSERT_EQ(nf.others.size(), 1u);
  // R ⊆ S ∪ T.
  EXPECT_TRUE(ExprEquals(nf.others[0].lhs, Rel("R", 2)));
  EXPECT_TRUE(
      ExprEquals(nf.others[0].rhs, Union(Rel("S", 2), Rel("T", 2))));
  // Bound: U × D^1 (prefix-projection identity).
  EXPECT_TRUE(ExprEquals(nf.upper_bound, Product(Rel("U", 1), Dom(1))));

  Signature sig;
  for (auto& [n, a] : std::vector<std::pair<std::string, int>>{
           {"R", 2}, {"S", 2}, {"T", 2}, {"U", 1}}) {
    ASSERT_TRUE(sig.AddRelation(n, a).ok());
  }
  ExpectSemanticallyEqual(input, nf, "S", 2, sig, 11);
}

TEST(LeftNormalizeTest, PaperExample8IntersectionFails) {
  // R ∩ S ⊆ T has no left rule.
  ConstraintSet input{
      Constraint::Contain(Intersect(Rel("R", 2), Rel("S", 2)), Rel("T", 2)),
      Constraint::Contain(Project({1}, Rel("S", 2)), Rel("U", 1))};
  EXPECT_FALSE(LeftNormalize(input, "S", 2, &Reg()).ok());
}

TEST(LeftNormalizeTest, PaperExample9TrivialBound) {
  // R ∩ T ⊆ S, U ⊆ π(S): S never on a left side alone ⇒ bound S ⊆ D^r.
  ConstraintSet input{
      Constraint::Contain(Intersect(Rel("R", 2), Rel("T", 2)), Rel("S", 2)),
      Constraint::Contain(Rel("U", 1), Project({1}, Rel("S", 2)))};
  LeftNormalForm nf = LeftNormalize(input, "S", 2, &Reg()).value();
  EXPECT_TRUE(ExprEquals(nf.upper_bound, Dom(2)));
  EXPECT_EQ(nf.others.size(), 2u);
}

TEST(LeftNormalizeTest, UnionSplits) {
  ConstraintSet input{Constraint::Contain(
      Union(Rel("S", 1), Rel("R", 1)), Rel("T", 1))};
  LeftNormalForm nf = LeftNormalize(input, "S", 1, &Reg()).value();
  ASSERT_EQ(nf.others.size(), 1u);  // R ⊆ T
  EXPECT_TRUE(ExprEquals(nf.upper_bound, Rel("T", 1)));
}

TEST(LeftNormalizeTest, SelectionRule) {
  // σ_c(S) ⊆ T ⇒ S ⊆ T ∪ (D − σ_c(D)).
  Condition c = Condition::AttrConst(1, CmpOp::kEq, int64_t{1});
  ConstraintSet input{
      Constraint::Contain(Select(c, Rel("S", 1)), Rel("T", 1))};
  LeftNormalForm nf = LeftNormalize(input, "S", 1, &Reg()).value();
  EXPECT_TRUE(ExprEquals(
      nf.upper_bound,
      Union(Rel("T", 1), Difference(Dom(1), Select(c, Dom(1))))));

  Signature sig;
  ASSERT_TRUE(sig.AddRelation("S", 1).ok());
  ASSERT_TRUE(sig.AddRelation("T", 1).ok());
  ExpectSemanticallyEqual(input, nf, "S", 1, sig, 13);
}

TEST(LeftNormalizeTest, GeneralProjectionRule) {
  // π_{2,1}(S) ⊆ R with S binary: the non-prefix index list takes the
  // general identity; verify semantically.
  ConstraintSet input{
      Constraint::Contain(Project({2, 1}, Rel("S", 2)), Rel("R", 2))};
  LeftNormalForm nf = LeftNormalize(input, "S", 2, &Reg()).value();
  Signature sig;
  ASSERT_TRUE(sig.AddRelation("S", 2).ok());
  ASSERT_TRUE(sig.AddRelation("R", 2).ok());
  ExpectSemanticallyEqual(input, nf, "S", 2, sig, 17);
}

TEST(LeftNormalizeTest, ProjectionWithRepeatedIndexes) {
  // π_{1,1}(S) ⊆ R with S unary.
  ConstraintSet input{
      Constraint::Contain(Project({1, 1}, Rel("S", 1)), Rel("R", 2))};
  LeftNormalForm nf = LeftNormalize(input, "S", 1, &Reg()).value();
  Signature sig;
  ASSERT_TRUE(sig.AddRelation("S", 1).ok());
  ASSERT_TRUE(sig.AddRelation("R", 2).ok());
  ExpectSemanticallyEqual(input, nf, "S", 1, sig, 19);
}

TEST(LeftNormalizeTest, CollapsesMultipleBounds) {
  // S ⊆ A, S ⊆ B collapse to S ⊆ A ∩ B (§3.4.1 case 1).
  ConstraintSet input{Constraint::Contain(Rel("S", 1), Rel("A", 1)),
                      Constraint::Contain(Rel("S", 1), Rel("B", 1))};
  LeftNormalForm nf = LeftNormalize(input, "S", 1, &Reg()).value();
  EXPECT_TRUE(nf.others.empty());
  EXPECT_TRUE(ExprEquals(nf.upper_bound,
                         Intersect(Rel("A", 1), Rel("B", 1))));
}

TEST(LeftNormalizeTest, NestedRewriting) {
  // σ_c(S ∪ R) − T ⊆ U needs difference, then selection, then union rules.
  Condition c = Condition::AttrConst(1, CmpOp::kLe, int64_t{2});
  ConstraintSet input{Constraint::Contain(
      Difference(Select(c, Union(Rel("S", 1), Rel("R", 1))), Rel("T", 1)),
      Rel("U", 1))};
  LeftNormalForm nf = LeftNormalize(input, "S", 1, &Reg()).value();
  Signature sig;
  for (auto& [n, a] : std::vector<std::pair<std::string, int>>{
           {"S", 1}, {"R", 1}, {"T", 1}, {"U", 1}}) {
    ASSERT_TRUE(sig.AddRelation(n, a).ok());
  }
  ExpectSemanticallyEqual(input, nf, "S", 1, sig, 23);
}

TEST(LeftNormalizeTest, SymbolOnBothSidesAfterRewriteFails) {
  // S − S ⊆ T rewrites to S ⊆ S ∪ T: S remains on both sides — reject.
  ConstraintSet input{Constraint::Contain(
      Difference(Rel("S", 1), Rel("S", 1)), Rel("T", 1))};
  EXPECT_FALSE(LeftNormalize(input, "S", 1, &Reg()).ok());
}

TEST(LeftNormalizeTest, UntouchedConstraintsPassThrough) {
  ConstraintSet input{Constraint::Contain(Rel("A", 1), Rel("B", 1)),
                      Constraint::Contain(Rel("S", 1), Rel("T", 1))};
  LeftNormalForm nf = LeftNormalize(input, "S", 1, &Reg()).value();
  ASSERT_EQ(nf.others.size(), 1u);
  EXPECT_TRUE(ExprEquals(nf.others[0].lhs, Rel("A", 1)));
}

}  // namespace
}  // namespace mapcomp
