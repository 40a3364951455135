#include "src/compose/normalize_right.h"

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

RightNormalForm Normalize(const ConstraintSet& input, const std::string& s,
                          int arity, const Signature* keys = nullptr) {
  int counter = 0;
  return RightNormalize(input, s, arity, keys, &counter, &Reg()).value();
}

/// Skolem-free normal forms can be checked semantically against the input.
void ExpectSemanticallyEqual(const ConstraintSet& input,
                             const RightNormalForm& nf,
                             const std::string& symbol, int arity,
                             const Signature& sig, uint64_t seed) {
  ConstraintSet normalized = nf.others;
  normalized.push_back(
      Constraint::Contain(nf.lower_bound, Rel(symbol, arity)));
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

TEST(RightNormalizeTest, PaperExample13) {
  // S × T ⊆ U, T ⊆ σ_c(S) × π(R)
  // ⇒ S × T ⊆ U, π(T) ⊆ S, π(T) ⊆ σ_c(D), π(T) ⊆ π(R).
  Condition c = Condition::AttrConst(1, CmpOp::kEq, int64_t{1});
  ConstraintSet input{
      Constraint::Contain(Product(Rel("S", 1), Rel("T", 2)), Rel("U", 3)),
      Constraint::Contain(Rel("T", 2),
                          Product(Select(c, Rel("S", 1)),
                                  Project({1}, Rel("R", 2))))};
  RightNormalForm nf = Normalize(input, "S", 1);
  // Lower bound is π_1(T).
  EXPECT_TRUE(ExprEquals(nf.lower_bound, Project({1}, Rel("T", 2))));
  ASSERT_EQ(nf.others.size(), 3u);

  Signature sig;
  for (auto& [n, a] : std::vector<std::pair<std::string, int>>{
           {"S", 1}, {"T", 2}, {"U", 3}, {"R", 2}}) {
    ASSERT_TRUE(sig.AddRelation(n, a).ok());
  }
  ExpectSemanticallyEqual(input, nf, "S", 1, sig, 29);
}

TEST(RightNormalizeTest, PaperExample14Skolemization) {
  // R ⊆ π(S × (T ∩ U)), S ⊆ σ_c(T) — normalizing for S introduces a Skolem
  // function for the projected-away column.
  // Use R(1), S(1), T(1), U(1), and π_1 over S×(T∩U) of arity 2.
  Condition c = Condition::AttrConst(1, CmpOp::kLe, int64_t{5});
  ConstraintSet input{
      Constraint::Contain(
          Rel("R", 1),
          Project({1}, Product(Rel("S", 1),
                               Intersect(Rel("T", 1), Rel("U", 1))))),
      Constraint::Contain(Rel("S", 1), Select(c, Rel("T", 1)))};
  RightNormalForm nf = Normalize(input, "S", 1);
  // The lower bound must mention a Skolem somewhere... in fact the bound is
  // π over a Skolemized R.
  EXPECT_TRUE(ContainsSkolem(nf.lower_bound));
  // π(f(R)) ⊆ T ∩ U survives among the others, rewritten into pieces.
  bool mentions_t = false;
  for (const Constraint& cc : nf.others) {
    if (ContainsRelation(cc.rhs, "T")) mentions_t = true;
    EXPECT_FALSE(ContainsRelation(cc.rhs, "S"));
  }
  EXPECT_TRUE(mentions_t);
}

TEST(RightNormalizeTest, IntersectionSplits) {
  ConstraintSet input{Constraint::Contain(
      Rel("R", 1), Intersect(Rel("S", 1), Rel("T", 1)))};
  RightNormalForm nf = Normalize(input, "S", 1);
  EXPECT_TRUE(ExprEquals(nf.lower_bound, Rel("R", 1)));
  ASSERT_EQ(nf.others.size(), 1u);
  EXPECT_TRUE(ExprEquals(nf.others[0].rhs, Rel("T", 1)));
}

TEST(RightNormalizeTest, UnionMovesOtherOperandLeft) {
  // R ⊆ S ∪ T ⇒ R − T ⊆ S.
  ConstraintSet input{
      Constraint::Contain(Rel("R", 1), Union(Rel("S", 1), Rel("T", 1)))};
  RightNormalForm nf = Normalize(input, "S", 1);
  EXPECT_TRUE(ExprEquals(nf.lower_bound,
                         Difference(Rel("R", 1), Rel("T", 1))));
  Signature sig;
  for (auto& [n, a] : std::vector<std::pair<std::string, int>>{
           {"R", 1}, {"S", 1}, {"T", 1}}) {
    ASSERT_TRUE(sig.AddRelation(n, a).ok());
  }
  ExpectSemanticallyEqual(input, nf, "S", 1, sig, 31);
}

TEST(RightNormalizeTest, UnionWithSymbolInBothOperandsFails) {
  ConstraintSet input{
      Constraint::Contain(Rel("R", 1), Union(Rel("S", 1), Rel("S", 1)))};
  int counter = 0;
  EXPECT_FALSE(RightNormalize(input, "S", 1, nullptr, &counter, &Reg()).ok());
}

TEST(RightNormalizeTest, DifferenceRule) {
  // R ⊆ S − T ⇒ R ⊆ S, R ∩ T ⊆ ∅.
  ConstraintSet input{
      Constraint::Contain(Rel("R", 1), Difference(Rel("S", 1), Rel("T", 1)))};
  RightNormalForm nf = Normalize(input, "S", 1);
  EXPECT_TRUE(ExprEquals(nf.lower_bound, Rel("R", 1)));
  ASSERT_EQ(nf.others.size(), 1u);
  EXPECT_EQ(nf.others[0].rhs->kind(), ExprKind::kEmpty);
  Signature sig;
  for (auto& [n, a] : std::vector<std::pair<std::string, int>>{
           {"R", 1}, {"S", 1}, {"T", 1}}) {
    ASSERT_TRUE(sig.AddRelation(n, a).ok());
  }
  ExpectSemanticallyEqual(input, nf, "S", 1, sig, 37);
}

TEST(RightNormalizeTest, SelectRule) {
  // R ⊆ σ_c(S) ⇒ R ⊆ S, R ⊆ σ_c(D).
  Condition c = Condition::AttrConst(1, CmpOp::kEq, int64_t{2});
  ConstraintSet input{
      Constraint::Contain(Rel("R", 1), Select(c, Rel("S", 1)))};
  RightNormalForm nf = Normalize(input, "S", 1);
  EXPECT_TRUE(ExprEquals(nf.lower_bound, Rel("R", 1)));
  ASSERT_EQ(nf.others.size(), 1u);
  EXPECT_TRUE(ExprEquals(nf.others[0].rhs, Select(c, Dom(1))));
  Signature sig;
  ASSERT_TRUE(sig.AddRelation("R", 1).ok());
  ASSERT_TRUE(sig.AddRelation("S", 1).ok());
  ExpectSemanticallyEqual(input, nf, "S", 1, sig, 41);
}

TEST(RightNormalizeTest, ProductSplitsWithProjections) {
  // R ⊆ S × T with S(1), T(2): π_1(R) ⊆ S, π_{2,3}(R) ⊆ T.
  ConstraintSet input{
      Constraint::Contain(Rel("R", 3), Product(Rel("S", 1), Rel("T", 2)))};
  RightNormalForm nf = Normalize(input, "S", 1);
  EXPECT_TRUE(ExprEquals(nf.lower_bound, Project({1}, Rel("R", 3))));
  ASSERT_EQ(nf.others.size(), 1u);
  EXPECT_TRUE(
      ExprEquals(nf.others[0].lhs, Project({2, 3}, Rel("R", 3))));
  Signature sig;
  for (auto& [n, a] : std::vector<std::pair<std::string, int>>{
           {"R", 3}, {"S", 1}, {"T", 2}}) {
    ASSERT_TRUE(sig.AddRelation(n, a).ok());
  }
  ExpectSemanticallyEqual(input, nf, "S", 1, sig, 43);
}

TEST(RightNormalizeTest, SkolemArgumentMinimizationWithKeys) {
  // R(2) with key {1}: R ⊆ π_{1,2}(S) with S(3) skolemizes the third
  // column; the Skolem should depend only on R's key column.
  ConstraintSet input{
      Constraint::Contain(Rel("R", 2), Project({1, 2}, Rel("S", 3)))};
  Signature keys;
  ASSERT_TRUE(keys.AddRelation("R", 2).ok());
  ASSERT_TRUE(keys.SetKey("R", {1}).ok());
  RightNormalForm nf = Normalize(input, "S", 3, &keys);
  ASSERT_TRUE(ContainsSkolem(nf.lower_bound));
  // Find the Skolem node and inspect its argument indexes.
  std::function<ExprPtr(const ExprPtr&)> find_sk =
      [&](const ExprPtr& e) -> ExprPtr {
    if (e->kind() == ExprKind::kSkolem) return e;
    for (const ExprPtr& ch : e->children()) {
      ExprPtr found = find_sk(ch);
      if (found != nullptr) return found;
    }
    return nullptr;
  };
  ExprPtr sk = find_sk(nf.lower_bound);
  ASSERT_NE(sk, nullptr);
  EXPECT_EQ(sk->indexes(), (std::vector<int>{1}));
}

TEST(RightNormalizeTest, ProjectionWithRepeatedIndexesEmitsEqualities) {
  // R ⊆ π_{1,1}(S) with S(2): forces R's two columns equal.
  ConstraintSet input{
      Constraint::Contain(Rel("R", 2), Project({1, 1}, Rel("S", 2)))};
  RightNormalForm nf = Normalize(input, "S", 2);
  bool has_equality_guard = false;
  for (const Constraint& c : nf.others) {
    if (c.rhs->kind() == ExprKind::kSelect &&
        c.rhs->child(0)->kind() == ExprKind::kDomain) {
      has_equality_guard = true;
    }
  }
  EXPECT_TRUE(has_equality_guard);
}

TEST(RightNormalizeTest, CollapsesMultipleLowerBounds) {
  ConstraintSet input{Constraint::Contain(Rel("A", 1), Rel("S", 1)),
                      Constraint::Contain(Rel("B", 1), Rel("S", 1))};
  RightNormalForm nf = Normalize(input, "S", 1);
  EXPECT_TRUE(nf.others.empty());
  EXPECT_TRUE(ExprEquals(nf.lower_bound, Union(Rel("A", 1), Rel("B", 1))));
}

TEST(RightNormalizeTest, NoOccurrenceGivesEmptyBound) {
  ConstraintSet input{Constraint::Contain(Product(Rel("S", 1), Rel("A", 1)),
                                          Rel("B", 2))};
  RightNormalForm nf = Normalize(input, "S", 1);
  EXPECT_EQ(nf.lower_bound->kind(), ExprKind::kEmpty);
  EXPECT_EQ(nf.others.size(), 1u);
}

}  // namespace
}  // namespace mapcomp
