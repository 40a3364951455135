#include "src/algebra/simplify.h"

#include <gtest/gtest.h>

#include <random>

#include "src/algebra/builders.h"
#include "src/algebra/print.h"
#include "src/eval/checker.h"
#include "src/eval/evaluator.h"
#include "src/eval/generator.h"
#include "tests/oracles/instance_api.h"

namespace mapcomp {
namespace {

TEST(SimplifyTest, DomainIdentities) {
  // §3.4.3: E ∪ D^r = D^r, E ∩ D^r = E, E − D^r = ∅, π_I(D^r) = D^|I|.
  ExprPtr r = Rel("R", 2);
  EXPECT_TRUE(ExprEquals(SimplifyExpr(Union(r, Dom(2))), Dom(2)));
  EXPECT_TRUE(ExprEquals(SimplifyExpr(Intersect(r, Dom(2))), r));
  EXPECT_TRUE(ExprEquals(SimplifyExpr(Intersect(Dom(2), r)), r));
  EXPECT_TRUE(ExprEquals(SimplifyExpr(Difference(r, Dom(2))), EmptyRel(2)));
  EXPECT_TRUE(ExprEquals(SimplifyExpr(Project({1}, Dom(2))), Dom(1)));
}

TEST(SimplifyTest, EmptyIdentities) {
  // §3.5.4: E ∪ ∅ = E, E ∩ ∅ = ∅, E − ∅ = E, ∅ − E = ∅, σ_c(∅) = ∅,
  // π_I(∅) = ∅.
  ExprPtr r = Rel("R", 2);
  EXPECT_TRUE(ExprEquals(SimplifyExpr(Union(r, EmptyRel(2))), r));
  EXPECT_TRUE(
      ExprEquals(SimplifyExpr(Intersect(r, EmptyRel(2))), EmptyRel(2)));
  EXPECT_TRUE(ExprEquals(SimplifyExpr(Difference(r, EmptyRel(2))), r));
  EXPECT_TRUE(
      ExprEquals(SimplifyExpr(Difference(EmptyRel(2), r)), EmptyRel(2)));
  EXPECT_TRUE(ExprEquals(
      SimplifyExpr(Select(Condition::AttrCmp(1, CmpOp::kEq, 2), EmptyRel(2))),
      EmptyRel(2)));
  EXPECT_TRUE(ExprEquals(SimplifyExpr(Project({1}, EmptyRel(2))),
                         EmptyRel(1)));
  EXPECT_TRUE(
      ExprEquals(SimplifyExpr(Product(r, EmptyRel(1))), EmptyRel(3)));
}

TEST(SimplifyTest, GenericCleanups) {
  ExprPtr r = Rel("R", 2);
  EXPECT_TRUE(ExprEquals(SimplifyExpr(Union(r, r)), r));
  EXPECT_TRUE(ExprEquals(SimplifyExpr(Intersect(r, r)), r));
  EXPECT_TRUE(ExprEquals(SimplifyExpr(Difference(r, r)), EmptyRel(2)));
  EXPECT_TRUE(ExprEquals(SimplifyExpr(Select(Condition::True(), r)), r));
  EXPECT_TRUE(ExprEquals(SimplifyExpr(Select(Condition::False(), r)),
                         EmptyRel(2)));
  EXPECT_TRUE(ExprEquals(SimplifyExpr(Project({1, 2}, r)), r));
}

TEST(SimplifyTest, NestedSelectMerge) {
  Condition c1 = Condition::AttrCmp(1, CmpOp::kEq, 2);
  Condition c2 = Condition::AttrConst(1, CmpOp::kNe, int64_t{0});
  ExprPtr merged =
      SimplifyExpr(Select(c1, Select(c2, Rel("R", 2))));
  ASSERT_EQ(merged->kind(), ExprKind::kSelect);
  EXPECT_EQ(merged->child(0)->kind(), ExprKind::kRelation);
  EXPECT_EQ(merged->condition(), Condition::And(c1, c2));
}

TEST(SimplifyTest, ProjectionComposition) {
  ExprPtr e = Project({2, 1}, Project({3, 1}, Rel("R", 3)));
  ExprPtr s = SimplifyExpr(e);
  ASSERT_EQ(s->kind(), ExprKind::kProject);
  EXPECT_EQ(s->indexes(), (std::vector<int>{1, 3}));
  EXPECT_EQ(s->child(0)->kind(), ExprKind::kRelation);
}

TEST(SimplifyTest, LiteralConstantFolding) {
  ExprPtr a = Lit(1, {{Value(int64_t{1})}, {Value(int64_t{2})}});
  ExprPtr b = Lit(1, {{Value(int64_t{2})}, {Value(int64_t{3})}});
  ExprPtr u = SimplifyExpr(Union(a, b));
  ASSERT_EQ(u->kind(), ExprKind::kLiteral);
  EXPECT_EQ(u->tuples().size(), 3u);
  ExprPtr i = SimplifyExpr(Intersect(a, b));
  ASSERT_EQ(i->kind(), ExprKind::kLiteral);
  EXPECT_EQ(i->tuples().size(), 1u);
  ExprPtr d = SimplifyExpr(Difference(a, b));
  ASSERT_EQ(d->kind(), ExprKind::kLiteral);
  EXPECT_EQ(d->tuples().size(), 1u);
  ExprPtr sel = SimplifyExpr(
      Select(Condition::AttrConst(1, CmpOp::kEq, int64_t{2}), a));
  ASSERT_EQ(sel->kind(), ExprKind::kLiteral);
  EXPECT_EQ(sel->tuples().size(), 1u);
}

TEST(SimplifyTest, UserOpHookApplied) {
  const op::Registry& reg = op::Registry::Default();
  ExprPtr aj = reg.MakeOp("antijoin", {Rel("R", 2), EmptyRel(2)},
                          Condition::True())
                   .value();
  SimplifyHook hook = [&reg](const ExprPtr& e) -> ExprPtr {
    const op::OperatorDef* def = reg.Find(e->name());
    return def != nullptr && def->simplify ? def->simplify(e) : nullptr;
  };
  EXPECT_TRUE(ExprEquals(SimplifyExpr(aj, hook), Rel("R", 2)));
}

/// Property: simplification preserves semantics on random instances.
class SimplifySemanticsTest : public ::testing::TestWithParam<int> {};

/// Builds a random expression over R(2), S(2), U(1) of bounded depth.
ExprPtr RandomExpr(std::mt19937_64* rng, int depth, int want_arity) {
  std::uniform_int_distribution<int> op_dist(0, 7);
  if (depth == 0) {
    switch (op_dist(*rng) % 4) {
      case 0:
        return want_arity == 2 ? Rel("R", 2) : Rel("U", 1);
      case 1:
        return want_arity == 2 ? Rel("S", 2) : Rel("U", 1);
      case 2:
        return EmptyRel(want_arity);
      default:
        return Dom(want_arity);
    }
  }
  switch (op_dist(*rng)) {
    case 0:
      return Union(RandomExpr(rng, depth - 1, want_arity),
                   RandomExpr(rng, depth - 1, want_arity));
    case 1:
      return Intersect(RandomExpr(rng, depth - 1, want_arity),
                       RandomExpr(rng, depth - 1, want_arity));
    case 2:
      return Difference(RandomExpr(rng, depth - 1, want_arity),
                        RandomExpr(rng, depth - 1, want_arity));
    case 3: {
      if (want_arity < 2) break;
      return Product(RandomExpr(rng, depth - 1, 1),
                     RandomExpr(rng, depth - 1, want_arity - 1));
    }
    case 4: {
      ExprPtr inner = RandomExpr(rng, depth - 1, 2);
      std::uniform_int_distribution<int> idx(1, 2);
      std::vector<int> indexes;
      for (int i = 0; i < want_arity; ++i) indexes.push_back(idx(*rng));
      return Project(indexes, inner);
    }
    case 5: {
      ExprPtr inner = RandomExpr(rng, depth - 1, want_arity);
      Condition c =
          want_arity >= 2
              ? Condition::AttrCmp(1, CmpOp::kEq, 2)
              : Condition::AttrConst(1, CmpOp::kLe, int64_t{1});
      return Select(c, inner);
    }
    default:
      break;
  }
  return RandomExpr(rng, 0, want_arity);
}

TEST_P(SimplifySemanticsTest, RandomExpressionsPreserved) {
  std::mt19937_64 rng(GetParam());
  Signature sig;
  ASSERT_TRUE(sig.AddRelation("R", 2).ok());
  ASSERT_TRUE(sig.AddRelation("S", 2).ok());
  ASSERT_TRUE(sig.AddRelation("U", 1).ok());
  GenOptions gen;
  gen.domain_size = 3;
  gen.max_tuples_per_rel = 3;
  for (int round = 0; round < 20; ++round) {
    ExprPtr e = RandomExpr(&rng, 3, 2);
    ExprPtr s = SimplifyExpr(e);
    for (int inst = 0; inst < 3; ++inst) {
      Instance db = RandomInstance(sig, &rng, gen);
      auto before = Evaluate(e, db);
      auto after = Evaluate(s, db);
      ASSERT_TRUE(before.ok()) << ExprToString(e);
      ASSERT_TRUE(after.ok()) << ExprToString(s);
      EXPECT_EQ(*before, *after)
          << "expr: " << ExprToString(e) << "\nsimplified: " << ExprToString(s);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplifySemanticsTest,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace mapcomp
