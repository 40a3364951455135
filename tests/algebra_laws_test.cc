// Classical relational-algebra laws, validated through the evaluator on
// random instances. These pin down the set semantics of §2 and double as an
// oracle for the evaluator itself.

#include <gtest/gtest.h>

#include <random>

#include "src/algebra/builders.h"
#include "src/eval/evaluator.h"
#include "src/eval/generator.h"
#include "tests/oracles/instance_api.h"

namespace mapcomp {
namespace {

class AlgebraLawsTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(sig_.AddRelation("A", 2).ok());
    ASSERT_TRUE(sig_.AddRelation("B", 2).ok());
    ASSERT_TRUE(sig_.AddRelation("C", 2).ok());
    rng_.seed(GetParam());
  }

  void ExpectEqualOn(const ExprPtr& lhs, const ExprPtr& rhs, int rounds = 12) {
    GenOptions gen;
    gen.domain_size = 3;
    gen.max_tuples_per_rel = 4;
    gen.include_strings = true;
    for (int i = 0; i < rounds; ++i) {
      Instance db = RandomInstance(sig_, &rng_, gen);
      auto l = Evaluate(lhs, db);
      auto r = Evaluate(rhs, db);
      ASSERT_TRUE(l.ok());
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(*l, *r) << db.ToString();
    }
  }

  Signature sig_;
  std::mt19937_64 rng_;
};

TEST_P(AlgebraLawsTest, UnionCommutativeAssociative) {
  ExprPtr a = Rel("A", 2), b = Rel("B", 2), c = Rel("C", 2);
  ExpectEqualOn(Union(a, b), Union(b, a));
  ExpectEqualOn(Union(Union(a, b), c), Union(a, Union(b, c)));
}

TEST_P(AlgebraLawsTest, IntersectionViaDifference) {
  // A ∩ B = A − (A − B).
  ExprPtr a = Rel("A", 2), b = Rel("B", 2);
  ExpectEqualOn(Intersect(a, b), Difference(a, Difference(a, b)));
}

TEST_P(AlgebraLawsTest, DeMorganWithinUniverse) {
  // A − (B ∪ C) = (A − B) ∩ (A − C).
  ExprPtr a = Rel("A", 2), b = Rel("B", 2), c = Rel("C", 2);
  ExpectEqualOn(Difference(a, Union(b, c)),
                Intersect(Difference(a, b), Difference(a, c)));
  // A − (B ∩ C) = (A − B) ∪ (A − C).
  ExpectEqualOn(Difference(a, Intersect(b, c)),
                Union(Difference(a, b), Difference(a, c)));
}

TEST_P(AlgebraLawsTest, ProductDistributesOverUnion) {
  ExprPtr a = Rel("A", 2), b = Rel("B", 2), c = Rel("C", 2);
  ExpectEqualOn(Product(Union(a, b), c),
                Union(Product(a, c), Product(b, c)));
}

TEST_P(AlgebraLawsTest, SelectionCommutesAndSplits) {
  ExprPtr a = Rel("A", 2);
  Condition c1 = Condition::AttrCmp(1, CmpOp::kLe, 2);
  Condition c2 = Condition::AttrConst(1, CmpOp::kNe, int64_t{0});
  ExpectEqualOn(Select(c1, Select(c2, a)), Select(c2, Select(c1, a)));
  ExpectEqualOn(Select(Condition::And(c1, c2), a), Select(c1, Select(c2, a)));
  // σ_{c1 ∨ c2}(A) = σ_{c1}(A) ∪ σ_{c2}(A).
  ExpectEqualOn(Select(Condition::Or(c1, c2), a),
                Union(Select(c1, a), Select(c2, a)));
  // σ_{¬c1}(A) = A − σ_{c1}(A).
  ExpectEqualOn(Select(Condition::Not(c1), a),
                Difference(a, Select(c1, a)));
}

TEST_P(AlgebraLawsTest, SelectionDistributesOverSetOps) {
  ExprPtr a = Rel("A", 2), b = Rel("B", 2);
  Condition c = Condition::AttrCmp(1, CmpOp::kEq, 2);
  ExpectEqualOn(Select(c, Union(a, b)), Union(Select(c, a), Select(c, b)));
  ExpectEqualOn(Select(c, Difference(a, b)),
                Difference(Select(c, a), Select(c, b)));
  ExpectEqualOn(Select(c, Intersect(a, b)),
                Intersect(Select(c, a), Select(c, b)));
}

TEST_P(AlgebraLawsTest, ProjectionDistributesOverUnionOnly) {
  ExprPtr a = Rel("A", 2), b = Rel("B", 2);
  ExpectEqualOn(Project({1}, Union(a, b)),
                Union(Project({1}, a), Project({1}, b)));
}

TEST_P(AlgebraLawsTest, SelectionPushesThroughProduct) {
  // σ on the left columns commutes with ×.
  ExprPtr a = Rel("A", 2), b = Rel("B", 2);
  Condition c = Condition::AttrCmp(1, CmpOp::kEq, 2);
  ExpectEqualOn(Select(c, Product(a, b)), Product(Select(c, a), b));
  // σ on the right columns, shifted.
  ExpectEqualOn(Select(c.ShiftAttrs(2), Product(a, b)),
                Product(a, Select(c, b)));
}

TEST_P(AlgebraLawsTest, JoinAsDerivedOperator) {
  // EquiJoin(A,B, 2=1) equals its π σ × definition.
  ExprPtr manual = Project(
      {1, 2, 4},
      Select(Condition::AttrCmp(2, CmpOp::kEq, 3),
             Product(Rel("A", 2), Rel("B", 2))));
  ExpectEqualOn(EquiJoin(Rel("A", 2), Rel("B", 2), {{2, 1}}), manual);
}

TEST_P(AlgebraLawsTest, DomainAbsorbs) {
  // Semantically: A ∪ D^2 = D^2 and A ∩ D^2 = A (the §3.4.3 identities).
  ExprPtr a = Rel("A", 2);
  ExpectEqualOn(Union(a, Dom(2)), Dom(2), 4);
  ExpectEqualOn(Intersect(a, Dom(2)), a, 4);
  ExpectEqualOn(Difference(a, Dom(2)), EmptyRel(2), 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgebraLawsTest,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace mapcomp
