#include "src/algebra/expr.h"

#include <gtest/gtest.h>

#include "src/algebra/builders.h"
#include "src/algebra/print.h"
#include "src/algebra/substitute.h"

namespace mapcomp {
namespace {

TEST(ExprTest, RelationBasics) {
  ExprPtr r = Rel("R", 3);
  EXPECT_EQ(r->kind(), ExprKind::kRelation);
  EXPECT_EQ(r->name(), "R");
  EXPECT_EQ(r->arity(), 3);
  EXPECT_TRUE(ValidateExpr(r).ok());
}

TEST(ExprTest, SetOperatorArities) {
  ExprPtr e = Union(Rel("R", 2), Rel("S", 2));
  EXPECT_EQ(e->arity(), 2);
  ExprPtr p = Product(Rel("R", 2), Rel("S", 3));
  EXPECT_EQ(p->arity(), 5);
  ExprPtr pr = Project({1, 3, 3}, Rel("T", 4));
  EXPECT_EQ(pr->arity(), 3);
  ExprPtr sk = SkolemApp("f", {1}, Rel("R", 2));
  EXPECT_EQ(sk->arity(), 3);
  EXPECT_TRUE(ValidateExpr(Select(Condition::AttrCmp(1, CmpOp::kEq, 5),
                                  Product(Rel("R", 2), Rel("S", 3))))
                  .ok());
}

TEST(ExprTest, StructuralEqualityAndHash) {
  ExprPtr a = Project({1, 2}, Select(Condition::AttrConst(3, CmpOp::kEq,
                                                          int64_t{5}),
                                     Rel("M", 4)));
  ExprPtr b = Project({1, 2}, Select(Condition::AttrConst(3, CmpOp::kEq,
                                                          int64_t{5}),
                                     Rel("M", 4)));
  ExprPtr c = Project({1, 2}, Select(Condition::AttrConst(3, CmpOp::kEq,
                                                          int64_t{6}),
                                     Rel("M", 4)));
  EXPECT_TRUE(ExprEquals(a, b));
  EXPECT_FALSE(ExprEquals(a, c));
  EXPECT_EQ(ExprHash(a), ExprHash(b));
}

TEST(ExprTest, OperatorCount) {
  EXPECT_EQ(OperatorCount(Rel("R", 2)), 1);
  EXPECT_EQ(OperatorCount(Union(Rel("R", 2), Rel("S", 2))), 3);
  EXPECT_EQ(OperatorCount(Project({1}, Select(Condition::True(),
                                              Rel("R", 2)))),
            3);
}

TEST(ExprTest, ContainsAndCollectRelations) {
  ExprPtr e = Difference(Product(Rel("R", 1), Rel("S", 1)),
                         Select(Condition::True(), Rel("T", 2)));
  EXPECT_TRUE(ContainsRelation(e, "R"));
  EXPECT_TRUE(ContainsRelation(e, "T"));
  EXPECT_FALSE(ContainsRelation(e, "U"));
  std::set<std::string> rels;
  CollectRelations(e, &rels);
  EXPECT_EQ(rels, (std::set<std::string>{"R", "S", "T"}));
}

TEST(ExprTest, ContainsSkolemAndDomain) {
  EXPECT_FALSE(ContainsSkolem(Rel("R", 2)));
  EXPECT_TRUE(ContainsSkolem(Project({1}, SkolemApp("f", {1}, Rel("R", 1)))));
  EXPECT_TRUE(ContainsDomain(Union(Rel("R", 2), Dom(2))));
  EXPECT_FALSE(ContainsDomain(Rel("R", 2)));
}

TEST(ExprTest, SubstituteRelation) {
  ExprPtr e = Union(Rel("S", 2), Project({1, 1}, Rel("T", 3)));
  ExprPtr replaced = SubstituteRelation(e, "S", Product(Rel("A", 1),
                                                        Rel("B", 1)));
  EXPECT_FALSE(ContainsRelation(replaced, "S"));
  EXPECT_TRUE(ContainsRelation(replaced, "A"));
  // Untouched subtree is shared, not copied.
  EXPECT_EQ(replaced->child(1), e->child(1));
  // No occurrence: returns the identical node.
  EXPECT_EQ(SubstituteRelation(e, "Z", Rel("A", 2)), e);
}

TEST(ExprTest, RenameRelation) {
  ExprPtr e = Intersect(Rel("S", 2), Rel("T", 2));
  ExprPtr renamed = RenameRelation(e, "S", "S2");
  EXPECT_TRUE(ContainsRelation(renamed, "S2"));
  EXPECT_FALSE(ContainsRelation(renamed, "S"));
}

TEST(ExprTest, PrintBasicForms) {
  EXPECT_EQ(ExprToString(Rel("R", 2)), "R");
  EXPECT_EQ(ExprToString(Dom(2)), "D^2");
  EXPECT_EQ(ExprToString(EmptyRel(3)), "empty^3");
  EXPECT_EQ(ExprToString(Union(Rel("R", 1), Rel("S", 1))), "(R + S)");
  EXPECT_EQ(ExprToString(Difference(Rel("R", 1), Rel("S", 1))), "(R - S)");
  EXPECT_EQ(ExprToString(Intersect(Rel("R", 1), Rel("S", 1))), "(R & S)");
  EXPECT_EQ(ExprToString(Product(Rel("R", 1), Rel("S", 1))), "(R * S)");
  EXPECT_EQ(ExprToString(Project({2, 1}, Rel("R", 2))), "pi[2,1](R)");
  EXPECT_EQ(ExprToString(Select(Condition::AttrCmp(1, CmpOp::kEq, 2),
                                Rel("R", 2))),
            "sel[#1=#2](R)");
  EXPECT_EQ(ExprToString(SkolemApp("f", {1, 2}, Rel("R", 2))), "$f[1,2](R)");
  EXPECT_EQ(ExprToString(Lit(2, {{Value(int64_t{1}), Value(std::string("a"))}})),
            "{(1,'a')}");
}

TEST(ExprTest, EquiJoinExpansion) {
  // R(2) join S(2) on R.2 = S.1 — the derived operator expands to π σ ×.
  ExprPtr j = EquiJoin(Rel("R", 2), Rel("S", 2), {{2, 1}});
  EXPECT_EQ(j->kind(), ExprKind::kProject);
  EXPECT_EQ(j->arity(), 3);
  EXPECT_EQ(j->indexes(), (std::vector<int>{1, 2, 4}));
  const ExprPtr& sel = j->child(0);
  EXPECT_EQ(sel->kind(), ExprKind::kSelect);
  EXPECT_EQ(sel->condition(), Condition::AttrCmp(2, CmpOp::kEq, 3));
}

TEST(ExprTest, ValidateCatchesBrokenNodes) {
  // Hand-build an invalid node to check ValidateExpr (builders would abort).
  ExprPtr bad = Expr::Make(ExprKind::kUnion, "", {Rel("R", 1), Rel("S", 2)},
                           Condition::True(), {}, 1, {});
  EXPECT_FALSE(ValidateExpr(bad).ok());
  ExprPtr bad_proj = Expr::Make(ExprKind::kProject, "", {Rel("R", 2)},
                                Condition::True(), {3}, 1, {});
  EXPECT_FALSE(ValidateExpr(bad_proj).ok());
  ExprPtr bad_sel = Expr::Make(ExprKind::kSelect, "", {Rel("R", 1)},
                               Condition::AttrCmp(1, CmpOp::kEq, 4), {}, 1,
                               {});
  EXPECT_FALSE(ValidateExpr(bad_sel).ok());
}

TEST(ExprTest, IndexHelpers) {
  EXPECT_EQ(IdentityIndexes(3), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(IndexRange(3, 5), (std::vector<int>{3, 4, 5}));
}

}  // namespace
}  // namespace mapcomp
