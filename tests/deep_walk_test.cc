// A 100 000-deep expression built in process, without the parser, whose
// 512-level bound keeps such inputs away from the passes that still
// recurse. Every pass that walks on an explicit stack (dag_walk.h and the
// printer) takes it, and one Sweep reclaims it.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/algebra/builders.h"
#include "src/algebra/interner.h"
#include "src/algebra/print.h"
#include "src/algebra/simplify.h"
#include "src/algebra/substitute.h"
#include "src/compose/monotone.h"
#include "src/constraints/constraint.h"
#include "src/eval/checker.h"

namespace mapcomp {
namespace {

TEST(DeepWalkTest, HundredThousandDeepChain) {
  constexpr int kDepth = 100000;
  ExprInterner& interner = ExprInterner::Global();
  interner.Sweep();
  const size_t baseline = interner.size();
  {
    // (…(((π1($f[1](σ[#1=7](R))) + ∅) & A) + A) - B) … + A), one level
    // per operator: the base has depth 5, each level adds one.
    const ExprPtr a = Rel("A", 1);
    const ExprPtr b = Rel("B", 1);
    const ExprPtr base = Union(
        Project({1}, SkolemApp("f", {1},
                               Select(Condition::AttrConst(
                                          1, CmpOp::kEq, Value(int64_t{7})),
                                      Rel("R", 1)))),
        EmptyRel(1));
    ExprPtr e = base;
    size_t a_uses = 0;
    for (int level = base->depth(); level < kDepth; ++level) {
      switch (level % 3) {
        case 0:
          e = Union(e, a);
          ++a_uses;
          break;
        case 1:
          e = Difference(e, b);
          break;
        default:
          e = Intersect(e, a);
          ++a_uses;
      }
    }
    ASSERT_EQ(e->depth(), kDepth);

    // Each level prints "(" + inner + " op X" + ")": six characters.
    const std::string text = ExprToString(e);
    EXPECT_EQ(text.size(), ExprToString(base).size() +
                               6 * static_cast<size_t>(kDepth - base->depth()));
    EXPECT_EQ(text.compare(text.size() - 5, 5, " + A)"), 0);
    const ConstraintSet cs{Constraint::Contain(e, Rel("T", 1))};
    EXPECT_EQ(ConstraintSetToString(cs), text + " <= T;\n");

    EXPECT_TRUE(ValidateExpr(e).ok());
    EXPECT_TRUE(ContainsRelation(e, "R"));
    EXPECT_FALSE(ContainsRelation(e, "Z"));
    std::set<std::string> names;
    CollectRelations(e, &names);
    EXPECT_EQ(names, (std::set<std::string>{"A", "B", "R"}));
    EXPECT_EQ(CollectConstants(cs), std::set<Value>{Value(int64_t{7})});
    EXPECT_EQ(CheckMonotone(e, "A"), Mono::kMonotone);
    EXPECT_EQ(CheckMonotone(e, "B"), Mono::kAnti);

    // The rewrites rebuild every level above the leaf they change.
    const ExprPtr simplified = SimplifyExpr(e);
    EXPECT_EQ(simplified->depth(), kDepth - 1);
    EXPECT_EQ(simplified->op_count(), e->op_count() - 2);  // ∪ ∅ is gone
    EXPECT_TRUE(ValidateExpr(simplified).ok());
    const ExprPtr substituted = SubstituteRelation(e, "R", Rel("Z", 1));
    EXPECT_EQ(substituted->depth(), kDepth);
    EXPECT_FALSE(ContainsRelation(substituted, "R"));
    EXPECT_TRUE(ContainsRelation(substituted, "Z"));
    const ExprPtr renamed = RenameRelation(e, "A", "A2");
    EXPECT_FALSE(ContainsRelation(renamed, "A"));
    EXPECT_EQ(ExprToString(renamed).size(), text.size() + a_uses);
  }
  // Everything built above is garbage now; one Sweep frees all of it,
  // rebuilding each shard once.
  const uint64_t sweeps_before = interner.Stats().sweeps();
  interner.Sweep();
  EXPECT_EQ(interner.size(), baseline);
  EXPECT_LE(interner.Stats().sweeps() - sweeps_before,
            2 * ExprInterner::kNumShards);
}

}  // namespace
}  // namespace mapcomp
