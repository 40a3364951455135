#include "src/compose/eliminate.h"

#include <gtest/gtest.h>

#include <random>

#include "src/algebra/builders.h"
#include "src/algebra/print.h"
#include "src/eval/checker.h"
#include "src/eval/generator.h"
#include "src/op/extra_ops.h"
#include "tests/oracles/instance_api.h"

namespace mapcomp {
namespace {

/// Soundness spot-check: every model of `input` must satisfy `output`
/// (output is over a sub-signature, so direct checking suffices).
void ExpectSound(const ConstraintSet& input, const ConstraintSet& output,
                 const Signature& sig, uint64_t seed, int rounds = 60) {
  std::mt19937_64 rng(seed);
  GenOptions gen;
  gen.domain_size = 3;
  gen.max_tuples_per_rel = 3;
  int checked = 0;
  for (int round = 0; round < rounds; ++round) {
    Instance db = RandomInstance(sig, &rng, gen);
    auto sat_in = SatisfiesAll(db, input);
    ASSERT_TRUE(sat_in.ok());
    if (!*sat_in) continue;
    ++checked;
    auto sat_out = SatisfiesAll(db, output);
    ASSERT_TRUE(sat_out.ok());
    EXPECT_TRUE(*sat_out) << "model of input violates output:\n"
                          << db.ToString() << "output:\n"
                          << ConstraintSetToString(output);
  }
  EXPECT_GT(checked, 0) << "no satisfying instances sampled";
}

TEST(EliminateTest, SymbolNotMentioned) {
  ConstraintSet cs{Constraint::Contain(Rel("R", 1), Rel("T", 1))};
  EliminateOutcome out = Eliminate(cs, "S", 1);
  EXPECT_TRUE(out.success);
  EXPECT_EQ(out.step, EliminateStep::kNotMentioned);
}

TEST(EliminateTest, PaperExample4ViewUnfolding) {
  // S = R × T,  π(U) − S ⊆ U  ⇒  π(U) − (R × T) ⊆ U.
  ConstraintSet cs{
      Constraint::Equal(Rel("S", 2), Product(Rel("R", 1), Rel("T", 1))),
      Constraint::Contain(Difference(Project({2, 1}, Rel("U", 2)),
                                     Rel("S", 2)),
                          Rel("U", 2))};
  EliminateOutcome out = Eliminate(cs, "S", 2);
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.step, EliminateStep::kUnfold);
  ASSERT_EQ(out.constraints.size(), 1u);
  EXPECT_TRUE(ExprEquals(
      out.constraints[0].lhs,
      Difference(Project({2, 1}, Rel("U", 2)),
                 Product(Rel("R", 1), Rel("T", 1)))));
}

TEST(EliminateTest, PaperExample4LeftCompose) {
  // R ⊆ S ∩ V, S ⊆ T × U ⇒ R ⊆ (T × U) ∩ V.
  ConstraintSet cs{
      Constraint::Contain(Rel("R", 2), Intersect(Rel("S", 2), Rel("V", 2))),
      Constraint::Contain(Rel("S", 2), Product(Rel("T", 1), Rel("U", 1)))};
  EliminateOutcome out = Eliminate(cs, "S", 2);
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.step, EliminateStep::kLeftCompose);
  // R ⊆ (T × U) ∩ V, split by the output simplifier into two containments.
  ASSERT_EQ(out.constraints.size(), 2u);
  EXPECT_TRUE(ExprEquals(out.constraints[0].rhs,
                         Product(Rel("T", 1), Rel("U", 1))));
  EXPECT_TRUE(ExprEquals(out.constraints[1].rhs, Rel("V", 2)));
}

TEST(EliminateTest, PaperExample4RightCompose) {
  // T × U ⊆ S, S − π(W) ⊆ R ⇒ (T × U) − π(W) ⊆ R.
  ConstraintSet cs{
      Constraint::Contain(Product(Rel("T", 1), Rel("U", 1)), Rel("S", 2)),
      Constraint::Contain(Difference(Rel("S", 2), Project({2, 1}, Rel("W", 2))),
                          Rel("R", 2))};
  // Left compose also succeeds on this input (via the difference identity);
  // disable it to exercise the paper's right-compose illustration verbatim.
  EliminateOptions opts;
  opts.enable_left_compose = false;
  EliminateOutcome out = Eliminate(cs, "S", 2, opts);
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.step, EliminateStep::kRightCompose);
  ASSERT_EQ(out.constraints.size(), 1u);
  EXPECT_TRUE(ExprEquals(
      out.constraints[0].lhs,
      Difference(Product(Rel("T", 1), Rel("U", 1)),
                 Project({2, 1}, Rel("W", 2)))));
}

TEST(EliminateTest, PaperExample5UnfoldBeatsNonMonotoneContexts) {
  // S = R1 × R2, π(R3 − S) ⊆ T1, T2 ⊆ T3 − σ_c(S): neither left nor right
  // compose applies (non-monotone contexts), but unfolding does.
  Condition c = Condition::AttrCmp(1, CmpOp::kEq, 2);
  ConstraintSet cs{
      Constraint::Equal(Rel("S", 2), Product(Rel("R1", 1), Rel("R2", 1))),
      Constraint::Contain(
          Project({1}, Difference(Rel("R3", 2), Rel("S", 2))), Rel("T1", 1)),
      Constraint::Contain(Rel("T2", 2),
                          Difference(Rel("T3", 2), Select(c, Rel("S", 2))))};
  EliminateOutcome out = Eliminate(cs, "S", 2);
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.step, EliminateStep::kUnfold);
  EXPECT_EQ(out.constraints.size(), 2u);

  // Without unfolding, elimination must fail on monotonicity.
  EliminateOptions no_unfold;
  no_unfold.enable_unfold = false;
  EliminateOutcome fail = Eliminate(cs, "S", 2, no_unfold);
  EXPECT_FALSE(fail.success);
  EXPECT_NE(fail.failure_reason.find("monotone"), std::string::npos);
}

TEST(EliminateTest, PaperExamples10Through12LeftCompose) {
  // Examples 7+10: R − S ⊆ T, π(S) ⊆ U ⇒ R ⊆ (U × D) ∪ T.
  ConstraintSet cs{
      Constraint::Contain(Difference(Rel("R", 2), Rel("S", 2)), Rel("T", 2)),
      Constraint::Contain(Project({1}, Rel("S", 2)), Rel("U", 1))};
  EliminateOutcome out = Eliminate(cs, "S", 2);
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.step, EliminateStep::kLeftCompose);
  ASSERT_EQ(out.constraints.size(), 1u);
  EXPECT_TRUE(ExprEquals(
      out.constraints[0].rhs,
      Union(Product(Rel("U", 1), Dom(1)), Rel("T", 2))));

  Signature sig;
  for (auto& [n, a] : std::vector<std::pair<std::string, int>>{
           {"R", 2}, {"S", 2}, {"T", 2}, {"U", 1}}) {
    ASSERT_TRUE(sig.AddRelation(n, a).ok());
  }
  ExpectSound(cs, out.constraints, sig, 101);
}

TEST(EliminateTest, PaperExamples11And12DomainConstraintsVanish) {
  // R ∩ T ⊆ S, U ⊆ π(S): left compose with trivial bound D^r; the
  // resulting domain constraints are deleted entirely (Example 12).
  ConstraintSet cs{
      Constraint::Contain(Intersect(Rel("R", 2), Rel("T", 2)), Rel("S", 2)),
      Constraint::Contain(Rel("U", 1), Project({1}, Rel("S", 2)))};
  EliminateOutcome out = Eliminate(cs, "S", 2);
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.step, EliminateStep::kLeftCompose);
  EXPECT_TRUE(out.constraints.empty());
}

TEST(EliminateTest, PaperExample15RightCompose) {
  // S × T ⊆ U, T ⊆ σ_c(S) × π(R)
  // ⇒ π(T) × T ⊆ U, π(T) ⊆ σ_c(D), π(T) ⊆ π(R).
  Condition c = Condition::AttrConst(1, CmpOp::kEq, int64_t{1});
  ConstraintSet cs{
      Constraint::Contain(Product(Rel("S", 1), Rel("T", 2)), Rel("U", 3)),
      Constraint::Contain(Rel("T", 2),
                          Product(Select(c, Rel("S", 1)),
                                  Project({1}, Rel("R", 2))))};
  EliminateOutcome out = Eliminate(cs, "S", 1);
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.step, EliminateStep::kRightCompose);
  ASSERT_EQ(out.constraints.size(), 3u);
  bool found_main = false;
  for (const Constraint& cc : out.constraints) {
    if (ExprEquals(cc.lhs, Product(Project({1}, Rel("T", 2)), Rel("T", 2)))) {
      found_main = ExprEquals(cc.rhs, Rel("U", 3));
    }
  }
  EXPECT_TRUE(found_main);

  Signature sig;
  for (auto& [n, a] : std::vector<std::pair<std::string, int>>{
           {"S", 1}, {"T", 2}, {"U", 3}, {"R", 2}}) {
    ASSERT_TRUE(sig.AddRelation(n, a).ok());
  }
  ExpectSound(cs, out.constraints, sig, 103);
}

TEST(EliminateTest, PaperExample16DeskolemizationSucceeds) {
  // R ⊆ π(S × (T ∩ U)), S ⊆ σ_c(T): right compose Skolemizes the
  // projection and deskolemize later removes the function.
  Condition c = Condition::AttrConst(1, CmpOp::kLe, int64_t{5});
  ConstraintSet cs{
      Constraint::Contain(
          Rel("R", 1),
          Project({1}, Product(Rel("S", 1),
                               Intersect(Rel("T", 1), Rel("U", 1))))),
      Constraint::Contain(Rel("S", 1), Select(c, Rel("T", 1)))};
  // Force the right-compose path (left compose also succeeds on this one).
  EliminateOptions opts;
  opts.enable_left_compose = false;
  EliminateOutcome out = Eliminate(cs, "S", 1, opts);
  ASSERT_TRUE(out.success) << out.failure_reason;
  EXPECT_EQ(out.step, EliminateStep::kRightCompose);
  for (const Constraint& cc : out.constraints) {
    EXPECT_FALSE(ContainsSkolem(cc.lhs) || ContainsSkolem(cc.rhs))
        << cc.ToString();
  }

  Signature sig;
  for (auto& [n, a] : std::vector<std::pair<std::string, int>>{
           {"R", 1}, {"S", 1}, {"T", 1}, {"U", 1}}) {
    ASSERT_TRUE(sig.AddRelation(n, a).ok());
  }
  ExpectSound(cs, out.constraints, sig, 107);
}

TEST(EliminateTest, PaperExample17DeskolemizationFails) {
  // The Fagin et al. example where eliminating C is impossible; deskolemize
  // must fail at step 3 (repeated function symbol) and C is kept.
  // E,F,C,G binary (the paper's target relation "D" renamed to avoid the
  // reserved active-domain symbol).
  ExprPtr e = Rel("E", 2), f = Rel("F", 2), cc = Rel("C", 2), g = Rel("G", 2);
  Condition sel = Condition::And(Condition::AttrCmp(1, CmpOp::kEq, 3),
                                 Condition::AttrCmp(2, CmpOp::kEq, 5));
  ConstraintSet cs{
      Constraint::Contain(e, f),
      Constraint::Contain(Project({1}, e), Project({1}, cc)),
      Constraint::Contain(Project({2}, e), Project({1}, cc)),
      Constraint::Contain(
          Project({4, 6}, Select(sel, Product(Product(f, cc), cc))), g)};

  // Step 1: F is eliminable (right compose, no Skolems needed).
  EliminateOutcome out_f = Eliminate(cs, "F", 2);
  ASSERT_TRUE(out_f.success) << out_f.failure_reason;

  // Step 2: C cannot be eliminated — deskolemization fails.
  EliminateOutcome out_c = Eliminate(out_f.constraints, "C", 2);
  EXPECT_FALSE(out_c.success);
  EXPECT_NE(out_c.failure_reason.find("step 3"), std::string::npos)
      << out_c.failure_reason;
}

TEST(EliminateTest, RecursiveTransitiveClosureCannotBeEliminated) {
  // §1.3: R ⊆ S, S = tc(S), S ⊆ T — S is involved in a recursive
  // computation and appears on both sides of a constraint.
  const op::Registry& reg = op::Registry::Default();
  ExprPtr tc_s = reg.MakeOp("tc", {Rel("S", 2)}).value();
  ConstraintSet cs{Constraint::Contain(Rel("R", 2), Rel("S", 2)),
                   Constraint::Equal(Rel("S", 2), tc_s),
                   Constraint::Contain(Rel("S", 2), Rel("T", 2))};
  EliminateOutcome out = Eliminate(cs, "S", 2);
  EXPECT_FALSE(out.success);
  EXPECT_NE(out.failure_reason.find("both sides"), std::string::npos);
}

TEST(EliminateTest, DisablingStepsChangesOutcome) {
  ConstraintSet cs{
      Constraint::Contain(Rel("R", 1), Rel("S", 1)),
      Constraint::Contain(Rel("S", 1), Rel("T", 1))};
  EliminateOptions only_right;
  only_right.enable_unfold = false;
  only_right.enable_left_compose = false;
  EliminateOutcome out = Eliminate(cs, "S", 1, only_right);
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.step, EliminateStep::kRightCompose);
  ASSERT_EQ(out.constraints.size(), 1u);
  // Right compose: bound R ⊆ S substituted into S ⊆ T: R ⊆ T.
  EXPECT_TRUE(ExprEquals(out.constraints[0].lhs, Rel("R", 1)));
  EXPECT_TRUE(ExprEquals(out.constraints[0].rhs, Rel("T", 1)));

  EliminateOptions nothing;
  nothing.enable_unfold = false;
  nothing.enable_left_compose = false;
  nothing.enable_right_compose = false;
  EXPECT_FALSE(Eliminate(cs, "S", 1, nothing).success);
}

TEST(EliminateTest, EqualityConstraintsSplitForComposition) {
  // S = R (equality, no complex expression): unfolding handles it, but with
  // unfolding disabled left compose must split the equality and succeed.
  ConstraintSet cs{Constraint::Equal(Rel("S", 1), Rel("R", 1)),
                   Constraint::Contain(Rel("S", 1), Rel("T", 1))};
  EliminateOptions no_unfold;
  no_unfold.enable_unfold = false;
  EliminateOutcome out = Eliminate(cs, "S", 1, no_unfold);
  ASSERT_TRUE(out.success) << out.failure_reason;

  Signature sig;
  for (auto& [n, a] : std::vector<std::pair<std::string, int>>{
           {"S", 1}, {"R", 1}, {"T", 1}}) {
    ASSERT_TRUE(sig.AddRelation(n, a).ok());
  }
  ExpectSound(cs, out.constraints, sig, 109);
}

TEST(EliminateTest, BlowupGuardAborts) {
  // A tiny blowup budget forces failure even when composition would work.
  ConstraintSet cs{
      Constraint::Contain(Rel("R", 1), Rel("S", 1)),
      Constraint::Contain(Rel("S", 1),
                          Union(Union(Rel("T", 1), Rel("U", 1)),
                                Union(Rel("V", 1), Rel("W", 1))))};
  EliminateOptions opts;
  opts.max_blowup_factor = 0;
  EliminateOutcome out = Eliminate(cs, "S", 1, opts);
  EXPECT_FALSE(out.success);
  EXPECT_NE(out.failure_reason.find("blowup"), std::string::npos);
}

TEST(EliminateTest, LeftOuterJoinSecondArgumentBlocksElimination) {
  // lojoin is monotone in arg 1 only; S in arg 2 on a rhs blocks left
  // compose, and right-normalization has no rule for it either.
  const op::Registry& reg = op::Registry::Default();
  ExprPtr lo = reg.MakeOp("lojoin", {Rel("T", 1), Rel("S", 1)},
                          Condition::AttrCmp(1, CmpOp::kEq, 2))
                   .value();
  ConstraintSet cs{Constraint::Contain(Rel("R", 2), lo),
                   Constraint::Contain(Rel("S", 1), Rel("U", 1))};
  EliminateOutcome out = Eliminate(cs, "S", 1);
  EXPECT_FALSE(out.success);
}

TEST(EliminateTest, LeftOuterJoinFirstArgumentComposes) {
  // S in lojoin's first (monotone) argument on the lhs: right compose can
  // substitute the lower bound straight through the user-defined operator.
  const op::Registry& reg = op::Registry::Default();
  ExprPtr lo = reg.MakeOp("lojoin", {Rel("S", 1), Rel("T", 1)},
                          Condition::AttrCmp(1, CmpOp::kEq, 2))
                   .value();
  ConstraintSet cs{Constraint::Contain(Rel("R", 1), Rel("S", 1)),
                   Constraint::Contain(lo, Rel("U", 2))};
  EliminateOutcome out = Eliminate(cs, "S", 1);
  ASSERT_TRUE(out.success) << out.failure_reason;
  EXPECT_EQ(out.step, EliminateStep::kRightCompose);
  ASSERT_EQ(out.constraints.size(), 1u);
  EXPECT_EQ(out.constraints[0].lhs->kind(), ExprKind::kUserOp);
  EXPECT_TRUE(ContainsRelation(out.constraints[0].lhs, "R"));
}

}  // namespace
}  // namespace mapcomp
