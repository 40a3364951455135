#ifndef MAPCOMP_ALGEBRA_SIMPLIFY_H_
#define MAPCOMP_ALGEBRA_SIMPLIFY_H_

#include <functional>

#include "src/algebra/expr.h"

namespace mapcomp {

/// Optional per-node rewrite hook, used to plug user-defined-operator
/// simplification rules (from the operator registry) into the generic
/// simplifier without a dependency cycle. Returns nullptr when no rewrite
/// applies.
using SimplifyHook = std::function<ExprPtr(const ExprPtr&)>;

/// Algebraic simplification to a fixpoint. Includes the paper's
/// domain-relation identities (§3.4.3):
///
///   E ∪ D^r = D^r    E ∩ D^r = E    E − D^r = ∅    π_I(D^r) = D^|I|
///
/// and empty-relation identities (§3.5.4):
///
///   E ∪ ∅ = E   E ∩ ∅ = ∅   E − ∅ = E   ∅ − E = ∅   σ_c(∅) = ∅   π_I(∅) = ∅
///
/// plus generic cleanups (σ_true(E)=E, σ merge, π∘π composition, identity π,
/// E∪E=E, E−E=∅, constant folding on literal relations).
///
/// NOTE on D: these identities are sound under the convention that the
/// active domain includes every constant mentioned by the constraint set
/// (see Evaluator); this matters only when literal relations are in play.
ExprPtr SimplifyExpr(const ExprPtr& e, const SimplifyHook& hook = nullptr);

/// One top-level rewrite step on `e`, whose children count as simplified:
/// the rewritten node, or nullptr when no rule applies. SimplifyExpr's
/// passes apply it bottom-up.
ExprPtr SimplifyNode(const ExprPtr& e, const SimplifyHook& hook = nullptr);

}  // namespace mapcomp

#endif  // MAPCOMP_ALGEBRA_SIMPLIFY_H_
