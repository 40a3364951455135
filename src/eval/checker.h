#ifndef MAPCOMP_EVAL_CHECKER_H_
#define MAPCOMP_EVAL_CHECKER_H_

#include "src/constraints/constraint.h"
#include "src/constraints/signature.h"
#include "src/eval/evaluator.h"
#include "src/eval/instance.h"

namespace mapcomp {

/// Collects every constant mentioned in selection conditions and literal
/// relations of the constraint set. These are added to the active domain
/// when checking (see EvalOptions::extra_constants). Walks each distinct
/// node of the constraints' interned forest once, however many sides share
/// it.
std::set<Value> CollectConstants(const ConstraintSet& cs);

/// A ⊨ ξ (paper §2) against an encoded instance, whose D was fixed when it
/// was encoded. For equality constraints checks both containments. When
/// `stats` is non-null the evaluation counters of both sides are
/// accumulated into it.
Result<bool> Satisfies(const EncodedInstance& instance, const Constraint& c,
                       const EvalOptions& options = {},
                       EvalStats* stats = nullptr);

/// Searches for an extension of `base` by relations of `extra` (tuples drawn
/// from base's active domain, the constants of `cs` and `fresh_values` new
/// values) satisfying `cs`. Used to test the completeness half of
/// constraint-set equivalence (paper §2) on small cases. Each candidate is
/// encoded once, with D = its active domain plus the constants of `cs`,
/// and every constraint is checked on that encoding under the default
/// EvalOptions. Exponential — keep arities ≤ 2 and domains tiny. Returns
/// the first witness in search order, NotFound if the bounded search space
/// is exhausted, or an error.
Result<Instance> FindExtension(const Instance& base, const Signature& extra,
                               const ConstraintSet& cs, int fresh_values = 1,
                               long long max_candidates = 200000);

}  // namespace mapcomp

#endif  // MAPCOMP_EVAL_CHECKER_H_
