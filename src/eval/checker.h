#ifndef MAPCOMP_EVAL_CHECKER_H_
#define MAPCOMP_EVAL_CHECKER_H_

#include "src/constraints/constraint.h"
#include "src/constraints/signature.h"
#include "src/eval/evaluator.h"
#include "src/eval/instance.h"

namespace mapcomp {

/// Collects every constant mentioned in selection conditions and literal
/// relations of the constraint set. These are added to the active domain
/// when checking (see EvalOptions::extra_constants).
std::set<Value> CollectConstants(const ConstraintSet& cs);

/// Adds every constant the `roots` mention (selection-condition constants
/// and literal-relation values) to `constants` and, when `relations` is
/// non-null, the name of every relation they read. Walks each distinct node
/// of their interned forest once, however many roots share it.
void CollectConstants(const std::vector<ExprPtr>& roots,
                      std::set<Value>* constants,
                      std::set<std::string>* relations = nullptr);

/// A ⊨ ξ (paper §2). For equality constraints checks both containments.
/// When `stats` is non-null the evaluation counters of both sides are
/// accumulated into it.
Result<bool> Satisfies(const Instance& instance, const Constraint& c,
                       const EvalOptions& options = {},
                       EvalStats* stats = nullptr);
/// The same against an encoded instance, whose D was fixed when it was
/// encoded (`options.extra_constants` is not read).
Result<bool> Satisfies(const EncodedInstance& instance, const Constraint& c,
                       const EvalOptions& options = {},
                       EvalStats* stats = nullptr);

/// A ⊨ Σ. Automatically adds CollectConstants(cs) to the options' extra
/// constants. Accumulates evaluation counters into `stats` when non-null.
Result<bool> SatisfiesAll(const Instance& instance, const ConstraintSet& cs,
                          const EvalOptions& options = {},
                          EvalStats* stats = nullptr);

/// Searches for an extension of `base` by relations of `extra` (tuples drawn
/// from base's active domain plus `fresh_values` new values) satisfying
/// `cs`. Used to test the completeness half of constraint-set equivalence
/// (paper §2) on small cases. Exponential — keep arities ≤ 2 and domains
/// tiny. Returns the witness instance, NotFound if the bounded search space
/// is exhausted, or an error.
Result<Instance> FindExtension(const Instance& base, const Signature& extra,
                               const ConstraintSet& cs, int fresh_values = 1,
                               long long max_candidates = 200000);

}  // namespace mapcomp

#endif  // MAPCOMP_EVAL_CHECKER_H_
