#ifndef MAPCOMP_TESTS_ORACLES_INSTANCE_API_H_
#define MAPCOMP_TESTS_ORACLES_INSTANCE_API_H_

#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/constraints/constraint.h"
#include "src/constraints/signature.h"
#include "src/eval/checker.h"
#include "src/eval/evaluator.h"
#include "src/eval/generator.h"
#include "src/eval/materialize.h"

namespace mapcomp {

// Instance-level forms of library paths that run on EncodedInstance, for
// the tests and bench_eval: each encodes an Instance, runs the library's
// encoded path and decodes what it produced or wrote. The library itself
// never calls them.

/// One root's evaluation, decoded: its arity, its tuple set and the
/// counters its evaluation added. The forms below and the nested-loop
/// oracle (oracle.h) both return it, so kernel ≡ oracle is judged by one
/// Fingerprint().
struct EvalResult {
  int arity = 0;
  std::set<Tuple> tuple_set;
  EvalStats stats;

  const std::set<Tuple>& tuples() const { return tuple_set; }
  /// Canonical serialization of the semantic result (arity + tuples in set
  /// order); stats are excluded. String values are length-prefixed, so two
  /// different tuple sets never serialize alike.
  std::string Fingerprint() const;
};

/// EvaluateTables over `instance`, each root's table decoded; each result's
/// stats are that root's share.
Result<std::vector<EvalResult>> EvaluateMany(const std::vector<ExprPtr>& roots,
                                             const EncodedInstance& instance,
                                             const EvalOptions& options = {});
/// The same on `instance` encoded with D = its active domain plus
/// `options.extra_constants`.
Result<std::vector<EvalResult>> EvaluateMany(const std::vector<ExprPtr>& roots,
                                             const Instance& instance,
                                             const EvalOptions& options = {});
Result<EvalResult> EvaluateFull(const ExprPtr& e,
                                const EncodedInstance& instance,
                                const EvalOptions& options = {});
Result<EvalResult> EvaluateFull(const ExprPtr& e, const Instance& instance,
                                const EvalOptions& options = {});
/// EvaluateFull's tuple set.
Result<std::set<Tuple>> Evaluate(const ExprPtr& e, const Instance& instance,
                                 const EvalOptions& options = {});
/// EvaluateContainment on `instance` encoded as for EvaluateMany.
Result<bool> EvaluateContainment(const ExprPtr& lhs, const ExprPtr& rhs,
                                 bool equality, const Instance& instance,
                                 const EvalOptions& options = {},
                                 EvalStats* stats = nullptr);
/// A ⊨ ξ on `instance` encoded as for EvaluateMany.
Result<bool> Satisfies(const Instance& instance, const Constraint& c,
                       const EvalOptions& options = {},
                       EvalStats* stats = nullptr);
/// A ⊨ Σ on one encoding of `instance` with D = its active domain plus
/// `options.extra_constants` plus CollectConstants(cs).
Result<bool> SatisfiesAll(const Instance& instance, const ConstraintSet& cs,
                          const EvalOptions& options = {},
                          EvalStats* stats = nullptr);

/// Runs RunFeedFixpoint on `instance` encoded with the plan's relation ids
/// and D = its active domain plus `options.extra_constants` and
/// `plan.constants()`, and decodes the relations it wrote back into
/// `instance` by name.
int RunFeedFixpoint(Instance* instance, const FeedPlan& plan,
                    const EvalOptions& options, int max_iterations,
                    EvalStats* stats);
/// The same for a one-off feed list (no constants of its own).
int RunFeedFixpoint(Instance* instance, const std::vector<RelationFeed>& feeds,
                    const EvalOptions& options, int max_iterations,
                    EvalStats* stats);

/// Chase-style repair, as the soundness check runs it on every second
/// instance: starting from `instance`, repeatedly grows every relation that
/// appears bare on the receiving side of a constraint (E ⊆ R, or either
/// side of an equality with a bare relation) with the evaluation of the
/// feeding expression, to a fixpoint. An equality with a bare side
/// *defines* that relation, so the repair assigns it. Feed evaluations run
/// under `options`; D is the instance's active domain plus
/// `options.extra_constants` plus the constants of `cs`. Feeds that fail to
/// evaluate contribute nothing.
Instance RepairTowards(const Instance& instance, const ConstraintSet& cs,
                       const EvalOptions& options = {},
                       int max_iterations = kRepairPasses);

/// Rejection-samples an instance satisfying `cs`; returns NotFound after
/// `attempts` failures.
Result<Instance> RandomInstanceSatisfying(const Signature& sig,
                                          const ConstraintSet& cs,
                                          std::mt19937_64* rng, int attempts,
                                          const GenOptions& options = {});

}  // namespace mapcomp

#endif  // MAPCOMP_TESTS_ORACLES_INSTANCE_API_H_
