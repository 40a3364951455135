#ifndef MAPCOMP_TESTS_ORACLES_INSTANCE_API_H_
#define MAPCOMP_TESTS_ORACLES_INSTANCE_API_H_

#include <random>
#include <vector>

#include "src/constraints/constraint.h"
#include "src/constraints/signature.h"
#include "src/eval/generator.h"
#include "src/eval/materialize.h"

namespace mapcomp {

// Instance-level forms of library paths that run on EncodedInstance, for
// the tests: each encodes an Instance, runs the library's encoded path and
// decodes what it wrote. The library itself never calls them.

/// Runs RunFeedFixpoint on `instance` encoded with D = its active domain
/// plus `options.extra_constants` and `plan.constants()`, and decodes the
/// relations it wrote back into `instance`.
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
