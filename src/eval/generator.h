#ifndef MAPCOMP_EVAL_GENERATOR_H_
#define MAPCOMP_EVAL_GENERATOR_H_

#include <random>
#include <vector>

#include "src/constraints/constraint.h"
#include "src/constraints/signature.h"
#include "src/eval/evaluator.h"
#include "src/eval/instance.h"

namespace mapcomp {

/// Parameters for random instance generation (used by property tests and
/// the compose-soundness harness).
struct GenOptions {
  int domain_size = 4;          ///< values drawn from integers 0..domain_size-1
  int max_tuples_per_rel = 5;   ///< uniform 0..max per relation
  bool include_strings = false; ///< also draw from a small string pool
};

/// Uniformly random instance over the signature's relations.
Instance RandomInstance(const Signature& sig, std::mt19937_64* rng,
                        const GenOptions& options = {});

/// Uniformly random instance spanning several signatures at once — the
/// (A,B,C) instances over σ1 ∪ σ2 ∪ σ3 the compose-soundness harness
/// evaluates both the original pipeline and the composed mapping against.
Instance RandomInstanceOver(const std::vector<const Signature*>& sigs,
                            std::mt19937_64* rng,
                            const GenOptions& options = {});

/// Rejection-samples an instance satisfying `cs`; returns NotFound after
/// `attempts` failures. Useful to seed soundness property tests.
Result<Instance> RandomInstanceSatisfying(const Signature& sig,
                                          const ConstraintSet& cs,
                                          std::mt19937_64* rng, int attempts,
                                          const GenOptions& options = {});

/// RepairTowards's default pass budget.
inline constexpr int kRepairPasses = 16;

/// Chase-style repair: starting from `instance`, repeatedly grows every
/// relation that appears bare on the receiving side of a constraint
/// (E ⊆ R, or either side of an equality with a bare relation) with the
/// evaluation of the feeding expression, to a fixpoint. For constraint
/// sets that are monotone in the fed relations — every pipeline the
/// simulator emits — this turns an arbitrary instance into one satisfying
/// far more of `cs` than rejection sampling ever hits, which is what makes
/// the soundness harness's "original pipeline satisfied" branch non-vacuous.
/// Feed evaluations run under `options` (jobs, guards). D is the
/// instance's active domain plus `options.extra_constants` plus the
/// constants of `cs` (see FeedPlan::ForConstraints). Returns the repaired
/// instance; feeds that fail to evaluate (e.g. Skolem without an
/// interpretation) contribute nothing. CheckComposition runs the same
/// repair in place on an encoded instance (RunFeedFixpoint), with one
/// FeedPlan for all of its instances.
Instance RepairTowards(const Instance& instance, const ConstraintSet& cs,
                       const EvalOptions& options = {},
                       int max_iterations = kRepairPasses);

}  // namespace mapcomp

#endif  // MAPCOMP_EVAL_GENERATOR_H_
