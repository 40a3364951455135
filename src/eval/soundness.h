#ifndef MAPCOMP_EVAL_SOUNDNESS_H_
#define MAPCOMP_EVAL_SOUNDNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/compose/compose.h"
#include "src/eval/evaluator.h"
#include "src/eval/generator.h"

namespace mapcomp {

/// Options of the compose-soundness harness.
struct CompositionCheckOptions {
  /// Shape of the generated instances.
  GenOptions gen;
  /// Evaluation options (domain guard, cancel token) applied to every
  /// satisfaction check; `jobs` is the number of lanes the instances are
  /// checked on. `extra_constants` and `skolem_mode` are managed by the
  /// harness itself.
  EvalOptions eval;
  /// Bounded completeness probes: for up to this many instances whose
  /// restriction satisfies the composed mapping, search for an extension of
  /// the eliminated σ2 symbols satisfying the original pipeline
  /// (FindExtension — exponential, keep tiny). 0 disables.
  int completeness_samples = 0;
};

/// Verdict of the semantic soundness check of one composition (paper §2:
/// Σ13 must be equivalent to Σ12 ∪ Σ23 up to existential quantification of
/// the eliminated σ2 symbols).
struct CompositionCheck {
  int instances = 0;            ///< instances generated and checked
  int original_satisfied = 0;   ///< I ⊨ Σ12 ∪ Σ23
  int composed_satisfied = 0;   ///< of those, I ⊨ Σ13 (must be all)
  int violations = 0;           ///< of those, I ⊭ Σ13 — unsoundness witnesses
  /// Original satisfied but a composed constraint containing a Skolem term
  /// failed under the injective interpretation. Not a violation: Skolem
  /// functions are existentially quantified, and the canonical injective
  /// reading is only one candidate interpretation.
  int inconclusive_skolem = 0;
  int completeness_checked = 0;    ///< bounded completeness probes run
  int completeness_witnessed = 0;  ///< probes that found an extension
  bool sound = true;               ///< violations == 0
  std::vector<std::string> counterexamples;
  EvalStats eval_stats;  ///< aggregated over every satisfaction check

  std::string Report() const;
};

/// Semantic soundness harness: generates `n_instances` finite instances
/// over σ1 ∪ σ2 ∪ σ3 from `generator_seed` (deterministic; half of them
/// chase-repaired towards the original pipeline so satisfaction is
/// non-vacuous), and checks that every instance satisfying the original
/// Σ12 ∪ Σ23 also satisfies the composed `result.constraints` — the
/// eliminated σ2 symbols are existentially quantified in the composed
/// mapping, and the generated instance itself provides the witnesses, so a
/// sound composition can never fail this direction. Optionally probes the
/// completeness direction on bounded instances (see
/// CompositionCheckOptions::completeness_samples).
///
/// Both satisfaction checks run under one domain: the instance's active
/// domain plus the constants of *both* constraint sets. Each generated
/// instance is encoded once (EncodedInstance): a repaired one is repaired
/// in place on that encoding (RunFeedFixpoint, with one FeedPlan of the
/// original pipeline built per check), and every satisfaction check runs
/// against it, with each constraint's Skolem mode picked once per check.
/// An Instance is decoded back only for a counterexample's text or a
/// completeness probe. The counts, counterexamples and EvalStats are those
/// of repairing with RepairTowards and checking a fresh encoding.
///
/// Lanes: every instance is drawn first, in index order, from the one
/// generator; then each instance's encoding, repair and satisfaction checks
/// run as one task on up to `options.eval.jobs` lanes (values below 1 mean
/// one lane). Only the feed plan, the option picks and the constraint sets
/// are shared between tasks, read-only. The outcomes are folded in index
/// order, and the completeness probes run during that fold, one after
/// another, so the report — counts, the three lowest-index
/// counterexamples, EvalStats and the completeness cut — is byte-identical
/// at any lane count.
///
/// Errors (e.g. max_domain_tuples exhausted) abort the check with the
/// lowest-index instance's error; a finished check with violations == 0
/// reports sound = true.
Result<CompositionCheck> CheckComposition(
    const CompositionProblem& problem, const CompositionResult& result,
    uint64_t generator_seed, int n_instances,
    const CompositionCheckOptions& options = {});

}  // namespace mapcomp

#endif  // MAPCOMP_EVAL_SOUNDNESS_H_
