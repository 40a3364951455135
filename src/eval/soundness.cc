#include "src/eval/soundness.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/eval/checker.h"
#include "src/eval/materialize.h"
#include "src/runtime/thread_pool.h"

namespace mapcomp {

namespace {

/// Counterexample instances recorded verbatim in the report.
constexpr int kMaxCounterexamples = 3;

bool ConstraintHasSkolem(const Constraint& c) {
  return ContainsSkolem(c.lhs) || ContainsSkolem(c.rhs);
}

/// What checking one instance found. Each lane writes only the outcomes of
/// the instances it checks; CheckComposition folds them in index order.
struct InstanceOutcome {
  Status status = Status::OK();
  bool original_satisfied = false;
  bool inconclusive = false;
  int violated = -1;  ///< the composition's violated constraint, or -1
  /// The instance as checked (repaired), kept only when the fold may print
  /// or probe it, so every other one is freed on its lane.
  std::optional<EncodedInstance> encoded;
  EvalStats stats;
};

}  // namespace

std::string CompositionCheck::Report() const {
  std::string out = "compose-soundness: " + std::to_string(instances) +
                    " instances, " + std::to_string(original_satisfied) +
                    " satisfied the original pipeline, of those " +
                    std::to_string(composed_satisfied) +
                    " satisfied the composition, " +
                    std::to_string(violations) + " violations, " +
                    std::to_string(inconclusive_skolem) +
                    " skolem-inconclusive";
  if (completeness_checked > 0) {
    out += "; completeness probes: " + std::to_string(completeness_witnessed) +
           "/" + std::to_string(completeness_checked) + " witnessed";
  }
  out += "; " + eval_stats.ToString();
  out += sound ? "\nverdict: SOUND on every generated instance\n"
               : "\nverdict: UNSOUND\n";
  for (const std::string& c : counterexamples) {
    out += "counterexample:\n" + c;
  }
  return out;
}

Result<CompositionCheck> CheckComposition(
    const CompositionProblem& problem, const CompositionResult& result,
    uint64_t generator_seed, int n_instances,
    const CompositionCheckOptions& options) {
  CompositionCheck out;
  if (n_instances <= 0) return out;

  ConstraintSet original = problem.sigma12;
  original.insert(original.end(), problem.sigma23.begin(),
                  problem.sigma23.end());
  const ConstraintSet& composed = result.constraints;

  // One shared domain for both sides of the equivalence: the instance's
  // active domain plus the constants of *both* constraint sets — a D that
  // differed between the two checks would make the comparison meaningless.
  // The original side's are the repair's, so every instance is encoded
  // with the D the repair needs.
  const std::set<Value> original_consts = CollectConstants(original);
  EvalOptions eval = options.eval;
  {
    const std::set<Value> composed_consts = CollectConstants(composed);
    eval.extra_constants.insert(original_consts.begin(),
                                original_consts.end());
    eval.extra_constants.insert(composed_consts.begin(),
                                composed_consts.end());
  }

  // Signature of the σ2 symbols the composition eliminated (existentially
  // quantified in Σ13) — the relations a completeness probe must re-invent.
  Signature eliminated;
  {
    std::set<std::string> residual(result.residual_sigma2.begin(),
                                   result.residual_sigma2.end());
    for (const std::string& name : problem.sigma2.names()) {
      if (residual.count(name) == 0) {
        MAPCOMP_RETURN_IF_ERROR(
            eliminated.AddRelation(name, problem.sigma2.ArityOf(name)));
      }
    }
  }
  // The two option sets every satisfaction check picks from: Skolem terms
  // get the injective interpretation, everything else runs as configured.
  // Each constraint's pick is made once, here.
  EvalOptions skolem_eval = eval;
  skolem_eval.skolem_mode = SkolemEvalMode::kInjectiveTerms;
  auto options_of = [&eval, &skolem_eval](const ConstraintSet& cs) {
    std::vector<const EvalOptions*> picked;
    picked.reserve(cs.size());
    for (const Constraint& c : cs) {
      picked.push_back(ConstraintHasSkolem(c) ? &skolem_eval : &eval);
    }
    return picked;
  };
  const std::vector<const EvalOptions*> original_options =
      options_of(original);
  const std::vector<const EvalOptions*> composed_options =
      options_of(composed);

  // Completeness probes need both sides Skolem-free: FindExtension's
  // internal satisfaction checks run under the default (erroring) mode.
  const bool probes = options.completeness_samples > 0 &&
                      !ContainsSkolem(composed) && !ContainsSkolem(original);

  // Every instance is drawn first, in index order, from the one rng, so
  // instance i is the same at any lane count. The draws are alphabet
  // indices; each lane encodes its own instances. The generator numbers
  // the check's relations once, σ1 ∪ σ2 ∪ σ3 in order, and resolves every
  // relation leaf of both constraint sets, so no evaluation below looks a
  // relation up by name.
  std::vector<ExprPtr> sides = ConstraintSides(original);
  for (ExprPtr& side : ConstraintSides(composed)) {
    sides.push_back(std::move(side));
  }
  const InstanceGenerator generator(
      {&problem.sigma1, &problem.sigma2, &problem.sigma3}, options.gen,
      eval.extra_constants, sides);

  // The repair's feeds (every second instance is chase-repaired towards
  // the original pipeline, so the "original satisfied" branch is
  // exercised), analysed once for every repaired instance, in the
  // generator's ids. Every bare receiving side is a feed; an equality with
  // a bare side *defines* that relation, so the repair assigns it (random
  // extra tuples would break S ⊆ E forever), while containments only grow
  // their target.
  const FeedPlan repair_plan(
      CollectFeeds(original, /*keep=*/nullptr, /*assign_equalities=*/true),
      original_consts, generator.schema());
  std::vector<InstanceDraw> draws;
  draws.reserve(static_cast<size_t>(n_instances));
  std::mt19937_64 rng(generator_seed);
  for (int i = 0; i < n_instances; ++i) draws.push_back(generator.Draw(&rng));

  // One instance's check, run on some lane. Only the generator, the
  // constraint sets, the option picks and the feed plan are shared,
  // read-only.
  auto check_instance = [&](int i, InstanceOutcome* o) -> Status {
    // Encoded once: the repair runs in place on it and every satisfaction
    // check below runs against it.
    EncodedInstance encoded =
        generator.Encode(draws[static_cast<size_t>(i)]);
    if (i % 2 == 1) {
      RunFeedFixpoint(&encoded, repair_plan, eval, kRepairPasses,
                      /*stats=*/nullptr, /*written=*/nullptr);
    }
    // Original-side Skolem terms get the injective interpretation too: a
    // constraint satisfied under it is satisfied under ∃f, so counting the
    // instance as pipeline-satisfying stays sound; one that fails under it
    // just leaves the instance untested (conservative), never an error.
    o->original_satisfied = true;
    for (size_t c = 0; c < original.size(); ++c) {
      MAPCOMP_ASSIGN_OR_RETURN(
          bool sat,
          Satisfies(encoded, original[c], *original_options[c], &o->stats));
      if (!sat) {
        o->original_satisfied = false;
        break;
      }
    }
    if (o->original_satisfied) {
      // Soundness direction: the generated instance itself interprets the
      // eliminated symbols, so I ⊨ Σ12 ∪ Σ23 forces I ⊨ Σ13. A failing
      // Skolem-free constraint is a hard counterexample; a failing Skolem
      // constraint under the injective interpretation is inconclusive
      // (some other interpretation might satisfy it).
      for (size_t c = 0; c < composed.size(); ++c) {
        MAPCOMP_ASSIGN_OR_RETURN(
            bool sat,
            Satisfies(encoded, composed[c], *composed_options[c], &o->stats));
        if (!sat) {
          if (composed_options[c] == &skolem_eval) {
            o->inconclusive = true;
          } else {
            o->violated = static_cast<int>(c);
            break;
          }
        }
      }
    }
    if (o->violated >= 0 || probes) o->encoded.emplace(std::move(encoded));
    return Status::OK();
  };

  // Each instance is one task on up to `jobs` lanes. An instance above the
  // lowest failed one so far is skipped: the fold below stops at the lowest
  // failure, so its outcome is never read.
  std::vector<InstanceOutcome> outcomes(static_cast<size_t>(n_instances));
  std::atomic<int> first_failure{n_instances};
  runtime::ParallelFor(
      runtime::GlobalPool(), n_instances,
      [&](int64_t k) {
        const int i = static_cast<int>(k);
        if (i > first_failure.load()) return;
        InstanceOutcome& o = outcomes[static_cast<size_t>(i)];
        o.status = check_instance(i, &o);
        if (o.status.ok()) return;
        int seen = first_failure.load();
        while (i < seen && !first_failure.compare_exchange_weak(seen, i)) {
        }
      },
      std::max(1, options.eval.jobs) - 1);

  // Fold in index order, so the counts, the counterexamples (the three
  // lowest violating instances), the error (the lowest failed instance)
  // and the completeness probes' cut are those of checking the instances
  // one after another.
  for (const InstanceOutcome& o : outcomes) {
    MAPCOMP_RETURN_IF_ERROR(o.status);
    ++out.instances;
    out.eval_stats.MergeFrom(o.stats);
    // Decoded only for a counterexample the report prints or a probe.
    const bool printed = o.original_satisfied && o.violated >= 0 &&
                         static_cast<int>(out.counterexamples.size()) <
                             kMaxCounterexamples;
    const bool probed =
        probes && out.completeness_checked < options.completeness_samples;
    const Instance instance =
        printed || probed ? o.encoded->Decode() : Instance();
    if (o.original_satisfied) {
      ++out.original_satisfied;
      if (o.violated >= 0) {
        ++out.violations;
        if (printed) {
          out.counterexamples.push_back(
              "violated constraint: " +
              composed[static_cast<size_t>(o.violated)].ToString() + "\n" +
              instance.ToString());
        }
      } else if (o.inconclusive) {
        ++out.inconclusive_skolem;
      } else {
        ++out.composed_satisfied;
      }
    }

    // Bounded completeness probe: when the instance restricted to
    // σ1 ∪ residual σ2 ∪ σ3 satisfies the composition, an equivalent Σ13
    // promises an extension of the eliminated symbols satisfying the
    // original pipeline — search for one. Exponential; gated to tiny cases.
    if (probed) {
      Instance restricted = instance.RestrictedTo(result.sigma);
      const EncodedInstance restricted_encoded(
          restricted, eval.extra_constants, generator.schema());
      bool restricted_sat = true;
      for (const Constraint& c : composed) {
        MAPCOMP_ASSIGN_OR_RETURN(
            bool sat,
            Satisfies(restricted_encoded, c, eval, &out.eval_stats));
        if (!sat) {
          restricted_sat = false;
          break;
        }
      }
      if (restricted_sat) {
        Result<Instance> witness =
            FindExtension(restricted, eliminated, original);
        if (witness.ok()) {
          ++out.completeness_checked;
          ++out.completeness_witnessed;
        } else if (witness.status().code() == StatusCode::kNotFound) {
          ++out.completeness_checked;
        }
        // ResourceExhausted: search space too large for the bounded probe;
        // counted as neither checked nor witnessed.
      }
    }
  }

  out.sound = out.violations == 0;
  return out;
}

}  // namespace mapcomp
