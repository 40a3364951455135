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

/// Every second generated instance is chase-repaired towards the original
/// pipeline (see RepairTowards) so the "original satisfied" branch is
/// exercised.
constexpr bool kRepairHalf = true;
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
  /// The relations the repair changed, still encoded in `encoded`. Kept
  /// only when the fold may print or probe the instance, and decoded only
  /// if it does.
  std::set<std::string> repaired;
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
  EvalOptions eval = options.eval;
  {
    std::set<Value> consts = CollectConstants(original);
    std::set<Value> composed_consts = CollectConstants(composed);
    consts.insert(composed_consts.begin(), composed_consts.end());
    eval.extra_constants.insert(consts.begin(), consts.end());
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

  // The repair's feeds, analysed once for every repaired instance. Its
  // constants are already in `eval.extra_constants`, so every instance
  // below is encoded with the D the repair needs.
  const FeedPlan repair_plan = FeedPlan::ForConstraints(
      original, /*keep=*/nullptr, /*assign_equalities=*/true);

  // Completeness probes need both sides Skolem-free: FindExtension's
  // internal satisfaction checks run under the default (erroring) mode.
  const bool probes = options.completeness_samples > 0 &&
                      !ContainsSkolem(composed) && !ContainsSkolem(original);

  // Every instance is drawn first, in index order, from the one generator,
  // so instance i is the same at any lane count.
  std::vector<Instance> instances;
  instances.reserve(static_cast<size_t>(n_instances));
  std::mt19937_64 rng(generator_seed);
  for (int i = 0; i < n_instances; ++i) {
    instances.push_back(RandomInstanceOver(
        {&problem.sigma1, &problem.sigma2, &problem.sigma3}, &rng,
        options.gen));
  }

  // One instance's check, run on some lane. Only the constraint sets, the
  // option picks and the feed plan are shared, read-only.
  auto check_instance = [&](int i, InstanceOutcome* o) -> Status {
    // Encoded once: the repair runs in place on it and every satisfaction
    // check below runs against it.
    EncodedInstance encoded(instances[static_cast<size_t>(i)],
                            eval.extra_constants);
    std::set<std::string> repaired;
    if (kRepairHalf && i % 2 == 1) {
      RunFeedFixpoint(&encoded, repair_plan, eval, kRepairPasses,
                      /*stats=*/nullptr, &repaired);
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
    if (!repaired.empty() && (o->violated >= 0 || probes)) {
      o->repaired = std::move(repaired);
      o->encoded.emplace(std::move(encoded));
    }
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

  // Instance i with the repair's writes decoded into it: only the
  // counterexamples the fold keeps and the instances it probes are.
  auto repaired_instance = [&](size_t i) -> const Instance& {
    InstanceOutcome& o = outcomes[i];
    for (const std::string& name : o.repaired) {
      instances[i].Set(name, o.encoded->Decode(name));
    }
    o.repaired.clear();
    o.encoded.reset();
    return instances[i];
  };

  // Fold in index order, so the counts, the counterexamples (the three
  // lowest violating instances), the error (the lowest failed instance)
  // and the completeness probes' cut are those of checking the instances
  // one after another.
  for (size_t i = 0; i < outcomes.size(); ++i) {
    InstanceOutcome& o = outcomes[i];
    MAPCOMP_RETURN_IF_ERROR(o.status);
    ++out.instances;
    out.eval_stats.MergeFrom(o.stats);
    if (o.original_satisfied) {
      ++out.original_satisfied;
      if (o.violated >= 0) {
        ++out.violations;
        if (static_cast<int>(out.counterexamples.size()) <
            kMaxCounterexamples) {
          out.counterexamples.push_back(
              "violated constraint: " +
              composed[static_cast<size_t>(o.violated)].ToString() + "\n" +
              repaired_instance(i).ToString());
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
    if (probes && out.completeness_checked < options.completeness_samples) {
      Instance restricted = repaired_instance(i).RestrictedTo(result.sigma);
      const EncodedInstance restricted_encoded(restricted,
                                               eval.extra_constants);
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
