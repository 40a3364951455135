#include "src/eval/soundness.h"

#include <set>
#include <string>
#include <vector>

#include "src/eval/checker.h"
#include "src/eval/materialize.h"

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
  const bool composed_has_skolem = ContainsSkolem(composed);
  const bool original_has_skolem = ContainsSkolem(original);

  std::mt19937_64 rng(generator_seed);
  for (int i = 0; i < n_instances; ++i) {
    Instance inst = RandomInstanceOver(
        {&problem.sigma1, &problem.sigma2, &problem.sigma3}, &rng,
        options.gen);
    // Encoded once: the repair runs in place on it and every satisfaction
    // check below runs against it. The repaired relations are decoded back
    // into `inst` only when a counterexample or a probe needs the values.
    EncodedInstance encoded(inst, eval.extra_constants);
    std::set<std::string> repaired;
    if (kRepairHalf && i % 2 == 1) {
      RunFeedFixpoint(&encoded, repair_plan, eval, kRepairPasses,
                      /*stats=*/nullptr, &repaired);
    }
    auto decode_repaired = [&] {
      for (const std::string& name : repaired) {
        inst.Set(name, encoded.Decode(name));
      }
      repaired.clear();
    };
    ++out.instances;

    // Original-side Skolem terms get the injective interpretation too: a
    // constraint satisfied under it is satisfied under ∃f, so counting the
    // instance as pipeline-satisfying stays sound; one that fails under it
    // just leaves the instance untested (conservative), never an error.
    bool orig_sat = true;
    for (size_t c = 0; c < original.size(); ++c) {
      MAPCOMP_ASSIGN_OR_RETURN(
          bool sat, Satisfies(encoded, original[c], *original_options[c],
                              &out.eval_stats));
      if (!sat) {
        orig_sat = false;
        break;
      }
    }

    if (orig_sat) {
      ++out.original_satisfied;
      // Soundness direction: the generated instance itself interprets the
      // eliminated symbols, so I ⊨ Σ12 ∪ Σ23 forces I ⊨ Σ13. A failing
      // Skolem-free constraint is a hard counterexample; a failing Skolem
      // constraint under the injective interpretation is inconclusive
      // (some other interpretation might satisfy it).
      bool violated = false;
      bool inconclusive = false;
      std::string failing;
      for (size_t c = 0; c < composed.size(); ++c) {
        MAPCOMP_ASSIGN_OR_RETURN(
            bool sat, Satisfies(encoded, composed[c], *composed_options[c],
                                &out.eval_stats));
        if (!sat) {
          if (composed_options[c] == &skolem_eval) {
            inconclusive = true;
          } else {
            violated = true;
            failing = composed[c].ToString();
            break;
          }
        }
      }
      if (violated) {
        ++out.violations;
        if (static_cast<int>(out.counterexamples.size()) <
            kMaxCounterexamples) {
          decode_repaired();
          out.counterexamples.push_back("violated constraint: " + failing +
                                        "\n" + inst.ToString());
        }
      } else if (inconclusive) {
        ++out.inconclusive_skolem;
      } else {
        ++out.composed_satisfied;
      }
    }

    // Bounded completeness probe: when the instance restricted to
    // σ1 ∪ residual σ2 ∪ σ3 satisfies the composition, an equivalent Σ13
    // promises an extension of the eliminated symbols satisfying the
    // original pipeline — search for one. Exponential; gated to tiny cases.
    if (out.completeness_checked < options.completeness_samples &&
        !composed_has_skolem && !original_has_skolem) {
      decode_repaired();
      Instance restricted = inst.RestrictedTo(result.sigma);
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
