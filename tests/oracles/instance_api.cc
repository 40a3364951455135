// Instance-level forms of the encoded library paths. See instance_api.h.

#include "tests/oracles/instance_api.h"

#include <set>
#include <string>
#include <utility>

#include "src/eval/tuple_table.h"

namespace mapcomp {

std::string EvalResult::Fingerprint() const {
  std::string out = "eval{arity=" + std::to_string(arity) +
                    ";n=" + std::to_string(tuple_set.size()) + ";";
  for (const Tuple& t : tuple_set) {
    out += "t" + std::to_string(t.size()) + ":";
    for (const Value& v : t) {
      if (const int64_t* i = std::get_if<int64_t>(&v)) {
        out += "i" + std::to_string(*i) + ";";
      } else {
        const std::string& s = std::get<std::string>(v);
        out += "s" + std::to_string(s.size()) + ":" + s + ";";
      }
    }
  }
  return out + "}";
}

Result<std::vector<EvalResult>> EvaluateMany(const std::vector<ExprPtr>& roots,
                                             const EncodedInstance& instance,
                                             const EvalOptions& options) {
  std::vector<EvalStats> root_stats;
  MAPCOMP_ASSIGN_OR_RETURN(
      auto tables,
      EvaluateTables(roots, instance, options, nullptr, &root_stats));
  std::vector<EvalResult> out(roots.size());
  for (size_t i = 0; i < roots.size(); ++i) {
    out[i].arity = roots[i]->arity();
    out[i].tuple_set = tables[i]->ToSet(*instance.dict());
    out[i].stats = root_stats[i];
  }
  return out;
}

Result<std::vector<EvalResult>> EvaluateMany(const std::vector<ExprPtr>& roots,
                                             const Instance& instance,
                                             const EvalOptions& options) {
  return EvaluateMany(roots,
                      EncodedInstance(instance, options.extra_constants),
                      options);
}

Result<EvalResult> EvaluateFull(const ExprPtr& e,
                                const EncodedInstance& instance,
                                const EvalOptions& options) {
  MAPCOMP_ASSIGN_OR_RETURN(std::vector<EvalResult> out,
                           EvaluateMany({e}, instance, options));
  return std::move(out[0]);
}

Result<EvalResult> EvaluateFull(const ExprPtr& e, const Instance& instance,
                                const EvalOptions& options) {
  return EvaluateFull(e, EncodedInstance(instance, options.extra_constants),
                      options);
}

Result<std::set<Tuple>> Evaluate(const ExprPtr& e, const Instance& instance,
                                 const EvalOptions& options) {
  MAPCOMP_ASSIGN_OR_RETURN(EvalResult out, EvaluateFull(e, instance, options));
  return std::move(out.tuple_set);
}

Result<bool> EvaluateContainment(const ExprPtr& lhs, const ExprPtr& rhs,
                                 bool equality, const Instance& instance,
                                 const EvalOptions& options,
                                 EvalStats* stats) {
  return EvaluateContainment(
      lhs, rhs, equality, EncodedInstance(instance, options.extra_constants),
      options, stats);
}

Result<bool> Satisfies(const Instance& instance, const Constraint& c,
                       const EvalOptions& options, EvalStats* stats) {
  return Satisfies(EncodedInstance(instance, options.extra_constants), c,
                   options, stats);
}

Result<bool> SatisfiesAll(const Instance& instance, const ConstraintSet& cs,
                          const EvalOptions& options, EvalStats* stats) {
  std::set<Value> constants = options.extra_constants;
  const std::set<Value> cs_constants = CollectConstants(cs);
  constants.insert(cs_constants.begin(), cs_constants.end());
  const EncodedInstance encoded(instance, constants);
  for (const Constraint& c : cs) {
    MAPCOMP_ASSIGN_OR_RETURN(bool sat, Satisfies(encoded, c, options, stats));
    if (!sat) return false;
  }
  return true;
}

int RunFeedFixpoint(Instance* instance, const FeedPlan& plan,
                    const EvalOptions& options, int max_iterations,
                    EvalStats* stats) {
  std::set<Value> constants = options.extra_constants;
  constants.insert(plan.constants().begin(), plan.constants().end());
  EncodedInstance encoded(*instance, constants, plan.schema());
  std::set<int> written;
  const int iterations = RunFeedFixpoint(&encoded, plan, options,
                                         max_iterations, stats, &written);
  for (int id : written) {
    instance->Set(encoded.schema()->name(id), encoded.Decode(id));
  }
  return iterations;
}

int RunFeedFixpoint(Instance* instance, const std::vector<RelationFeed>& feeds,
                    const EvalOptions& options, int max_iterations,
                    EvalStats* stats) {
  return RunFeedFixpoint(instance, FeedPlan(feeds), options, max_iterations,
                         stats);
}

Instance RepairTowards(const Instance& instance, const ConstraintSet& cs,
                       const EvalOptions& options, int max_iterations) {
  Instance out = instance;
  RunFeedFixpoint(&out,
                  FeedPlan(CollectFeeds(cs, /*keep=*/nullptr,
                                        /*assign_equalities=*/true),
                           CollectConstants(cs)),
                  options, max_iterations, /*stats=*/nullptr);
  return out;
}

Result<Instance> RandomInstanceSatisfying(const Signature& sig,
                                          const ConstraintSet& cs,
                                          std::mt19937_64* rng, int attempts,
                                          const GenOptions& options) {
  for (int i = 0; i < attempts; ++i) {
    Instance candidate = RandomInstance(sig, rng, options);
    MAPCOMP_ASSIGN_OR_RETURN(bool sat, SatisfiesAll(candidate, cs));
    if (sat) return candidate;
  }
  return Status::NotFound("no satisfying instance within attempt budget");
}

}  // namespace mapcomp
