// Instance-level forms of the encoded library paths. See instance_api.h.

#include "tests/oracles/instance_api.h"

#include <set>
#include <string>

#include "src/eval/checker.h"

namespace mapcomp {

int RunFeedFixpoint(Instance* instance, const FeedPlan& plan,
                    const EvalOptions& options, int max_iterations,
                    EvalStats* stats) {
  std::set<Value> constants = options.extra_constants;
  constants.insert(plan.constants().begin(), plan.constants().end());
  EncodedInstance encoded(*instance, constants);
  std::set<std::string> written;
  const int iterations = RunFeedFixpoint(&encoded, plan, options,
                                         max_iterations, stats, &written);
  for (const std::string& name : written) {
    instance->Set(name, encoded.Decode(name));
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
                  FeedPlan::ForConstraints(cs, /*keep=*/nullptr,
                                           /*assign_equalities=*/true),
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
