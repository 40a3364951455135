// The every-feed-every-pass fixpoint loop. See oracle.h.

#include <utility>

#include "tests/oracles/oracle.h"

namespace mapcomp {
namespace oracle {

int RunFeedFixpoint(Instance* instance, const std::vector<RelationFeed>& feeds,
                    const EvalOptions& options, int max_iterations,
                    EvalStats* stats) {
  int iterations = 0;
  for (int iter = 0; iter < max_iterations; ++iter) {
    iterations = iter + 1;
    bool changed = false;
    for (const RelationFeed& feed : feeds) {
      Result<EvalResult> value =
          mapcomp::EvaluateFull(feed.source, *instance, options);
      if (!value.ok()) continue;  // contributes nothing
      EvalResult result = std::move(value).value();
      if (stats != nullptr) stats->MergeFrom(result.stats);
      if (feed.assign) {
        if (instance->Get(feed.target) != result.tuples()) {
          instance->Set(feed.target, std::move(result.tuple_set));
          changed = true;
        }
        continue;
      }
      const std::set<Tuple>& current = instance->Get(feed.target);
      for (const Tuple& t : result.tuples()) {
        if (current.count(t) == 0) {
          instance->Add(feed.target, t);
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  return iterations;
}

}  // namespace oracle
}  // namespace mapcomp
