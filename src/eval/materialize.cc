#include "src/eval/materialize.h"

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/algebra/dag_walk.h"
#include "src/eval/checker.h"

namespace mapcomp {

std::vector<RelationFeed> CollectFeeds(
    const ConstraintSet& cs,
    const std::function<bool(const std::string&)>& keep,
    bool assign_equalities) {
  auto kept = [&keep](const ExprPtr& e) {
    return e->kind() == ExprKind::kRelation &&
           (keep == nullptr || keep(e->name()));
  };
  std::vector<RelationFeed> feeds;
  for (const Constraint& c : cs) {
    bool equality = c.kind == ConstraintKind::kEquality;
    if (kept(c.rhs)) {
      feeds.push_back(
          RelationFeed{c.rhs->name(), c.lhs, equality && assign_equalities});
    }
    if (equality && kept(c.lhs)) {
      feeds.push_back(RelationFeed{c.lhs->name(), c.rhs, assign_equalities});
    }
  }
  return feeds;
}

FeedPlan::FeedPlan(std::vector<RelationFeed> feeds, std::set<Value> constants)
    : constants_(std::move(constants)) {
  std::map<std::string, int> ids;
  auto id_of = [&](const std::string& name) {
    auto [it, added] = ids.emplace(name, static_cast<int>(relations_.size()));
    if (added) relations_.push_back(name);
    return it->second;
  };
  steps_.reserve(feeds.size());
  for (RelationFeed& feed : feeds) {
    Step step;
    std::set<std::string> reads;
    NodeTable<NoValue> seen;
    WalkDag(feed.source, &seen, [&](const ExprPtr& e) {
      if (e->kind() == ExprKind::kRelation) reads.insert(e->name());
      step.domain = step.domain || e->kind() == ExprKind::kDomain ||
                    e->kind() == ExprKind::kUserOp;
      return Visit::kEnter;
    });
    step.target = id_of(feed.target);
    step.self = step.domain || reads.count(feed.target) > 0;
    reads.insert(feed.target);
    for (const std::string& r : reads) step.watched.push_back(id_of(r));
    step.feed = std::move(feed);
    steps_.push_back(std::move(step));
  }
}

FeedPlan FeedPlan::ForConstraints(
    const ConstraintSet& cs,
    const std::function<bool(const std::string&)>& keep,
    bool assign_equalities) {
  return FeedPlan(CollectFeeds(cs, keep, assign_equalities),
                  CollectConstants(cs));
}

int RunFeedFixpoint(EncodedInstance* instance, const FeedPlan& plan,
                    const EvalOptions& options, int max_iterations,
                    EvalStats* stats, std::set<std::string>* written) {
  const std::vector<FeedPlan::Step>& steps = plan.steps();
  // Change clock: every write that changes a relation takes the next tick,
  // and `seen[f]` is the tick up to which feed f has accounted for every
  // write. A feed whose inputs and target are all unchanged since then
  // would reproduce a result its target already holds (or fail the same
  // way again), so it is skipped — the passes, their writes and the
  // iteration count are exactly those of re-evaluating every feed.
  std::vector<int64_t> changed_at(plan.relations().size(), 0);
  int64_t clock = 0;
  std::vector<int64_t> seen(steps.size(), -1);
  auto stale = [&](size_t f) {
    const FeedPlan::Step& s = steps[f];
    if (seen[f] < 0 || (s.domain && clock > seen[f])) return true;
    for (int r : s.watched) {
      if (changed_at[static_cast<size_t>(r)] > seen[f]) return true;
    }
    return false;
  };
  int iterations = 0;
  for (int iter = 0; iter < max_iterations; ++iter) {
    iterations = iter + 1;
    bool changed = false;
    for (size_t f = 0; f < steps.size(); ++f) {
      if (!stale(f)) continue;
      seen[f] = clock;
      const RelationFeed& feed = steps[f].feed;
      // The source's table straight from the walk, written without a
      // decode.
      Result<std::vector<std::shared_ptr<const TupleTable>>> value =
          EvaluateTables({feed.source}, *instance, options, stats);
      if (!value.ok()) {
        // A feed we cannot evaluate (e.g. Skolem without interpretation)
        // simply contributes nothing; the caller's satisfaction check
        // reports the truth.
        continue;
      }
      std::shared_ptr<const TupleTable>& table = (*value)[0];
      const bool wrote = feed.assign
                             ? instance->Assign(feed.target, std::move(table))
                             : instance->Grow(feed.target, std::move(table));
      if (!wrote) continue;
      changed = true;
      if (written != nullptr) written->insert(feed.target);
      changed_at[static_cast<size_t>(steps[f].target)] = ++clock;
      // A feed blind to its own write has already accounted for it.
      if (!steps[f].self) seen[f] = clock;
    }
    if (!changed) break;
  }
  return iterations;
}

Result<MaterializeResult> PopulateResiduals(
    const Instance& input, const ConstraintSet& constraints,
    const std::vector<std::string>& residuals, const EvalOptions& options,
    int max_iterations) {
  std::set<std::string> residual_set(residuals.begin(), residuals.end());
  // Grow-only even for equalities: starting from empty residuals this
  // computes the least population for constraints monotone in them.
  const FeedPlan plan = FeedPlan::ForConstraints(
      constraints,
      [&residual_set](const std::string& name) {
        return residual_set.count(name) > 0;
      },
      /*assign_equalities=*/false);

  // One encoding for the fixpoint and the satisfaction check after it; D
  // is the input's active domain plus the caller's and the plan's
  // constants.
  std::set<Value> constants = options.extra_constants;
  constants.insert(plan.constants().begin(), plan.constants().end());
  EncodedInstance encoded(input, constants);
  MaterializeResult out;
  std::set<std::string> written;
  out.iterations = RunFeedFixpoint(&encoded, plan, options, max_iterations,
                                   &out.eval_stats, &written);
  out.satisfied = true;
  for (const Constraint& c : constraints) {
    MAPCOMP_ASSIGN_OR_RETURN(bool sat,
                             Satisfies(encoded, c, options, &out.eval_stats));
    if (!sat) {
      out.satisfied = false;
      break;
    }
  }
  out.instance = input;
  for (const std::string& name : written) {
    out.instance.Set(name, encoded.Decode(name));
  }
  return out;
}

}  // namespace mapcomp
