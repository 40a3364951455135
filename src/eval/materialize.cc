#include "src/eval/materialize.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>
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

FeedPlan::FeedPlan(std::vector<RelationFeed> feeds, std::set<Value> constants,
                   EncodedInstance::SchemaPtr schema)
    : schema_(std::move(schema)), constants_(std::move(constants)) {
  if (schema_ == nullptr) {
    std::vector<std::string> targets;
    std::vector<ExprPtr> sources;
    for (const RelationFeed& feed : feeds) {
      targets.push_back(feed.target);
      sources.push_back(feed.source);
    }
    schema_ = std::make_shared<const RelationSchema>(targets, sources);
  }
  auto numbered = [](int id, const std::string& name) {
    if (id < 0) {
      std::cerr << "FeedPlan: the schema does not number relation " << name
                << "\n";
      std::abort();
    }
    return id;
  };
  steps_.resize(feeds.size());
  for (size_t f = 0; f < feeds.size(); ++f) {
    Step& step = steps_[f];
    step.feed = std::move(feeds[f]);
    step.target = numbered(schema_->Find(step.feed.target), step.feed.target);
    NodeTable<NoValue> seen;
    WalkDag(step.feed.source, &seen, [&](const ExprPtr& e) {
      if (e->kind() == ExprKind::kRelation) {
        step.watched.push_back(numbered(schema_->IdOf(*e), e->name()));
      }
      step.domain = step.domain || e->kind() == ExprKind::kDomain ||
                    e->kind() == ExprKind::kUserOp;
      return Visit::kEnter;
    });
    step.self = step.domain ||
                std::find(step.watched.begin(), step.watched.end(),
                          step.target) != step.watched.end();
    step.watched.push_back(step.target);
    std::sort(step.watched.begin(), step.watched.end());
    step.watched.erase(std::unique(step.watched.begin(), step.watched.end()),
                       step.watched.end());
  }
}

int RunFeedFixpoint(EncodedInstance* instance, const FeedPlan& plan,
                    const EvalOptions& options, int max_iterations,
                    EvalStats* stats, std::set<int>* written) {
  if (!instance->schema()->Extends(*plan.schema())) {
    std::cerr << "RunFeedFixpoint: the instance's relation ids are not the "
                 "plan's\n";
    std::abort();
  }
  const std::vector<FeedPlan::Step>& steps = plan.steps();
  // Change clock: every write that changes a relation takes the next tick,
  // and `seen[f]` is the tick up to which feed f has accounted for every
  // write. A feed whose inputs and target are all unchanged since then
  // would reproduce a result its target already holds (or fail the same
  // way again), so it is skipped — the passes, their writes and the
  // iteration count are exactly those of re-evaluating every feed.
  std::vector<int64_t> changed_at(static_cast<size_t>(plan.schema()->size()),
                                  0);
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
      const FeedPlan::Step& step = steps[f];
      // The source's table straight from the walk, written without a
      // decode.
      Result<std::vector<std::shared_ptr<const TupleTable>>> value =
          EvaluateTables({step.feed.source}, *instance, options, stats);
      if (!value.ok()) {
        // A feed we cannot evaluate (e.g. Skolem without interpretation)
        // simply contributes nothing; the caller's satisfaction check
        // reports the truth.
        continue;
      }
      std::shared_ptr<const TupleTable>& table = (*value)[0];
      const bool wrote = step.feed.assign
                             ? instance->Assign(step.target, std::move(table))
                             : instance->Grow(step.target, std::move(table));
      if (!wrote) continue;
      changed = true;
      if (written != nullptr) written->insert(step.target);
      changed_at[static_cast<size_t>(step.target)] = ++clock;
      // A feed blind to its own write has already accounted for it.
      if (!step.self) seen[f] = clock;
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
  // One schema for the fixpoint, the satisfaction check after it and the
  // decode: the input's relations, then every relation leaf of the
  // constraints, resolved. It numbers every relation a feed writes or
  // reads, and a residual the input lacks has an id already.
  std::vector<std::string> names;
  for (const auto& [name, _] : input.relations()) names.push_back(name);
  const auto schema = std::make_shared<const RelationSchema>(
      names, ConstraintSides(constraints));
  // Grow-only even for equalities: starting from empty residuals this
  // computes the least population for constraints monotone in them.
  const FeedPlan plan(CollectFeeds(constraints,
                                   [&residual_set](const std::string& name) {
                                     return residual_set.count(name) > 0;
                                   },
                                   /*assign_equalities=*/false),
                      CollectConstants(constraints), schema);

  // One encoding for the fixpoint and the satisfaction check after it; D
  // is the input's active domain plus the caller's and the plan's
  // constants.
  std::set<Value> constants = options.extra_constants;
  constants.insert(plan.constants().begin(), plan.constants().end());
  EncodedInstance encoded(input, constants, schema);
  MaterializeResult out;
  std::set<int> written;
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
  // Decoded by name once, here.
  out.instance = input;
  for (int id : written) {
    out.instance.Set(encoded.schema()->name(id), encoded.Decode(id));
  }
  return out;
}

}  // namespace mapcomp
