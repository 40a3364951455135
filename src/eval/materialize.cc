#include "src/eval/materialize.h"

#include <map>
#include <set>
#include <string>
#include <vector>

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

namespace {

/// What a feed depends on, as relation indexes: the relations its source
/// reads plus its target (another feed's write to it can undo a growth or
/// an assignment), and whether the source reads the active domain (a D
/// node, or a user operator, whose kernel is handed the domain).
struct FeedDeps {
  std::vector<int> watched;
  int target = 0;
  bool domain = false;
  /// The feed's own write can change what it reads: it reads its target,
  /// or D (which spans every relation).
  bool self = false;
};

void CollectReads(const ExprPtr& e, std::set<const Expr*>* visited,
                  std::set<std::string>* relations, bool* domain) {
  if (!visited->insert(e.get()).second) return;
  if (e->kind() == ExprKind::kRelation) relations->insert(e->name());
  if (e->kind() == ExprKind::kDomain || e->kind() == ExprKind::kUserOp) {
    *domain = true;
  }
  for (const ExprPtr& c : e->children()) {
    CollectReads(c, visited, relations, domain);
  }
}

}  // namespace

int RunFeedFixpoint(Instance* instance, const std::vector<RelationFeed>& feeds,
                    const EvalOptions& options, int max_iterations,
                    EvalStats* stats) {
  std::map<std::string, int> ids;
  auto id_of = [&ids](const std::string& name) {
    return ids.emplace(name, static_cast<int>(ids.size())).first->second;
  };
  std::vector<FeedDeps> deps(feeds.size());
  for (size_t f = 0; f < feeds.size(); ++f) {
    std::set<const Expr*> visited;
    std::set<std::string> relations;
    CollectReads(feeds[f].source, &visited, &relations, &deps[f].domain);
    deps[f].target = id_of(feeds[f].target);
    deps[f].self = deps[f].domain || relations.count(feeds[f].target) > 0;
    relations.insert(feeds[f].target);
    for (const std::string& r : relations) {
      deps[f].watched.push_back(id_of(r));
    }
  }
  // Change clock: every write that changes a relation takes the next tick,
  // and `seen[f]` is the tick up to which feed f has accounted for every
  // write. A feed whose inputs and target are all unchanged since then
  // would reproduce a result its target already holds (or fail the same
  // way again), so it is skipped — the passes, their writes and the
  // iteration count are exactly those of re-evaluating every feed.
  std::vector<int64_t> changed_at(ids.size(), 0);
  int64_t clock = 0;
  std::vector<int64_t> seen(feeds.size(), -1);
  auto stale = [&](size_t f) {
    const FeedDeps& d = deps[f];
    if (seen[f] < 0 || (d.domain && clock > seen[f])) return true;
    for (int r : d.watched) {
      if (changed_at[static_cast<size_t>(r)] > seen[f]) return true;
    }
    return false;
  };
  // The loop runs on one encoded instance: each feed's result table grows
  // or replaces its target, change is detected on ids, D follows the
  // writes through occurrence counts, and the relations written are
  // decoded back into `instance` once, at the end.
  EncodedInstance encoded(*instance, options.extra_constants);
  std::set<std::string> written;
  int iterations = 0;
  for (int iter = 0; iter < max_iterations; ++iter) {
    iterations = iter + 1;
    bool changed = false;
    for (size_t f = 0; f < feeds.size(); ++f) {
      if (!stale(f)) continue;
      seen[f] = clock;
      const RelationFeed& feed = feeds[f];
      Result<EvalResult> value = EvaluateFull(feed.source, encoded, options);
      if (!value.ok()) {
        // A feed we cannot evaluate (e.g. Skolem without interpretation)
        // simply contributes nothing; the caller's satisfaction check
        // reports the truth.
        continue;
      }
      if (stats != nullptr) stats->MergeFrom(value->stats);
      const bool wrote = feed.assign
                             ? encoded.Assign(feed.target, value->table())
                             : encoded.Grow(feed.target, value->table());
      if (!wrote) continue;
      changed = true;
      written.insert(feed.target);
      changed_at[static_cast<size_t>(deps[f].target)] = ++clock;
      // A feed blind to its own write has already accounted for it.
      if (!deps[f].self) seen[f] = clock;
    }
    if (!changed) break;
  }
  for (const std::string& name : written) {
    instance->Set(name, encoded.Decode(name));
  }
  return iterations;
}

Result<MaterializeResult> PopulateResiduals(
    const Instance& input, const ConstraintSet& constraints,
    const std::vector<std::string>& residuals, const EvalOptions& options,
    int max_iterations) {
  MaterializeResult out;
  out.instance = input;
  std::set<std::string> residual_set(residuals.begin(), residuals.end());
  // Grow-only even for equalities: starting from empty residuals this
  // computes the least population for constraints monotone in them.
  std::vector<RelationFeed> feeds = CollectFeeds(
      constraints,
      [&residual_set](const std::string& name) {
        return residual_set.count(name) > 0;
      },
      /*assign_equalities=*/false);

  EvalOptions opts = options;
  std::set<Value> consts = CollectConstants(constraints);
  opts.extra_constants.insert(consts.begin(), consts.end());

  out.iterations = RunFeedFixpoint(&out.instance, feeds, opts,
                                   max_iterations, &out.eval_stats);
  MAPCOMP_ASSIGN_OR_RETURN(out.satisfied,
                           SatisfiesAll(out.instance, constraints, opts,
                                        &out.eval_stats));
  return out;
}

}  // namespace mapcomp
