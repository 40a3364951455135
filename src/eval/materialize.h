#ifndef MAPCOMP_EVAL_MATERIALIZE_H_
#define MAPCOMP_EVAL_MATERIALIZE_H_

#include <functional>
#include <string>
#include <vector>

#include "src/constraints/constraint.h"
#include "src/eval/evaluator.h"

namespace mapcomp {

/// One feeding edge of the evaluate-and-feed fixpoint shared by
/// PopulateResiduals and RepairTowards: a constraint side that is a bare
/// relation symbol receives the evaluation of the other side. With
/// `assign` the target is replaced (an equality *defines* it); otherwise
/// it only grows.
struct RelationFeed {
  std::string target;
  ExprPtr source;
  bool assign = false;
};

/// Collects the feeds of `cs`: every containment E ⊆ R with bare R, and
/// both directions of an equality with a bare side. `keep` filters by
/// target name (null keeps all); `assign_equalities` marks equality feeds
/// as assignments instead of growths.
std::vector<RelationFeed> CollectFeeds(
    const ConstraintSet& cs,
    const std::function<bool(const std::string&)>& keep,
    bool assign_equalities);

/// Runs the feed loop on `instance` until a fixpoint or `max_iterations`:
/// each pass walks the feeds in order and grows (or assigns) each target
/// with its source evaluated against the current instance. The loop is
/// change-driven: a feed is re-evaluated only when a relation its source
/// reads, its own target, or — for a source with a D node or a user
/// operator — any relation changed since its last evaluation, because
/// otherwise re-running it is a no-op. The instance and the pass count are
/// exactly those of re-evaluating every feed on every pass. Feeds that fail
/// to evaluate (e.g. Skolem without an interpretation) contribute nothing.
///
/// The loop is columnar: `instance` is encoded once (an EncodedInstance
/// with D = its active domain plus `options.extra_constants`), each feed's
/// result table grows its target by a sorted-merge union or replaces it
/// for an assignment, change is detected on ids, D is kept up to date from
/// per-id occurrence counts, and the relations written are decoded back
/// into `instance` once, at the end.
///
/// Returns the number of passes used; accumulates the counters of the
/// evaluations actually run into `stats` when non-null.
int RunFeedFixpoint(Instance* instance, const std::vector<RelationFeed>& feeds,
                    const EvalOptions& options, int max_iterations,
                    EvalStats* stats);

/// Outcome of populating residual intermediate relations.
struct MaterializeResult {
  Instance instance;       ///< input plus populated residuals
  bool satisfied = false;  ///< whether the full constraint set now holds
  int iterations = 0;      ///< fixpoint rounds used
  /// Aggregated over every feed evaluation run (RunFeedFixpoint skips the
  /// stale-free ones) and the final satisfaction check.
  EvalStats eval_stats;
};

/// Implements the paper's §1.3 usage note for best-effort composition: "to
/// use the mapping, those non-eliminated σ2-symbols may need to be
/// populated as intermediate relations that will be discarded at the end",
/// e.g. S in  R ⊆ S, S = tc(S), S ⊆ T  is "definable as a recursive view
/// on R".
///
/// Starting from every residual relation empty, repeatedly grows each
/// residual S with the evaluation of
///   * E for every containment E ⊆ S, and
///   * E for every equality S = E or E = S,
/// until a fixpoint (or `max_iterations`). For constraints monotone in the
/// residuals — the common case, including tc — this computes the least
/// population. The result records whether the populated instance satisfies
/// the whole constraint set (it may not when residuals appear in
/// non-monotone positions).
Result<MaterializeResult> PopulateResiduals(
    const Instance& input, const ConstraintSet& constraints,
    const std::vector<std::string>& residuals,
    const EvalOptions& options = {}, int max_iterations = 64);

}  // namespace mapcomp

#endif  // MAPCOMP_EVAL_MATERIALIZE_H_
