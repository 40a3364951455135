#ifndef MAPCOMP_EVAL_MATERIALIZE_H_
#define MAPCOMP_EVAL_MATERIALIZE_H_

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/constraints/constraint.h"
#include "src/eval/evaluator.h"

namespace mapcomp {

/// One feeding edge of the evaluate-and-feed fixpoint shared by
/// PopulateResiduals and the soundness check's repair: a constraint side
/// that is a bare relation symbol receives the evaluation of the other
/// side. With `assign` the target is replaced (an equality *defines* it);
/// otherwise it only grows.
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

/// The feeds of one fixpoint, analysed once and reused for every instance
/// it runs on: the feeds in order, each feed's target and dependencies as
/// ids of the plan's RelationSchema, and the constants D must hold.
/// Immutable, so one plan serves every instance of a soundness check, on
/// any thread.
class FeedPlan {
 public:
  /// A feed and what it depends on: the relations its source reads plus
  /// its target (another feed's write to it can undo a growth or an
  /// assignment), and whether the source reads the active domain (a D
  /// node, or a user operator, whose kernel is handed the domain).
  struct Step {
    RelationFeed feed;
    int target = 0;
    std::vector<int> watched;
    bool domain = false;
    /// The feed's own write can change what it reads: it reads its target,
    /// or D (which spans every relation).
    bool self = false;
  };

  /// Analyses `feeds`, which run in order, in one walk of each source;
  /// `constants` are the values every run's D must hold besides the
  /// instance's active domain. The plan's ids are `schema`'s, which must
  /// number every relation a feed writes or reads: each source leaf's id
  /// is RelationSchema::IdOf (one pointer probe for a leaf the schema
  /// resolved), each target's RelationSchema::Find. A relation the schema
  /// lacks is a caller error, reported on stderr before aborting. Without
  /// a schema, the plan numbers its feeds' own relations: the targets
  /// first, then the relation leaves of the sources.
  explicit FeedPlan(std::vector<RelationFeed> feeds,
                    std::set<Value> constants = {},
                    EncodedInstance::SchemaPtr schema = nullptr);

  const std::vector<Step>& steps() const { return steps_; }
  /// The ids the steps use: every feed's target and every relation a
  /// source reads are numbered here.
  const EncodedInstance::SchemaPtr& schema() const { return schema_; }
  const std::set<Value>& constants() const { return constants_; }

 private:
  std::vector<Step> steps_;
  EncodedInstance::SchemaPtr schema_;
  std::set<Value> constants_;
};

/// Runs the feed loop on `instance`, in place, until a fixpoint or
/// `max_iterations`: each pass walks the plan's feeds in order and grows
/// (EncodedInstance::Grow) or assigns (EncodedInstance::Assign) each
/// target, by id, with its source evaluated against the current instance.
/// The instance's schema must be the plan's or extend it (an instance
/// encoded with the plan's schema does), so the plan's ids are its ids. D
/// was fixed when `instance` was encoded and must hold `plan.constants()`;
/// after a write it follows the relations (see EncodedInstance).
///
/// The loop is change-driven: a feed is re-evaluated only when a relation
/// its source reads, its own target, or — for a source with a D node or a
/// user operator — any relation changed since its last evaluation, because
/// otherwise re-running it is a no-op. The instance and the pass count are
/// exactly those of re-evaluating every feed on every pass. Feeds that fail
/// to evaluate (e.g. Skolem without an interpretation) contribute nothing.
///
/// Returns the number of passes used; accumulates the counters of the
/// evaluations actually run into `stats` and adds the ids of the relations
/// it changed to `written`, each when non-null.
int RunFeedFixpoint(EncodedInstance* instance, const FeedPlan& plan,
                    const EvalOptions& options, int max_iterations,
                    EvalStats* stats, std::set<int>* written);

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
///
/// One RelationSchema — the input's relation names, then every relation
/// leaf of `constraints`, resolved — numbers the feed plan, the one
/// encoding of `input` the fixpoint and the satisfaction check run on, and
/// the decode of the residuals written.
Result<MaterializeResult> PopulateResiduals(
    const Instance& input, const ConstraintSet& constraints,
    const std::vector<std::string>& residuals,
    const EvalOptions& options = {}, int max_iterations = 64);

}  // namespace mapcomp

#endif  // MAPCOMP_EVAL_MATERIALIZE_H_
