#ifndef MAPCOMP_EVAL_EVALUATOR_H_
#define MAPCOMP_EVAL_EVALUATOR_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/algebra/expr.h"
#include "src/common/cancel.h"
#include "src/common/status.h"
#include "src/eval/instance.h"
#include "src/op/registry.h"

namespace mapcomp {

class TupleTable;
class ValueDict;

/// How the evaluator treats Skolem operator nodes.
enum class SkolemEvalMode {
  /// Evaluating a Skolem node is an error (the default — Skolem functions
  /// are existentially quantified, so a fixed interpretation is generally
  /// not meaningful).
  kError,
  /// Interpret every Skolem function as the canonical injective term
  /// constructor: f(v1..vk) ↦ the string "f(v1,..,vk)". Useful in tests.
  kInjectiveTerms,
};

/// Evaluation options.
struct EvalOptions {
  /// Extra values added to the active domain. Following the paper's use of
  /// D in rewrite identities, the checker passes every constant mentioned in
  /// the constraint set being checked, which keeps identities such as
  /// E ∪ D^r = D^r sound in the presence of literal relations.
  std::set<Value> extra_constants;
  SkolemEvalMode skolem_mode = SkolemEvalMode::kError;
  const op::Registry* registry = &op::Registry::Default();
  /// Guard on enumerating D^r: evaluation fails with ResourceExhausted when
  /// |adom|^r would exceed this. Checked before any tuple is enumerated, so
  /// an oversized domain surfaces as an error, never as a hang — also under
  /// parallel lanes.
  long long max_domain_tuples = 2'000'000;
  /// Parallel lanes for the task-graph scheduler. 1 (the default) runs
  /// fully sequential on the calling thread; k > 1 runs the evaluation's
  /// node tasks — and, within large nodes, sharded probe/enumeration
  /// morsels — on up to k lanes (k-1 helpers from runtime::GlobalPool()
  /// plus the caller). Results and Fingerprint() are byte-identical for any
  /// value: scheduling only decides who computes a slot, never what lands
  /// in it.
  int jobs = 1;
  /// Minimum per-node work (candidate tuples enumerated) before a node is
  /// sharded across lanes. Eligibility depends only on the data, never on
  /// `jobs`, so EvalStats is lane-count-independent too.
  int64_t parallel_threshold = 4096;
  /// Cooperative cancellation/deadline token, polled at task-graph slot
  /// boundaries (both sides of each slot's compute) and at sharded-morsel
  /// chunk boundaries. A fired token makes the evaluation return
  /// kDeadlineExceeded / kCancelled; a run that completes without it firing
  /// is byte-identical — results, Fingerprint() and EvalStats — to a run
  /// with no token, because every check site only reads the token. If the
  /// token fires after every root table is already materialized, the
  /// completed result wins the race and is returned as a success.
  common::CancelToken cancel;
};

/// Counters of one evaluation. Deterministic for a fixed expression,
/// instance and options — including `jobs` (sharding eligibility and task
/// decomposition are counted, not actual lane usage), so stats can be
/// compared across lane counts.
struct EvalStats {
  int64_t nodes_evaluated = 0;  ///< distinct DAG nodes computed
  int64_t memo_hits = 0;        ///< node visits answered by the memo table
  int64_t sharded_nodes = 0;    ///< nodes whose work crossed parallel_threshold
  int64_t tuples_produced = 0;  ///< sum of output sizes over computed nodes
  /// `select(product)` nodes the kernel ran as sharded hash joins, vs.
  /// products it had to materialize as nested loops (bare `kProduct` nodes
  /// and keyless select-over-product fallbacks). The join-vs-product split
  /// is the planner's effectiveness metric.
  int64_t hash_join_nodes = 0;
  int64_t nested_product_nodes = 0;
  /// Memo memory accounting: every memoized table's approximate footprint
  /// is added to `memo_bytes_total`; `memo_bytes_peak` is the high-water
  /// mark of *live* memo bytes — a node's table is dropped as soon as its
  /// last DAG parent has consumed it, so on deep chains peak ≪ total.
  int64_t memo_bytes_total = 0;
  int64_t memo_bytes_peak = 0;
  /// Task-graph decomposition: node tasks plus the sharded morsel chunks
  /// of every eligible intra-node enumeration — the units a free lane can
  /// claim. Derived from work sizes and the fixed chunking constant only,
  /// never from `jobs`.
  int64_t tasks_spawned = 0;
  /// Widest structural layer of the task graph (nodes whose longest input
  /// chain has equal length) — an upper bound on sibling tasks that can be
  /// ready simultaneously. A watermark like memo_bytes_peak: MergeFrom
  /// takes the max, DiffFrom keeps this side's value.
  int64_t max_ready_depth = 0;
  /// Always 0: every join builds its own hash index, nothing is cached on
  /// the Instance. Kept only because the benchmark harness reads them; they
  /// go with the next change to the benchmark.
  int64_t index_cache_hits = 0;
  int64_t index_cache_misses = 0;

  void MergeFrom(const EvalStats& other);
  /// Counter-wise `this - before` (the work added since the `before`
  /// snapshot); inverse of MergeFrom so the field list lives in one place.
  /// `memo_bytes_peak` and `max_ready_depth` are watermarks, not counters:
  /// MergeFrom takes the max, DiffFrom keeps this side's value.
  EvalStats DiffFrom(const EvalStats& before) const;
  std::string ToString() const;
};

/// A fully evaluated expression: the resulting relation plus evaluation
/// counters.
///
/// Kernel results stay columnar until someone actually needs value tuples:
/// `tuples()` decodes the TupleTable on first access (cached — copies of
/// one result share the decode), and `Fingerprint()` streams the table
/// directly with zero decode whenever every id is in the dictionary's
/// order-preserving seeded range. Containment callers never decode at all.
struct EvalResult {
  int arity = 0;
  EvalStats stats;

  EvalResult();

  /// The result as a canonical value-ordered tuple set, decoding on first
  /// access. The reference stays valid while any copy of this EvalResult
  /// lives (and until TakeTuples()).
  const std::set<Tuple>& tuples() const;

  /// Moves the decoded tuple set out, leaving this result (and its copies)
  /// empty. For callers that consume the set — the feed-fixpoint loop.
  std::set<Tuple> TakeTuples();

  /// Canonical serialization of the *semantic* result (arity + tuples in
  /// set order). Stats are excluded: two evaluations of the same expression
  /// over the same instance produce equal fingerprints at any job count.
  std::string Fingerprint() const;

  /// Installers used by the evaluator (and tests building fixed results).
  void SetDecoded(std::set<Tuple> tuples);
  void SetTable(std::shared_ptr<const TupleTable> table,
                std::shared_ptr<const ValueDict> dict);

 private:
  struct Lazy;
  std::shared_ptr<Lazy> lazy_;
};

/// Evaluates a relational expression against an instance under standard set
/// semantics (paper §2). `D` denotes the instance's active domain plus
/// `options.extra_constants`.
///
/// The engine is DAG-aware and morsel-driven: a sequential plan phase walks
/// the interned DAG exactly like the old recursive evaluator (memoization,
/// join planning, refcount-driven memo dropping and every guard check are
/// decided there, so stats and error precedence are schedule-independent),
/// then every planned node becomes a task that fires when its inputs
/// retire. Sibling subtrees, hash-join probe morsels and multiple
/// EvaluateMany roots interleave on the same `options.jobs` lanes, while
/// results and Fingerprint() stay byte-identical at any lane count.
Result<EvalResult> EvaluateFull(const ExprPtr& e, const Instance& instance,
                                const EvalOptions& options = {});

/// Evaluates several roots against one instance under ONE shared memo
/// table, so subtrees shared *across* roots — e.g. the two sides of a
/// constraint emitted by the composer, which frequently reuse the same
/// join — also evaluate exactly once, and independent roots' subtrees run
/// concurrently on the task graph. Results come back in root order; each
/// root's stats cover the work its evaluation added (a subtree a later
/// root found memoized counts as that root's memo hit).
Result<std::vector<EvalResult>> EvaluateMany(const std::vector<ExprPtr>& roots,
                                             const Instance& instance,
                                             const EvalOptions& options = {});

/// Convenience wrapper returning only the tuple set.
Result<std::set<Tuple>> Evaluate(const ExprPtr& e, const Instance& instance,
                                 const EvalOptions& options = {});

/// Evaluates both sides of a constraint under one shared memo and reports
/// `lhs ⊆ rhs` (with `equality` also `|lhs| == |rhs|`) — the checker's hot
/// path. The subset check is a linear merge walk over the two columnar
/// tables; nothing is ever decoded back to `std::set`.
/// Accumulates evaluation counters into `stats` when non-null.
Result<bool> EvaluateContainment(const ExprPtr& lhs, const ExprPtr& rhs,
                                 bool equality, const Instance& instance,
                                 const EvalOptions& options = {},
                                 EvalStats* stats = nullptr);

}  // namespace mapcomp

#endif  // MAPCOMP_EVAL_EVALUATOR_H_
