#ifndef MAPCOMP_EVAL_EVALUATOR_H_
#define MAPCOMP_EVAL_EVALUATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/algebra/expr.h"
#include "src/common/cancel.h"
#include "src/common/status.h"
#include "src/eval/instance.h"
#include "src/eval/value_dict.h"
#include "src/op/registry.h"

namespace mapcomp {

class TupleTable;

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
  /// an oversized domain surfaces as an error, never as a hang.
  long long max_domain_tuples = 2'000'000;
  /// Lanes of a soundness check: CheckComposition runs its instances on up
  /// to this many lanes (jobs - 1 helpers from runtime::GlobalPool() plus
  /// the caller; values below 1 mean 1). One evaluation always runs on its
  /// calling thread and does not read this.
  int jobs = 1;
  /// Cooperative cancellation/deadline token, polled when an evaluation
  /// starts and on both sides of each node's compute. A fired token makes
  /// the evaluation return kDeadlineExceeded / kCancelled; a run that
  /// completes without it firing is byte-identical — results,
  /// Fingerprint() and EvalStats — to a run with no token, because every
  /// check site only reads the token. If the token fires after every root
  /// table is already materialized, the completed result wins the race and
  /// is returned as a success.
  common::CancelToken cancel;
};

/// Counters of one evaluation. Deterministic for a fixed expression,
/// instance and options.
struct EvalStats {
  int64_t nodes_evaluated = 0;  ///< distinct DAG nodes computed
  int64_t memo_hits = 0;        ///< node visits answered by the memo table
  int64_t tuples_produced = 0;  ///< sum of output sizes over computed nodes
  /// `select(product)` nodes the kernel ran as hash joins, vs.
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
  /// Always equal to nodes_evaluated: every computed node is one task. Kept
  /// only because the benchmark harness reads it; it goes with the next
  /// change to the benchmark.
  int64_t tasks_spawned = 0;
  /// Always 0: every join builds its own hash index, nothing is cached on
  /// the Instance. Kept only because the benchmark harness reads them; they
  /// go with the next change to the benchmark.
  int64_t index_cache_hits = 0;
  int64_t index_cache_misses = 0;

  void MergeFrom(const EvalStats& other);
  /// Counter-wise `this - before` (the work added since the `before`
  /// snapshot); inverse of MergeFrom so the field list lives in one place.
  /// `memo_bytes_peak` is a watermark, not a counter: MergeFrom takes the
  /// max, DiffFrom keeps this side's value.
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
  /// empty. For callers that consume the set.
  std::set<Tuple> TakeTuples();

  /// The columnar result, over the dictionary of the instance it was
  /// evaluated against; null once decoded. The feed fixpoint writes it
  /// into its encoded instance without a decode.
  std::shared_ptr<const TupleTable> table() const;

  /// Canonical serialization of the *semantic* result (arity + tuples in
  /// set order). Stats are excluded: two evaluations of the same expression
  /// over the same instance produce equal fingerprints.
  std::string Fingerprint() const;

  /// Installers used by the evaluator (and tests building fixed results).
  void SetDecoded(std::set<Tuple> tuples);
  void SetTable(std::shared_ptr<const TupleTable> table,
                std::shared_ptr<const ValueDict> dict);

 private:
  struct Lazy;
  std::shared_ptr<Lazy> lazy_;
};

/// An instance encoded once for many evaluations: one seeded ValueDict, the
/// domain D as ascending ids (the active domain plus the extra constants)
/// and one sorted TupleTable per relation. Evaluations against it copy no
/// domain, seed no dictionary and encode no relation; their relation nodes
/// share its tables. Values an evaluation mints (Skolem terms, user-operator
/// outputs, constants outside the seed) accumulate in the shared
/// dictionary. Id equality is still value equality there, and every result
/// surface re-canonicalizes by value, so results, Fingerprint() and
/// EvalStats equal those of the Instance overloads, which encode a fresh
/// one per call.
///
/// Nothing in it changes while evaluations run, so it needs no lock of its
/// own; the dictionary's minting is already thread-safe. Assign and Grow
/// are for the one thread that owns the instance between evaluations (the
/// feed fixpoint): they replace a relation's table and keep D in step
/// through per-id occurrence counts.
class EncodedInstance {
 public:
  /// One relation: its sorted table, or — for a ragged relation, whose
  /// tuples differ in size and so have no row stride — its tuple set.
  struct Relation {
    std::shared_ptr<const TupleTable> table;
    std::shared_ptr<const std::set<Tuple>> ragged;
    int64_t size() const;
  };

  /// Encodes every relation of `instance` with D = its active domain plus
  /// `extra_constants`; the dictionary's seed is D.
  EncodedInstance(const Instance& instance,
                  const std::set<Value>& extra_constants);

  /// What the Instance overloads evaluate against: D as above, the seed
  /// also holding every constant `roots` mention, and only the relations
  /// they read encoded. Read-only: Assign and Grow need every relation.
  static EncodedInstance ForRoots(const Instance& instance,
                                  const std::set<Value>& extra_constants,
                                  const std::vector<ExprPtr>& roots);

  const std::shared_ptr<ValueDict>& dict() const { return dict_; }
  const std::vector<ValueId>& domain_ids() const { return domain_ids_; }

  /// Relation `name`, or null when the instance has none.
  const Relation* Find(const std::string& name) const;

  /// `rel` (null for an absent relation) as a table of `arity`. A relation
  /// whose tuples do not all have `arity` values is the same
  /// InvalidArgument TupleTable::FromSet reports for it.
  Result<std::shared_ptr<const TupleTable>> TableOf(const Relation* rel,
                                                    int arity) const;

  /// Replaces relation `name` with `table` unless it already holds the
  /// same tuples. Returns whether it changed.
  bool Assign(const std::string& name,
              std::shared_ptr<const TupleTable> table);
  /// Grows relation `name` by the rows of `table`. Returns whether it
  /// changed.
  bool Grow(const std::string& name, std::shared_ptr<const TupleTable> table);

  /// Relation `name` decoded (empty if absent).
  std::set<Tuple> Decode(const std::string& name) const;

 private:
  EncodedInstance(const Instance& instance,
                  const std::set<Value>& extra_constants,
                  const std::set<Value>& seed_constants,
                  const std::set<std::string>* only);

  void Put(const std::string& name, Relation rel);
  void Count(const Relation& rel, int64_t delta, bool* crossed);

  std::shared_ptr<ValueDict> dict_;
  std::vector<ValueId> domain_ids_;
  std::map<std::string, Relation> relations_;
  /// Occurrences of each id across every relation, plus one for each extra
  /// constant; D is the ids counted above zero. Built by the first write.
  std::vector<int64_t> occurrences_;
  bool counted_ = false;
  std::vector<ValueId> extra_ids_;
};

/// Evaluates a relational expression against an instance under standard set
/// semantics (paper §2). `D` denotes the instance's active domain plus
/// `options.extra_constants`.
///
/// The engine is DAG-aware: a plan phase walks the interned DAG exactly
/// like the old recursive evaluator (memoization, join planning,
/// refcount-driven memo dropping and every guard check are decided there),
/// then the planned nodes run in order on the calling thread, each table
/// dropped once its last consumer has run.
Result<EvalResult> EvaluateFull(const ExprPtr& e, const Instance& instance,
                                const EvalOptions& options = {});
/// The same against an encoded instance. D is the one fixed when it was
/// encoded; `options.extra_constants` is not read.
Result<EvalResult> EvaluateFull(const ExprPtr& e,
                                const EncodedInstance& instance,
                                const EvalOptions& options = {});

/// Evaluates several roots against one instance under ONE shared memo
/// table, so subtrees shared *across* roots — e.g. the two sides of a
/// constraint emitted by the composer, which frequently reuse the same
/// join — also evaluate exactly once. Results come back in root order; each
/// root's stats cover the work its evaluation added (a subtree a later
/// root found memoized counts as that root's memo hit).
Result<std::vector<EvalResult>> EvaluateMany(const std::vector<ExprPtr>& roots,
                                             const Instance& instance,
                                             const EvalOptions& options = {});
Result<std::vector<EvalResult>> EvaluateMany(const std::vector<ExprPtr>& roots,
                                             const EncodedInstance& instance,
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
Result<bool> EvaluateContainment(const ExprPtr& lhs, const ExprPtr& rhs,
                                 bool equality,
                                 const EncodedInstance& instance,
                                 const EvalOptions& options = {},
                                 EvalStats* stats = nullptr);

}  // namespace mapcomp

#endif  // MAPCOMP_EVAL_EVALUATOR_H_
