#ifndef MAPCOMP_EVAL_EVALUATOR_H_
#define MAPCOMP_EVAL_EVALUATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/algebra/dag_walk.h"
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
  /// Extra values added to the active domain when an Instance is encoded
  /// (an evaluation reads the D its EncodedInstance fixed). Following the
  /// paper's use of D in rewrite identities, the checker adds every
  /// constant mentioned in the constraint set being checked, which keeps
  /// identities such as E ∪ D^r = D^r sound in the presence of literal
  /// relations.
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
  /// completes without it firing is byte-identical — tables and EvalStats
  /// — to a run with no token, because every check site only reads the
  /// token. If the token fires after every root table is already
  /// materialized, the completed result wins the race and is returned as a
  /// success.
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

/// The relations a set of instances addresses, numbered once: a dense id
/// per name, and each interned relation leaf of the expressions the schema
/// was built from resolved to its id up front. Immutable, so one schema
/// serves every instance of a soundness check, on any thread.
class RelationSchema {
 public:
  /// Numbers `names` in order (a repeated name keeps its first id), then
  /// the new names of the relation leaves under `roots`, and resolves
  /// those leaves.
  explicit RelationSchema(const std::vector<std::string>& names,
                          const std::vector<ExprPtr>& roots = {});

  /// `base` when it numbers every one of `names`; otherwise a copy of
  /// `base` (none when null), ids and resolved leaves alike, that also
  /// numbers the names it lacks.
  static std::shared_ptr<const RelationSchema> Extend(
      std::shared_ptr<const RelationSchema> base,
      const std::vector<std::string>& names);

  int size() const { return static_cast<int>(names_.size()); }
  const std::string& name(int id) const {
    return names_[static_cast<size_t>(id)];
  }
  /// `name`'s id, or -1 when the schema does not number it.
  int Find(const std::string& name) const {
    auto it = ids_.find(name);
    return it == ids_.end() ? -1 : it->second;
  }
  /// Relation leaf `leaf`'s id: one pointer probe for a resolved leaf, the
  /// name lookup, which finds the same id, for any other.
  int IdOf(const Expr& leaf) const {
    const int* id = leaf_ids_.Find(&leaf);
    return id != nullptr ? *id : Find(leaf.name());
  }
  /// Whether every id of `base` names the same relation here.
  bool Extends(const RelationSchema& base) const;

 private:
  /// `name`'s id, numbering it first when it is new.
  int Add(const std::string& name) {
    auto [it, added] = ids_.emplace(name, size());
    if (added) names_.push_back(name);
    return it->second;
  }
  void Resolve(const std::vector<ExprPtr>& roots);

  std::vector<std::string> names_;
  std::map<std::string, int> ids_;
  /// The resolved leaves, held so that no other node can take one's
  /// address while the schema keys on it.
  std::vector<ExprPtr> leaves_;
  NodeTable<int> leaf_ids_;
};

/// An instance encoded once for many evaluations: one ValueDict, the
/// domain D as ascending ids (the active domain plus the extra constants)
/// and one slot per relation of its RelationSchema, indexed by id, each
/// holding a sorted TupleTable or nothing (an absent relation reads as
/// empty). The dictionary's seed tier holds D and may hold more (the whole
/// alphabet of an InstanceGenerator); only D is enumerated. An instance
/// encoded from an Instance builds a seed tier of its own; the instances
/// one InstanceGenerator encodes all share the generator's one tier and
/// schema, each with a mint tier of its own. Evaluations against it copy
/// no domain, seed no dictionary, encode no relation and look up no name
/// for a resolved leaf; their relation nodes share its tables. Values an
/// evaluation mints (Skolem terms, user-operator outputs, constants
/// outside the seed) accumulate in the instance's mint tier. Id equality
/// is still value equality there, and every comparison that needs order
/// falls back to the values, so what an evaluation decides does not depend
/// on which values were minted before it.
///
/// Nothing in it changes while evaluations run, so it needs no lock of its
/// own; the dictionary's minting is already thread-safe. Assign and Grow
/// are for the one thread that owns the instance between evaluations (the
/// feed fixpoint): they replace a relation's table and keep D in step
/// through per-id occurrence counts, which both constructors take in the
/// one step that first lists D.
class EncodedInstance {
 public:
  /// One relation: its sorted table, or — for a ragged relation, whose
  /// tuples differ in size and so have no row stride — its tuple set.
  /// Neither for a relation the instance does not hold.
  struct Relation {
    std::shared_ptr<const TupleTable> table;
    std::shared_ptr<const std::set<Tuple>> ragged;
    bool present() const { return table != nullptr || ragged != nullptr; }
  };
  using SchemaPtr = std::shared_ptr<const RelationSchema>;

  /// Encodes every relation of `instance` with D = its active domain plus
  /// `extra_constants`; the dictionary's seed is exactly D. The schema is
  /// RelationSchema::Extend(schema, the instance's relation names), which
  /// is `schema` itself when it numbers every one of them.
  EncodedInstance(const Instance& instance,
                  const std::set<Value>& extra_constants,
                  SchemaPtr schema = nullptr);

  /// Adopts relations already encoded over `dict`, one slot per id of
  /// `schema`: every present one a sorted, deduplicated table whose ids,
  /// like `extra_ids` (the extra constants' ids), lie in the dictionary's
  /// seed. D is the ids the tables hold plus `extra_ids`.
  /// InstanceGenerator::Encode builds instances this way.
  EncodedInstance(std::shared_ptr<ValueDict> dict, SchemaPtr schema,
                  std::vector<Relation> relations,
                  std::vector<ValueId> extra_ids);

  const std::shared_ptr<ValueDict>& dict() const { return dict_; }
  const std::vector<ValueId>& domain_ids() const { return domain_ids_; }
  const SchemaPtr& schema() const { return schema_; }

  /// Relation `id`, or null when the instance has none (or `id` is -1).
  const Relation* Find(int id) const {
    if (id < 0) return nullptr;
    const Relation& rel = relations_[static_cast<size_t>(id)];
    return rel.present() ? &rel : nullptr;
  }

  /// The relation `leaf` names as a table of the leaf's arity; empty when
  /// the instance has no such relation. A relation whose tuples do not all
  /// have that arity is the same InvalidArgument TupleTable::FromSet
  /// reports for it.
  Result<std::shared_ptr<const TupleTable>> TableOf(const Expr& leaf) const;

  /// Replaces relation `id` with `table` unless it already holds the same
  /// tuples. Returns whether it changed.
  bool Assign(int id, std::shared_ptr<const TupleTable> table);
  /// Grows relation `id` by the rows of `table`. Returns whether it
  /// changed.
  bool Grow(int id, std::shared_ptr<const TupleTable> table);

  /// Relation `id` decoded (empty if absent).
  std::set<Tuple> Decode(int id) const;
  /// Every relation the instance holds, decoded, by name.
  Instance Decode() const;

 private:
  /// Both constructors end here: counts the ids of every present relation
  /// and of the extra constants, then lists D.
  void CountDomain();
  /// Lists D, the ids counted above zero, into `domain_ids_`.
  void ListDomain();
  void Put(int id, Relation rel);
  void Count(const Relation& rel, int64_t delta, bool* crossed);

  std::shared_ptr<ValueDict> dict_;
  SchemaPtr schema_;
  std::vector<ValueId> domain_ids_;
  /// Indexed by schema id.
  std::vector<Relation> relations_;
  /// Occurrences of each id across every relation, plus one for each extra
  /// constant; D is the ids counted above zero. Counted when the instance
  /// is built, kept in step by every write.
  std::vector<int64_t> occurrences_;
  std::vector<ValueId> extra_ids_;
};

/// Evaluates `roots` against `instance` under standard set semantics
/// (paper §2) and returns each root's table, over the instance's
/// dictionary. D is the one fixed when the instance was encoded;
/// `options.extra_constants` is not read.
///
/// The engine is one memoized walk over the interned DAG on the calling
/// thread: each node's table is computed when the walk first reaches it
/// and dropped once its last parent has consumed it. All roots share the
/// walk's memo, so a subtree shared across roots (the two sides of a
/// constraint frequently reuse the same join) evaluates once. The walk's
/// bookkeeping (each node's pending parent edges and memoized table) is
/// one flat open-addressed table per walk. The first failing node in visit
/// order names the error. On success the walk's counters are merged into
/// `stats` and each root's share (the work its evaluation added; a subtree
/// an earlier root left memoized counts as a memo hit) is appended to
/// `root_stats`, each when non-null.
Result<std::vector<std::shared_ptr<const TupleTable>>> EvaluateTables(
    const std::vector<ExprPtr>& roots, const EncodedInstance& instance,
    const EvalOptions& options = {}, EvalStats* stats = nullptr,
    std::vector<EvalStats>* root_stats = nullptr);

/// Evaluates both sides of a constraint with EvaluateTables and reports
/// `lhs ⊆ rhs` (with `equality` also `|lhs| == |rhs|`) — the checker's hot
/// path. The subset check is a linear merge walk over the two columnar
/// tables; nothing is ever decoded back to `std::set`.
/// Accumulates evaluation counters into `stats` when non-null.
Result<bool> EvaluateContainment(const ExprPtr& lhs, const ExprPtr& rhs,
                                 bool equality,
                                 const EncodedInstance& instance,
                                 const EvalOptions& options = {},
                                 EvalStats* stats = nullptr);

}  // namespace mapcomp

#endif  // MAPCOMP_EVAL_EVALUATOR_H_
