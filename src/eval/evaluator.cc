#include "src/eval/evaluator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/fault.h"
#include "src/eval/join.h"
#include "src/eval/tuple_table.h"
#include "src/eval/value_dict.h"
#include "src/runtime/sharding.h"
#include "src/runtime/task_dag.h"
#include "src/runtime/thread_pool.h"

namespace mapcomp {

namespace {

using eval_internal::CompiledCond;
using eval_internal::CompiledJoin;
using eval_internal::DomainSelectPlan;

/// Node results are shared, not copied: every parent holds the same table,
/// treated as immutable everywhere.
using TablePtr = std::shared_ptr<TupleTable>;

/// Chunk boundaries are a pure function of the work size and the shared
/// runtime::kMaxShardChunks — never of the lane count — which is what
/// keeps results and stats identical at any `jobs`.
constexpr int64_t kMaxShards = runtime::kMaxShardChunks;

/// Per-node DAG bookkeeping for memo dropping: `remaining` counts the
/// parent edges (plus root occurrences) that have not consumed this node's
/// result yet; when it reaches zero the memo entry is dropped. `evaluated`
/// distinguishes computed nodes from planned-around ones (a product the
/// join planner bypassed) whose child edges must cascade on release.
struct NodeUse {
  int64_t remaining = 0;
  bool evaluated = false;
};

TablePtr OwnTable(TupleTable t) {
  return std::make_shared<TupleTable>(std::move(t));
}

/// Parent-edge refcounts for the whole root forest: each static child edge
/// contributes one pending consumption (roots get one extra per occurrence,
/// added by the caller).
void CountUses(const ExprPtr& e, std::unordered_map<const Expr*, NodeUse>* uses,
               std::set<const Expr*>* visited) {
  if (!visited->insert(e.get()).second) return;
  for (const ExprPtr& c : e->children()) {
    ++(*uses)[c.get()].remaining;
    CountUses(c, uses, visited);
  }
}

void CollectConditionConstants(const Condition& c, std::set<Value>* out) {
  switch (c.kind()) {
    case Condition::Kind::kAtom:
      if (!c.lhs().is_attr) out->insert(c.lhs().constant);
      if (!c.rhs().is_attr) out->insert(c.rhs().constant);
      break;
    case Condition::Kind::kAnd:
    case Condition::Kind::kOr:
    case Condition::Kind::kNot:
      for (const Condition& child : c.children()) {
        CollectConditionConstants(child, out);
      }
      break;
    default:
      break;
  }
}

/// Every constant a root expression can mention — selection-condition
/// constants and literal-relation values — goes into the dictionary seed,
/// so compiled conditions always find their constants interned and the
/// seeded range stays order-preserving.
void CollectExprConstants(const ExprPtr& e, std::set<Value>* out,
                          std::set<const Expr*>* visited) {
  if (e == nullptr || !visited->insert(e.get()).second) return;
  CollectConditionConstants(e->condition(), out);
  for (const Tuple& t : e->tuples()) {
    for (const Value& v : t) out->insert(v);
  }
  for (const ExprPtr& c : e->children()) {
    CollectExprConstants(c, out, visited);
  }
}

/// Deterministic morsel count of an eligible sharded enumeration over `n`
/// work items: the number of contiguous chunks ShardedTransform splits it
/// into. A pure function of n and kMaxShards — never of the lane count —
/// so EvalStats::tasks_spawned is identical at any `jobs`.
int64_t MorselCount(int64_t n) {
  if (n <= 0) return 0;
  int64_t chunk = (n + kMaxShards - 1) / kMaxShards;
  return (n + chunk - 1) / chunk;
}

// --------------------------------------------------------------------------
// The columnar kernel — a morsel-driven task graph over the interned DAG.
//
// Evaluation runs in three phases:
//
//   1. PLAN (sequential): walk the DAG exactly like the old recursive
//      evaluator walked it — same memoization, same join/domain planning,
//      same refcount-driven drop cascade, same guard checks — but instead
//      of computing tables, record one `Slot` per node to compute and an
//      event log of what the walk observed (evals, memo hits, memo drops,
//      root boundaries). Everything schedule-sensitive
//      (which nodes run, which products are bypassed, condition
//      compilation / constant interning, error precedence for guards) is
//      decided here, on one thread.
//
//   2. EXECUTE (parallel): each slot becomes a TaskDag task depending on
//      its input slots, so sibling subtrees, multiple EvaluateMany roots,
//      and — via nested sharding inside a slot — join probe morsels
//      all interleave on the same lanes. A slot's output depends only on
//      its input tables, so lane count decides who computes a slot, never
//      what lands in it. A slot's table is dropped the moment its last
//      consumer retires (atomic refcount), preserving the memo-peak
//      behavior of the recursive engine.
//
//   3. REPLAY (sequential): walk the plan's event log and fold each slot's
//      measured outputs (row counts, bytes, morsel counts) into per-root
//      EvalStats buckets in plan order. Stats are therefore byte-identical
//      at any lane count, including the memo_bytes_peak watermark.
// --------------------------------------------------------------------------

/// What a slot computes. kJoin is both a bare product and a planned
/// select(product); kSelect* split the rest of the select dispatch. The
/// planner resolves the strategy (join vs. domain-prune vs. plain filter)
/// at plan time, so execution is branch-free on expression structure.
enum class SlotOp {
  kRelation,
  kDomain,
  kEmpty,
  kLiteral,
  kUnion,
  kIntersect,
  kDifference,
  kJoin,
  kSelectFilter,
  kSelectDomain,
  kSelectDomainEmpty,
  kProject,
  kSkolem,
  kUserOp,
};

/// One task-graph node. Plan-time fields are written by the planner and
/// read-only during execution; execution fields are written only by the
/// slot's own task (its inputs' fields are complete via the dag edge).
struct Slot {
  const Expr* node = nullptr;
  SlotOp op = SlotOp::kEmpty;
  int arity = 0;
  /// Input slot indexes in operator order (may repeat, e.g. Union(x, x)).
  std::vector<int64_t> args;

  // kSelectFilter / kSelectDomain: the full compiled condition. Also the
  // kUserOp payload: the node's condition compiled at plan time, handed to
  // the operator's kernel via ColumnarContext.
  CompiledCond cond;
  // kJoin payload, compiled at plan time; a bare product keeps the empty
  // plan (no filters, keys or residual).
  CompiledJoin join;
  // kSelectDomain payload (bound-class analysis resolved at plan time).
  std::vector<int> class_of;
  std::vector<ValueId> class_id;
  std::vector<char> class_bound;
  std::vector<int> free_slot;
  int free_count = 0;
  const op::OperatorDef* def = nullptr;  ///< kUserOp

  // Execution outputs.
  TablePtr result;
  Status status = Status::OK();
  /// Consumers (distinct dependent slots, +1 pin per root occurrence) that
  /// have not retired yet; the decrement to zero drops `result`.
  std::atomic<int64_t> live_consumers{0};
  // Measured replay payload: the stats deltas this slot's evaluation
  // contributes, folded into per-root buckets in plan order afterwards.
  int64_t bytes = 0;
  int64_t d_tuples = 0;
  int64_t d_sharded = 0;
  int64_t d_hash_join = 0;
  int64_t d_nested = 0;
  int64_t d_tasks = 0;  ///< morsel tasks beyond the node task itself
};

/// One observation of the sequential plan walk. Replayed in order against
/// the slots' measured outputs to reconstruct per-root stats.
struct PlanEvent {
  enum Kind { kEval, kHit, kDrop, kRootEnd } kind;
  int64_t slot = -1;
};

struct KernelState {
  const Instance* instance = nullptr;
  const EvalOptions* options = nullptr;
  /// Shared so results can outlive the evaluation (lazy decode).
  std::shared_ptr<ValueDict> dict;
  /// Active domain + extra constants as ascending seeded ids — the only
  /// domain structure the kernel builds.
  std::vector<ValueId> domain_ids;
  runtime::ThreadPool* pool = nullptr;  ///< null ⇔ jobs <= 1
  int max_helpers = 0;                  ///< jobs - 1

  // Plan state.
  std::unordered_map<const Expr*, NodeUse> uses;
  std::unordered_map<const Expr*, int64_t> slot_of;
  /// deque: slots hold atomics/compiled conditions and must never move.
  std::deque<Slot> slots;
  std::vector<PlanEvent> events;
  std::vector<int64_t> root_slots;
  /// max_ready_depth watermark at each root boundary (cumulative, like
  /// memo_bytes_peak).
  std::vector<int64_t> root_width;
  std::vector<int> slot_depth;  ///< longest input chain per slot
  std::unordered_map<int, int64_t> width_at_depth;
  int64_t max_width = 0;
};

/// One parent edge (or root occurrence) of `e` is done with its result:
/// decrements the pending-edge count and, at zero, records the memo drop
/// (replay subtracts the slot's measured bytes at this exact point in plan
/// order) and cascades through bypassed nodes.
void SimConsume(const Expr* e, KernelState* ks) {
  NodeUse& u = ks->uses[e];
  if (--u.remaining > 0) return;
  auto it = ks->slot_of.find(e);
  if (it != ks->slot_of.end()) {
    ks->events.push_back({PlanEvent::kDrop, it->second});
  }
  if (!u.evaluated) {
    for (const ExprPtr& c : e->children()) SimConsume(c.get(), ks);
  }
}

int64_t NewSlot(const Expr* node, SlotOp op, int arity,
                std::vector<int64_t> args, KernelState* ks) {
  int depth = 0;
  for (int64_t a : args) {
    depth = std::max(depth, ks->slot_depth[static_cast<size_t>(a)] + 1);
  }
  ks->slots.emplace_back();
  Slot& s = ks->slots.back();
  s.node = node;
  s.op = op;
  s.arity = arity;
  s.args = std::move(args);
  ks->slot_depth.push_back(depth);
  int64_t width = ++ks->width_at_depth[depth];
  ks->max_width = std::max(ks->max_width, width);
  return static_cast<int64_t>(ks->slots.size()) - 1;
}

/// Seals a planned node: marks it evaluated (the plan's memo), logs the
/// eval event, and releases its static child edges — exactly where the
/// recursive engine released them.
void FinishSlot(const Expr* e, int64_t slot, KernelState* ks) {
  ks->slot_of[e] = slot;
  ks->uses[e].evaluated = true;
  ks->events.push_back({PlanEvent::kEval, slot});
  for (const ExprPtr& c : e->children()) SimConsume(c.get(), ks);
}

Result<int64_t> PlanVisit(const ExprPtr& e, KernelState* ks);

/// select(product(a, b)): pushes single-side conjuncts below the product,
/// turns cross-side equalities into hash-join keys, and keeps the rest as a
/// residual filter on joined rows. The product child itself is never
/// materialized (its memo refcount is released through the bypass cascade).
Result<int64_t> PlanSelectJoin(const ExprPtr& e, KernelState* ks) {
  const ExprPtr& prod = e->child(0);
  MAPCOMP_ASSIGN_OR_RETURN(int64_t a, PlanVisit(prod->child(0), ks));
  MAPCOMP_ASSIGN_OR_RETURN(int64_t b, PlanVisit(prod->child(1), ks));
  int64_t slot = NewSlot(e.get(), SlotOp::kJoin, e->arity(), {a, b}, ks);
  ks->slots[static_cast<size_t>(slot)].join = CompiledJoin::Compile(
      e->condition(), prod->child(0)->arity(), prod->child(1)->arity(),
      ks->dict.get());
  FinishSlot(e.get(), slot, ks);
  return slot;
}

/// select(D^r) with bound coordinates: resolves the equality-class pins at
/// plan time (a pin outside D makes the result empty with no enumeration;
/// the guard measures the *pruned* space |D|^free_classes) and stores the
/// class layout for the execution odometer.
Result<int64_t> PlanSelectDomain(const ExprPtr& e, const DomainSelectPlan& plan,
                                 KernelState* ks) {
  const int r = e->child(0)->arity();
  const std::vector<ValueId>& ids = ks->domain_ids;
  int64_t d = static_cast<int64_t>(ids.size());
  std::vector<ValueId> class_id(static_cast<size_t>(plan.num_classes), 0);
  std::vector<char> class_bound(static_cast<size_t>(plan.num_classes), 0);
  std::vector<int> free_slot(static_cast<size_t>(plan.num_classes), -1);
  int free_count = 0;
  for (int c = 0; c < plan.num_classes; ++c) {
    if (plan.class_const[static_cast<size_t>(c)]) {
      const ValueId* id =
          ks->dict->Find(*plan.class_const[static_cast<size_t>(c)]);
      // D^r only contains domain values: a coordinate pinned to a constant
      // outside D makes the selection empty without enumerating anything.
      if (id == nullptr ||
          !std::binary_search(ids.begin(), ids.end(), *id)) {
        int64_t slot =
            NewSlot(e.get(), SlotOp::kSelectDomainEmpty, e->arity(), {}, ks);
        FinishSlot(e.get(), slot, ks);
        return slot;
      }
      class_id[static_cast<size_t>(c)] = *id;
      class_bound[static_cast<size_t>(c)] = 1;
    } else {
      free_slot[static_cast<size_t>(c)] = free_count++;
    }
  }
  double size = std::pow(static_cast<double>(d),
                         static_cast<double>(free_count));
  // The guard measures the *pruned* enumeration — the whole point of the
  // constraint-driven path — and the diagnostic reports that pruned work,
  // not |D|^r.
  if (size > static_cast<double>(ks->options->max_domain_tuples)) {
    return Status::ResourceExhausted(
        "constraint-pruned enumeration of sigma(D^" + std::to_string(r) +
        ") over " + std::to_string(d) + " values still needs " +
        std::to_string(free_count) +
        " free coordinate classes — too large");
  }
  int64_t slot = NewSlot(e.get(), SlotOp::kSelectDomain, e->arity(), {}, ks);
  Slot& s = ks->slots[static_cast<size_t>(slot)];
  s.cond = CompiledCond::Compile(e->condition(), ks->dict.get());
  s.class_of = plan.class_of;
  s.class_id = std::move(class_id);
  s.class_bound = std::move(class_bound);
  s.free_slot = std::move(free_slot);
  s.free_count = free_count;
  FinishSlot(e.get(), slot, ks);
  return slot;
}

/// The plan walk — one-to-one with the old KernelRec recursion: same visit
/// order, same memo discipline (`evaluated` ⇔ "in the memo", since a memo
/// entry is never dropped while a parent edge is pending), same strategy
/// decisions, same guard checks in the same order. Returns the slot whose
/// result is node `e`'s table.
Result<int64_t> PlanVisit(const ExprPtr& e, KernelState* ks) {
  NodeUse& u = ks->uses[e.get()];
  if (u.evaluated) {
    int64_t slot = ks->slot_of[e.get()];
    ks->events.push_back({PlanEvent::kHit, slot});
    return slot;
  }
  switch (e->kind()) {
    case ExprKind::kRelation: {
      int64_t slot = NewSlot(e.get(), SlotOp::kRelation, e->arity(), {}, ks);
      FinishSlot(e.get(), slot, ks);
      return slot;
    }
    case ExprKind::kDomain: {
      int64_t d = static_cast<int64_t>(ks->domain_ids.size());
      double size = std::pow(static_cast<double>(d),
                             static_cast<double>(e->arity()));
      // Fails at plan time, before any tuple is enumerated, so an
      // oversized domain surfaces as an error, never a hang.
      if (size > static_cast<double>(ks->options->max_domain_tuples)) {
        return Status::ResourceExhausted(
            "enumerating D^" + std::to_string(e->arity()) + " over " +
            std::to_string(d) + " values is too large");
      }
      int64_t slot = NewSlot(e.get(), SlotOp::kDomain, e->arity(), {}, ks);
      FinishSlot(e.get(), slot, ks);
      return slot;
    }
    case ExprKind::kEmpty: {
      int64_t slot = NewSlot(e.get(), SlotOp::kEmpty, e->arity(), {}, ks);
      FinishSlot(e.get(), slot, ks);
      return slot;
    }
    case ExprKind::kLiteral: {
      int64_t slot = NewSlot(e.get(), SlotOp::kLiteral, e->arity(), {}, ks);
      FinishSlot(e.get(), slot, ks);
      return slot;
    }
    case ExprKind::kUnion:
    case ExprKind::kIntersect:
    case ExprKind::kDifference:
    case ExprKind::kProduct: {
      MAPCOMP_ASSIGN_OR_RETURN(int64_t a, PlanVisit(e->child(0), ks));
      MAPCOMP_ASSIGN_OR_RETURN(int64_t b, PlanVisit(e->child(1), ks));
      SlotOp op = SlotOp::kUnion;
      if (e->kind() == ExprKind::kIntersect) op = SlotOp::kIntersect;
      if (e->kind() == ExprKind::kDifference) op = SlotOp::kDifference;
      if (e->kind() == ExprKind::kProduct) op = SlotOp::kJoin;
      int64_t slot = NewSlot(e.get(), op, e->arity(), {a, b}, ks);
      FinishSlot(e.get(), slot, ks);
      return slot;
    }
    case ExprKind::kSelect: {
      const ExprPtr& child = e->child(0);
      // Plan the join only while the product is unmaterialized: a product
      // another parent already evaluated (it stays memoized as long as this
      // select's edge is pending) is cheaper to filter than to re-join —
      // its children may already have been refcount-dropped.
      if (child->kind() == ExprKind::kProduct &&
          !ks->uses[child.get()].evaluated) {
        return PlanSelectJoin(e, ks);
      }
      if (child->kind() == ExprKind::kDomain) {
        DomainSelectPlan plan =
            eval_internal::PlanDomainSelect(e->condition(), child->arity());
        if (plan.unsatisfiable) {
          int64_t slot =
              NewSlot(e.get(), SlotOp::kSelectDomainEmpty, e->arity(), {}, ks);
          FinishSlot(e.get(), slot, ks);
          return slot;
        }
        if (plan.useful) return PlanSelectDomain(e, plan, ks);
        // Nothing to prune — evaluate D^r normally so it stays memoized.
      }
      MAPCOMP_ASSIGN_OR_RETURN(int64_t a, PlanVisit(child, ks));
      int64_t slot =
          NewSlot(e.get(), SlotOp::kSelectFilter, e->arity(), {a}, ks);
      ks->slots[static_cast<size_t>(slot)].cond =
          CompiledCond::Compile(e->condition(), ks->dict.get());
      FinishSlot(e.get(), slot, ks);
      return slot;
    }
    case ExprKind::kProject: {
      MAPCOMP_ASSIGN_OR_RETURN(int64_t a, PlanVisit(e->child(0), ks));
      int64_t slot = NewSlot(e.get(), SlotOp::kProject, e->arity(), {a}, ks);
      FinishSlot(e.get(), slot, ks);
      return slot;
    }
    case ExprKind::kSkolem: {
      if (ks->options->skolem_mode == SkolemEvalMode::kError) {
        return Status::Unsupported(
            "cannot evaluate Skolem function " + e->name() +
            " without an interpretation (SkolemEvalMode::kError)");
      }
      MAPCOMP_ASSIGN_OR_RETURN(int64_t a, PlanVisit(e->child(0), ks));
      int64_t slot = NewSlot(e.get(), SlotOp::kSkolem, e->arity(), {a}, ks);
      FinishSlot(e.get(), slot, ks);
      return slot;
    }
    case ExprKind::kUserOp: {
      const op::OperatorDef* def =
          ks->options->registry ? ks->options->registry->Find(e->name())
                                : nullptr;
      if (def == nullptr || !def->eval_columnar) {
        return Status::Unsupported("no evaluator for operator " + e->name());
      }
      std::vector<int64_t> args;
      args.reserve(e->children().size());
      for (const ExprPtr& c : e->children()) {
        MAPCOMP_ASSIGN_OR_RETURN(int64_t a, PlanVisit(c, ks));
        args.push_back(a);
      }
      int64_t slot =
          NewSlot(e.get(), SlotOp::kUserOp, e->arity(), std::move(args), ks);
      Slot& s = ks->slots[static_cast<size_t>(slot)];
      s.def = def;
      // The node's condition is compiled here (sequential phase — constants
      // intern into the still-warm dictionary) so every lane shares one
      // compiled form.
      s.cond = CompiledCond::Compile(e->condition(), ks->dict.get());
      FinishSlot(e.get(), slot, ks);
      return slot;
    }
  }
  return Status::Internal("unknown expression kind");
}

/// Execution sibling of TransformSet: applies `emit(row, out_data)` — which
/// appends whole rows of `out_arity` ids — to every row of `in`, sharded
/// into ≤ kMaxShards contiguous row chunks when `work` crosses the
/// threshold, concatenated in chunk order. Counters (sharded eligibility,
/// morsel count) go to the slot and depend only on the data. Requires
/// out_arity > 0 (callers special-case the degenerate arity-0 shapes).
template <typename Emit>
TupleTable SlotTransform(KernelState* ks, Slot* s, const TupleTable& in,
                         int64_t work, int out_arity, const Emit& emit) {
  int64_t n = in.size();
  bool eligible = work >= ks->options->parallel_threshold;
  if (eligible) {
    ++s->d_sharded;
    s->d_tasks += MorselCount(n);
  }
  TupleTable out(out_arity);
  if (!eligible || ks->pool == nullptr || n <= 1) {
    for (int64_t i = 0; i < n; ++i) emit(in.Row(i), &out.MutableData());
    out.FinishAppends();
    return out;
  }
  int64_t chunk = (n + kMaxShards - 1) / kMaxShards;
  std::vector<std::vector<ValueId>> chunks =
      runtime::ShardedTransform<std::vector<ValueId>>(
          ks->pool, n, chunk, ks->max_helpers,
          [ks, &in, &emit](int64_t begin, int64_t end) {
            std::vector<ValueId> local;
            // Chunk-boundary cancellation point: an empty early-out is safe
            // because RunSlot's exit poll discards the whole slot.
            if (ks->options->cancel.Fired()) return local;
            for (int64_t i = begin; i < end; ++i) emit(in.Row(i), &local);
            return local;
          });
  std::vector<ValueId>& data = out.MutableData();
  for (const std::vector<ValueId>& c : chunks) {
    data.insert(data.end(), c.begin(), c.end());
  }
  out.FinishAppends();
  return out;
}

/// Enumerates domain_ids^r with the first coordinate position restricted to
/// [first_begin, first_end), in lexicographic id order (domain_ids is
/// ascending, so the output rows are sorted).
void EnumerateDomainIdRange(const std::vector<ValueId>& ids, int r,
                            int64_t first_begin, int64_t first_end,
                            std::vector<ValueId>* out) {
  if (first_begin >= first_end) return;
  std::vector<int64_t> idx(static_cast<size_t>(r), 0);
  idx[0] = first_begin;
  int64_t d = static_cast<int64_t>(ids.size());
  for (;;) {
    for (int i = 0; i < r; ++i) out->push_back(ids[idx[i]]);
    int pos = r - 1;
    while (pos >= 0) {
      ++idx[pos];
      int64_t limit = pos == 0 ? first_end : d;
      if (idx[pos] < limit) break;
      if (pos == 0) return;
      idx[pos] = 0;
      --pos;
    }
  }
}

Result<TablePtr> EvalSlotDomain(KernelState* ks, Slot* s) {
  const std::vector<ValueId>& ids = ks->domain_ids;
  int64_t d = static_cast<int64_t>(ids.size());
  const int arity = s->arity;
  if (arity == 0) {
    TupleTable unit(0);
    unit.AppendRow(nullptr);
    return OwnTable(std::move(unit));
  }
  if (d == 0) return OwnTable(TupleTable(arity));
  double size = std::pow(static_cast<double>(d), static_cast<double>(arity));
  bool eligible = size >= static_cast<double>(ks->options->parallel_threshold);
  if (eligible) {
    ++s->d_sharded;
    s->d_tasks += MorselCount(d);
  }
  TupleTable out(arity);
  if (!eligible || ks->pool == nullptr || d <= 1) {
    EnumerateDomainIdRange(ids, arity, 0, d, &out.MutableData());
    out.FinishAppends();
    return OwnTable(std::move(out));
  }
  int64_t chunk = (d + kMaxShards - 1) / kMaxShards;
  std::vector<std::vector<ValueId>> chunks =
      runtime::ShardedTransform<std::vector<ValueId>>(
          ks->pool, d, chunk, ks->max_helpers,
          [ks, &ids, arity](int64_t begin, int64_t end) {
            std::vector<ValueId> local;
            if (ks->options->cancel.Fired()) return local;  // see RunSlot
            EnumerateDomainIdRange(ids, arity, begin, end, &local);
            return local;
          });
  std::vector<ValueId>& data = out.MutableData();
  for (const std::vector<ValueId>& c : chunks) {
    data.insert(data.end(), c.begin(), c.end());
  }
  out.FinishAppends();
  return OwnTable(std::move(out));
}

/// Rows of `in` passing `cc`, sharded like any per-row transform. Filtering
/// preserves sortedness.
TablePtr FilterTable(KernelState* ks, Slot* s, const TablePtr& in,
                     const CompiledCond& cc) {
  const ValueDict& dict = *ks->dict;
  const int arity = in->arity();
  if (arity == 0) {
    TupleTable out(0);
    if (!in->empty() && cc.Eval(nullptr, 0, dict)) out.AppendRow(nullptr);
    return OwnTable(std::move(out));
  }
  return OwnTable(SlotTransform(
      ks, s, *in, in->size(), arity,
      [&cc, &dict, arity](const ValueId* row, std::vector<ValueId>* out) {
        if (cc.Eval(row, arity, dict)) {
          out->insert(out->end(), row, row + arity);
        }
      }));
}

/// Every product and planned select(product) runs on the one JoinMatcher:
/// pushed-down filters first, then a build over one filtered side and a
/// sharded probe of the other. With keys the smaller side is the build
/// (ties go left); without keys the right side is, so the probe walks left
/// rows in order and emits a-major rows that are already sorted.
Result<TablePtr> EvalSlotJoin(KernelState* ks, Slot* s, const TablePtr& a,
                              const TablePtr& b) {
  const CompiledJoin& join = s->join;
  TablePtr fa = join.left_filter.IsTrue()
                    ? a
                    : FilterTable(ks, s, a, join.left_filter);
  TablePtr fb = join.right_filter.IsTrue()
                    ? b
                    : FilterTable(ks, s, b, join.right_filter);
  const bool keyed = !join.keys.empty();
  if (keyed) {
    ++s->d_hash_join;
  } else {
    ++s->d_nested;
  }
  const int out_arity = s->arity;
  if (out_arity == 0) {  // keys need attributes, so this is a unit product
    TupleTable out(0);
    if (!fa->empty() && !fb->empty()) out.AppendRow(nullptr);
    return OwnTable(std::move(out));
  }
  const bool build_left = keyed && fa->size() <= fb->size();
  const TupleTable& build = build_left ? *fa : *fb;
  const TupleTable& probe = build_left ? *fb : *fa;
  // With keys, probe work drives sharding eligibility (the build is
  // linear); without keys every pair is a candidate.
  const int64_t work = keyed ? probe.size() : fa->size() * fb->size();
  if (build.empty()) {
    if (work >= ks->options->parallel_threshold) ++s->d_sharded;
    return OwnTable(TupleTable(out_arity));
  }
  const eval_internal::JoinMatcher matcher(build, build_left, probe.arity(),
                                           join.keys, join.residual,
                                           *ks->dict);
  const int la = fa->arity(), ra = fb->arity();
  TupleTable out = SlotTransform(
      ks, s, probe, work, out_arity,
      [&matcher, build_left, la, ra](const ValueId* prow,
                                     std::vector<ValueId>* out_data) {
        matcher.ForEachMatch(prow, [&](const ValueId* brow) {
          const ValueId* lrow = build_left ? brow : prow;
          const ValueId* rrow = build_left ? prow : brow;
          out_data->insert(out_data->end(), lrow, lrow + la);
          out_data->insert(out_data->end(), rrow, rrow + ra);
          return true;
        });
      });
  // Pairs of unique rows are unique; only a left build leaves them out of
  // order.
  if (build_left) out.SortRows();
  return OwnTable(std::move(out));
}

Result<TablePtr> EvalSlotSelectDomain(KernelState* ks, Slot* s) {
  const int r = s->arity;
  const std::vector<ValueId>& ids = ks->domain_ids;
  int64_t d = static_cast<int64_t>(ids.size());
  const int free_count = s->free_count;
  if (free_count > 0 && d == 0) return OwnTable(TupleTable(r));
  const CompiledCond& cc = s->cond;
  const ValueDict& dict = *ks->dict;
  const std::vector<int>& class_of = s->class_of;
  const std::vector<ValueId>& class_id = s->class_id;
  const std::vector<char>& class_bound = s->class_bound;
  const std::vector<int>& free_slot = s->free_slot;

  // Enumerates assignments whose *first free class* takes ids[begin..end),
  // odometer over the remaining free classes.
  auto enumerate = [&](int64_t begin, int64_t end) {
    std::vector<ValueId> local;
    std::vector<int64_t> odo(static_cast<size_t>(std::max(free_count, 1)), 0);
    std::vector<ValueId> row(static_cast<size_t>(r));
    if (free_count == 0) {
      for (int k = 0; k < r; ++k) {
        row[static_cast<size_t>(k)] =
            class_id[static_cast<size_t>(class_of[static_cast<size_t>(k)])];
      }
      if (cc.Eval(row.data(), r, dict)) {
        local.insert(local.end(), row.begin(), row.end());
      }
      return local;
    }
    if (begin >= end) return local;
    odo[0] = begin;
    for (;;) {
      for (int k = 0; k < r; ++k) {
        int c = class_of[static_cast<size_t>(k)];
        row[static_cast<size_t>(k)] =
            class_bound[static_cast<size_t>(c)]
                ? class_id[static_cast<size_t>(c)]
                : ids[static_cast<size_t>(
                      odo[static_cast<size_t>(
                          free_slot[static_cast<size_t>(c)])])];
      }
      if (cc.Eval(row.data(), r, dict)) {
        local.insert(local.end(), row.begin(), row.end());
      }
      int pos = free_count - 1;
      while (pos >= 0) {
        ++odo[static_cast<size_t>(pos)];
        int64_t limit = pos == 0 ? end : d;
        if (odo[static_cast<size_t>(pos)] < limit) break;
        if (pos == 0) return local;
        odo[static_cast<size_t>(pos)] = 0;
        --pos;
      }
    }
  };

  double size = std::pow(static_cast<double>(d),
                         static_cast<double>(free_count));
  bool eligible = size >= static_cast<double>(ks->options->parallel_threshold);
  if (eligible) {
    ++s->d_sharded;
    if (free_count > 0) s->d_tasks += MorselCount(d);
  }
  TupleTable out(r);
  if (free_count == 0 || !eligible || ks->pool == nullptr || d <= 1) {
    std::vector<ValueId> rows = enumerate(0, std::max<int64_t>(d, 1));
    out.MutableData() = std::move(rows);
  } else {
    int64_t chunk = (d + kMaxShards - 1) / kMaxShards;
    std::vector<std::vector<ValueId>> chunks =
        runtime::ShardedTransform<std::vector<ValueId>>(
            ks->pool, d, chunk, ks->max_helpers,
            [ks, &enumerate](int64_t begin, int64_t end) {
              if (ks->options->cancel.Fired()) {  // see RunSlot
                return std::vector<ValueId>{};
              }
              return enumerate(begin, end);
            });
    std::vector<ValueId>& data = out.MutableData();
    for (const std::vector<ValueId>& c : chunks) {
      data.insert(data.end(), c.begin(), c.end());
    }
  }
  out.FinishAppends();
  // Class-major enumeration is not coordinate-lexicographic; assignments
  // are distinct, so sorting alone canonicalizes.
  out.SortRows();
  return OwnTable(std::move(out));
}

/// Computes one slot's table from its input tables. Pure modulo the slot's
/// own measured counters: every branch taken here was decided at plan time
/// or depends only on the input tables, so the output is identical at any
/// lane count.
Result<TablePtr> EvalSlot(KernelState* ks, Slot* s,
                          const std::vector<TablePtr>& in) {
  const Expr* e = s->node;
  switch (s->op) {
    case SlotOp::kRelation: {
      // Encoded once per evaluation (one slot per interned node). The
      // instance's values are all in the dictionary's seeded range, so the
      // encode is a linear pass and arrives sorted. A ragged relation (the
      // instance API never validates arity) is a clean error here, not an
      // out-of-bounds row read.
      MAPCOMP_ASSIGN_OR_RETURN(
          TupleTable t, TupleTable::FromSet(ks->instance->Get(e->name()),
                                            s->arity, ks->dict.get()));
      return OwnTable(std::move(t));
    }
    case SlotOp::kDomain:
      return EvalSlotDomain(ks, s);
    case SlotOp::kEmpty:
    case SlotOp::kSelectDomainEmpty:
      return OwnTable(TupleTable(s->arity));
    case SlotOp::kLiteral: {
      TupleTable out(s->arity);
      if (s->arity == 0) {
        if (!e->tuples().empty()) out.AppendRow(nullptr);
        return OwnTable(std::move(out));
      }
      std::vector<ValueId>& data = out.MutableData();
      for (const Tuple& t : e->tuples()) {
        for (const Value& v : t) data.push_back(ks->dict->Intern(v));
      }
      out.FinishAppends();
      out.SortDedupRows();
      return OwnTable(std::move(out));
    }
    case SlotOp::kUnion: {
      TablePtr a = in[0], b = in[1];
      // Shared immutably: a subsumed side means the union IS the other
      // side — no copy (Union(x, x) and the feed loop's re-unions).
      if (a->empty()) return b;
      if (b->empty() || a == b) return a;
      TupleTable merged = TupleTable::UnionOf(*a, *b);
      if (merged.size() == a->size()) return a;  // b ⊆ a
      if (merged.size() == b->size()) return b;  // a ⊆ b
      return OwnTable(std::move(merged));
    }
    case SlotOp::kIntersect: {
      TablePtr a = in[0], b = in[1];
      if (a == b) return a;
      TupleTable merged = TupleTable::IntersectOf(*a, *b);
      if (merged.size() == a->size()) return a;  // a ⊆ b
      return OwnTable(std::move(merged));
    }
    case SlotOp::kDifference: {
      TablePtr a = in[0], b = in[1];
      if (a == b) return OwnTable(TupleTable(s->arity));
      TupleTable merged = TupleTable::DifferenceOf(*a, *b);
      if (merged.size() == a->size()) return a;  // disjoint
      return OwnTable(std::move(merged));
    }
    case SlotOp::kJoin:
      return EvalSlotJoin(ks, s, in[0], in[1]);
    case SlotOp::kSelectFilter:
      return FilterTable(ks, s, in[0], s->cond);
    case SlotOp::kSelectDomain:
      return EvalSlotSelectDomain(ks, s);
    case SlotOp::kProject: {
      TablePtr a = in[0];
      const std::vector<int>& indexes = e->indexes();
      if (indexes.empty()) {
        TupleTable out(0);
        if (!a->empty()) out.AppendRow(nullptr);
        return OwnTable(std::move(out));
      }
      const int out_arity = static_cast<int>(indexes.size());
      TupleTable out = SlotTransform(
          ks, s, *a, a->size(), out_arity,
          [&indexes](const ValueId* row, std::vector<ValueId>* out_data) {
            for (int i : indexes) out_data->push_back(row[i - 1]);
          });
      out.SortDedupRows();  // projection reorders and may collapse rows
      return OwnTable(std::move(out));
    }
    case SlotOp::kSkolem: {
      TablePtr a = in[0];
      // Minted term ids may differ run to run under concurrency (Intern is
      // thread-safe but arrival order is schedule-dependent) — harmless: id
      // equality still means value equality, and the result surfaces
      // (ToSet, Fingerprint) re-canonicalize by value.
      const std::vector<int>& indexes = e->indexes();
      const int in_arity = a->arity();
      TupleTable out(in_arity + 1);
      std::vector<ValueId>& data = out.MutableData();
      data.reserve(static_cast<size_t>(a->size()) *
                   static_cast<size_t>(in_arity + 1));
      for (int64_t i = 0; i < a->size(); ++i) {
        const ValueId* row = a->Row(i);
        std::string term = e->name() + "(";
        for (size_t k = 0; k < indexes.size(); ++k) {
          if (k > 0) term += ",";
          term += ValueToString(ks->dict->ValueOf(row[indexes[k] - 1]));
        }
        term += ")";
        data.insert(data.end(), row, row + in_arity);
        data.push_back(ks->dict->Intern(Value(std::move(term))));
      }
      out.FinishAppends();
      out.SortRows();  // appended ids land out of id order; rows stay unique
      return OwnTable(std::move(out));
    }
    case SlotOp::kUserOp: {
      // Borrowed child tables in, one table out, no value decode anywhere.
      // The kernel may return rows unsorted / duplicated (hash-order
      // closures, multi-match outer joins) — canonicalize here so
      // downstream consumers keep the sorted-unique invariant every other
      // slot guarantees.
      std::vector<const TupleTable*> kids;
      kids.reserve(s->args.size());
      for (size_t i = 0; i < s->args.size(); ++i) kids.push_back(in[i].get());
      op::ColumnarContext ctx;
      ctx.dict = ks->dict.get();
      ctx.cond = &s->cond;
      ctx.domain_ids = &ks->domain_ids;
      MAPCOMP_ASSIGN_OR_RETURN(TupleTable out,
                               s->def->eval_columnar(*e, kids, ctx));
      if (out.arity() != s->arity) {
        // A kernel emitting the wrong width is a clean argument error, not
        // a crash downstream.
        return Status::InvalidArgument(
            "columnar operator " + e->name() + " returned arity " +
            std::to_string(out.arity()) + ", expected " +
            std::to_string(s->arity));
      }
      out.SortDedupRows();
      return OwnTable(std::move(out));
    }
  }
  return Status::Internal("unknown slot op");
}

/// The task body for one slot: gather inputs, compute (or propagate the
/// first failed input's status — every slot runs, so the error surfaced by
/// the whole evaluation is the lowest-slot one regardless of scheduling),
/// then retire this slot's claim on each distinct input, dropping tables
/// whose last consumer this was.
void RunSlot(KernelState* ks, int64_t idx) {
  Slot& s = ks->slots[static_cast<size_t>(idx)];
  common::fault::MaybeSleep(common::fault::FaultPoint::kSlowEvalSlot);
  std::vector<TablePtr> in;
  in.reserve(s.args.size());
  Status child_err = Status::OK();
  for (int64_t a : s.args) {
    Slot& c = ks->slots[static_cast<size_t>(a)];
    if (!c.status.ok() && child_err.ok()) child_err = c.status;
    in.push_back(c.result);
  }
  // Slot-boundary cancellation points. The entry poll skips the compute;
  // the exit poll discards a table whose sharded chunks may have early-outed
  // mid-slot (the token is monotonic, so a truncated table implies the exit
  // poll sees it fired — a truncated result can never be mistaken for a
  // completed one).
  if (child_err.ok()) child_err = ks->options->cancel.StatusAt("eval slot");
  if (child_err.ok()) {
    Result<TablePtr> r = EvalSlot(ks, &s, in);
    Status exit_poll = ks->options->cancel.StatusAt("eval slot");
    if (!exit_poll.ok()) {
      s.status = exit_poll;
    } else if (r.ok()) {
      s.result = std::move(r).value();
      s.bytes = s.result->ApproxBytes();
      s.d_tuples = s.result->size();
    } else {
      s.status = r.status();
    }
  } else {
    s.status = child_err;
  }
  in.clear();  // drop borrowed refs before releasing consumer claims
  std::vector<int64_t> distinct = s.args;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  for (int64_t a : distinct) {
    Slot& c = ks->slots[static_cast<size_t>(a)];
    // acq_rel: our read of c.result happened-before this decrement, and the
    // zero-observing consumer's reset happens-after every other decrement.
    if (c.live_consumers.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      c.result.reset();
    }
  }
}

/// A completed kernel evaluation: the state (holding root tables + dict)
/// plus replayed per-root and total stats.
struct KernelRun {
  KernelState ks;
  std::vector<EvalStats> root_stats;
  EvalStats total;
};

/// Folds the slots' measured outputs into per-root stats buckets by
/// replaying the plan's event log in order. Plan order equals the old
/// recursive engine's execution order, so every counter — including the
/// live-bytes watermark — lands in the same bucket with the same value,
/// at any lane count.
void ReplayStats(KernelRun* run) {
  KernelState& ks = run->ks;
  run->root_stats.assign(ks.root_slots.size(), EvalStats{});
  size_t bucket = 0;
  int64_t live = 0;
  int64_t peak = 0;
  for (const PlanEvent& ev : ks.events) {
    if (bucket >= run->root_stats.size()) break;
    EvalStats& st = run->root_stats[bucket];
    switch (ev.kind) {
      case PlanEvent::kEval: {
        const Slot& s = ks.slots[static_cast<size_t>(ev.slot)];
        ++st.nodes_evaluated;
        st.tuples_produced += s.d_tuples;
        st.sharded_nodes += s.d_sharded;
        st.hash_join_nodes += s.d_hash_join;
        st.nested_product_nodes += s.d_nested;
        st.tasks_spawned += 1 + s.d_tasks;
        st.memo_bytes_total += s.bytes;
        live += s.bytes;
        peak = std::max(peak, live);
        break;
      }
      case PlanEvent::kHit:
        ++st.memo_hits;
        break;
      case PlanEvent::kDrop:
        live -= ks.slots[static_cast<size_t>(ev.slot)].bytes;
        break;
      case PlanEvent::kRootEnd:
        st.memo_bytes_peak = peak;
        st.max_ready_depth = ks.root_width[bucket];
        ++bucket;
        break;
    }
  }
  for (const EvalStats& st : run->root_stats) run->total.MergeFrom(st);
}

/// Plans and runs the kernel task graph for a root forest. On success the
/// returned run holds every root's result table (pinned — non-root slot
/// tables were dropped as their consumers retired) and replayed stats.
Result<std::unique_ptr<KernelRun>> KernelExecute(
    const std::vector<ExprPtr>& roots, const Instance& instance,
    const EvalOptions& options) {
  for (const ExprPtr& root : roots) {
    if (root == nullptr) return Status::InvalidArgument("null expression");
  }
  MAPCOMP_RETURN_IF_ERROR(options.cancel.StatusAt("eval plan"));
  auto run = std::make_unique<KernelRun>();
  KernelState& ks = run->ks;
  ks.instance = &instance;
  ks.options = &options;
  // Seed the dictionary with everything the evaluation can see up front
  // (domain + every expression constant), sorted — so the id order over
  // this range is the value order and encodes/enumerations arrive sorted.
  // This is the evaluation's single value-set copy: the domain is kept as
  // ids from here on.
  std::set<Value> universe = instance.ActiveDomain();
  universe.insert(options.extra_constants.begin(),
                  options.extra_constants.end());
  size_t domain_size = universe.size();
  std::set<const Expr*> visited;
  for (const ExprPtr& root : roots) {
    CollectExprConstants(root, &universe, &visited);
  }
  ks.dict = std::make_shared<ValueDict>();
  ks.dict->Seed(universe);
  ks.domain_ids.reserve(domain_size);
  for (const Value& v : instance.ActiveDomain()) {
    ks.domain_ids.push_back(*ks.dict->Find(v));
  }
  for (const Value& v : options.extra_constants) {
    ks.domain_ids.push_back(*ks.dict->Find(v));
  }
  std::sort(ks.domain_ids.begin(), ks.domain_ids.end());
  ks.domain_ids.erase(
      std::unique(ks.domain_ids.begin(), ks.domain_ids.end()),
      ks.domain_ids.end());
  if (options.jobs > 1) {
    ks.pool = runtime::GlobalPool();
    ks.max_helpers = options.jobs - 1;
  }
  std::set<const Expr*> counted;
  for (const ExprPtr& root : roots) {
    ++ks.uses[root.get()].remaining;
    CountUses(root, &ks.uses, &counted);
  }
  // Phase 1: sequential plan.
  for (const ExprPtr& root : roots) {
    MAPCOMP_ASSIGN_OR_RETURN(int64_t slot, PlanVisit(root, &ks));
    ks.root_slots.push_back(slot);
    SimConsume(root.get(), &ks);
    ks.events.push_back({PlanEvent::kRootEnd, slot});
    ks.root_width.push_back(ks.max_width);
  }
  // Consumer refcounts: one claim per distinct dependent slot, plus a
  // never-released pin per root occurrence (the caller takes those tables).
  for (const Slot& s : ks.slots) {
    std::vector<int64_t> distinct = s.args;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    for (int64_t a : distinct) {
      ks.slots[static_cast<size_t>(a)].live_consumers.fetch_add(
          1, std::memory_order_relaxed);
    }
  }
  for (int64_t root_slot : ks.root_slots) {
    ks.slots[static_cast<size_t>(root_slot)].live_consumers.fetch_add(
        1, std::memory_order_relaxed);
  }
  // Phase 2: run the task graph. Dependencies are the slot's input slots,
  // indexes are topological by construction (children planned first).
  runtime::TaskDag dag;
  KernelState* ksp = &ks;
  for (int64_t i = 0; i < static_cast<int64_t>(ks.slots.size()); ++i) {
    dag.AddTask([ksp, i] { RunSlot(ksp, i); },
                ks.slots[static_cast<size_t>(i)].args);
  }
  dag.Run(ks.pool, ks.max_helpers, &options.cancel);
  // Error precedence: every slot ran (failed inputs propagate), so the
  // first non-OK slot in plan order is the same error the recursive engine
  // would have hit first — independent of scheduling. (A fired token
  // weakens this: slots the dag retired unexecuted carry OK statuses, so
  // the scan may find nothing — the root check below catches that case.)
  for (const Slot& s : ks.slots) {
    if (!s.status.ok()) return s.status;
  }
  // Completion wins the race: a token that fired only after every root
  // table materialized changes nothing. Otherwise some root never ran and
  // the evaluation surfaces the token's status.
  if (options.cancel.Fired()) {
    for (int64_t root_slot : ks.root_slots) {
      if (ks.slots[static_cast<size_t>(root_slot)].result == nullptr) {
        return options.cancel.StatusAt("eval");
      }
    }
  }
  // Phase 3: replay stats.
  ReplayStats(run.get());
  return run;
}

}  // namespace

void EvalStats::MergeFrom(const EvalStats& other) {
  nodes_evaluated += other.nodes_evaluated;
  memo_hits += other.memo_hits;
  sharded_nodes += other.sharded_nodes;
  tuples_produced += other.tuples_produced;
  hash_join_nodes += other.hash_join_nodes;
  nested_product_nodes += other.nested_product_nodes;
  memo_bytes_total += other.memo_bytes_total;
  memo_bytes_peak = std::max(memo_bytes_peak, other.memo_bytes_peak);
  tasks_spawned += other.tasks_spawned;
  max_ready_depth = std::max(max_ready_depth, other.max_ready_depth);
}

EvalStats EvalStats::DiffFrom(const EvalStats& before) const {
  EvalStats out;
  out.nodes_evaluated = nodes_evaluated - before.nodes_evaluated;
  out.memo_hits = memo_hits - before.memo_hits;
  out.sharded_nodes = sharded_nodes - before.sharded_nodes;
  out.tuples_produced = tuples_produced - before.tuples_produced;
  out.hash_join_nodes = hash_join_nodes - before.hash_join_nodes;
  out.nested_product_nodes =
      nested_product_nodes - before.nested_product_nodes;
  out.memo_bytes_total = memo_bytes_total - before.memo_bytes_total;
  out.memo_bytes_peak = memo_bytes_peak;  // watermark, not a counter
  out.tasks_spawned = tasks_spawned - before.tasks_spawned;
  out.max_ready_depth = max_ready_depth;  // watermark, not a counter
  return out;
}

std::string EvalStats::ToString() const {
  return "eval: " + std::to_string(nodes_evaluated) + " nodes, " +
         std::to_string(memo_hits) + " memo hits, " +
         std::to_string(sharded_nodes) + " sharded, " +
         std::to_string(tuples_produced) + " tuples, " +
         std::to_string(hash_join_nodes) + " hash joins, " +
         std::to_string(nested_product_nodes) + " nested products, memo " +
         std::to_string(memo_bytes_peak) + "B peak / " +
         std::to_string(memo_bytes_total) + "B total, " +
         std::to_string(tasks_spawned) + " tasks, ready width " +
         std::to_string(max_ready_depth);
}

/// Shared decode-on-demand payload: copies of one EvalResult (and the
/// evaluator's own handle) all see the same cached decode.
struct EvalResult::Lazy {
  std::mutex mu;
  bool decoded = false;
  std::set<Tuple> set;
  std::shared_ptr<const TupleTable> table;
  std::shared_ptr<const ValueDict> dict;
};

EvalResult::EvalResult() : lazy_(std::make_shared<Lazy>()) {}

const std::set<Tuple>& EvalResult::tuples() const {
  static const std::set<Tuple>* kEmpty = new std::set<Tuple>();
  if (lazy_ == nullptr) return *kEmpty;
  std::lock_guard<std::mutex> lock(lazy_->mu);
  if (!lazy_->decoded) {
    if (lazy_->table != nullptr) {
      lazy_->set = lazy_->table->ToSet(*lazy_->dict);
    }
    lazy_->decoded = true;
    lazy_->table.reset();
    lazy_->dict.reset();
  }
  return lazy_->set;
}

std::set<Tuple> EvalResult::TakeTuples() {
  if (lazy_ == nullptr) return {};
  tuples();  // force the decode (idempotent)
  std::lock_guard<std::mutex> lock(lazy_->mu);
  std::set<Tuple> out = std::move(lazy_->set);
  lazy_->set.clear();
  return out;
}

void EvalResult::SetDecoded(std::set<Tuple> tuples) {
  if (lazy_ == nullptr) lazy_ = std::make_shared<Lazy>();
  std::lock_guard<std::mutex> lock(lazy_->mu);
  lazy_->set = std::move(tuples);
  lazy_->decoded = true;
  lazy_->table.reset();
  lazy_->dict.reset();
}

void EvalResult::SetTable(std::shared_ptr<const TupleTable> table,
                          std::shared_ptr<const ValueDict> dict) {
  if (lazy_ == nullptr) lazy_ = std::make_shared<Lazy>();
  std::lock_guard<std::mutex> lock(lazy_->mu);
  lazy_->table = std::move(table);
  lazy_->dict = std::move(dict);
  lazy_->decoded = false;
  lazy_->set.clear();
}

namespace {

void AppendValueFp(const Value& v, std::string* out) {
  if (const int64_t* i = std::get_if<int64_t>(&v)) {
    *out += "i" + std::to_string(*i) + ";";
  } else {
    const std::string& s = std::get<std::string>(v);
    *out += "s" + std::to_string(s.size()) + ":" + s + ";";
  }
}

}  // namespace

std::string EvalResult::Fingerprint() const {
  // Canonical, not pretty: string values are length-prefixed (a quote or
  // comma inside a value must never make two different tuple sets
  // serialize identically — this string is the determinism oracle).
  if (lazy_ != nullptr) {
    std::lock_guard<std::mutex> lock(lazy_->mu);
    if (!lazy_->decoded && lazy_->table != nullptr) {
      const TupleTable& t = *lazy_->table;
      const ValueDict& dict = *lazy_->dict;
      // Zero-decode fast path: when every id is in the dictionary's seeded
      // order-preserving range, the sorted table's row order IS the decoded
      // set's order — stream it directly, no std::set, no Tuple heap
      // allocation. (Minted ids — Skolem terms, user-op outputs — break
      // the order guarantee; fall through to the cached decode for those.)
      bool all_seeded = true;
      for (ValueId id : t.Data()) {
        if (id >= dict.ordered_limit()) {
          all_seeded = false;
          break;
        }
      }
      if (all_seeded) {
        std::string out = "eval{arity=" + std::to_string(arity) +
                          ";n=" + std::to_string(t.size()) + ";";
        const int a = t.arity();
        for (int64_t i = 0; i < t.size(); ++i) {
          out += "t" + std::to_string(a) + ":";
          const ValueId* row = t.Row(i);
          for (int k = 0; k < a; ++k) {
            AppendValueFp(dict.ValueOf(row[k]), &out);
          }
        }
        out += "}";
        return out;
      }
      lazy_->set = t.ToSet(dict);
      lazy_->decoded = true;
      lazy_->table.reset();
      lazy_->dict.reset();
    }
  }
  const std::set<Tuple>& ts = tuples();
  std::string out = "eval{arity=" + std::to_string(arity) +
                    ";n=" + std::to_string(ts.size()) + ";";
  for (const Tuple& t : ts) {
    out += "t" + std::to_string(t.size()) + ":";
    for (const Value& v : t) AppendValueFp(v, &out);
  }
  out += "}";
  return out;
}

Result<std::vector<EvalResult>> EvaluateMany(const std::vector<ExprPtr>& roots,
                                             const Instance& instance,
                                             const EvalOptions& options) {
  MAPCOMP_ASSIGN_OR_RETURN(std::unique_ptr<KernelRun> run,
                           KernelExecute(roots, instance, options));
  std::vector<EvalResult> results(roots.size());
  for (size_t i = 0; i < roots.size(); ++i) {
    results[i].arity = roots[i]->arity();
    results[i].stats = run->root_stats[i];
    // Columnar handoff: the table is decoded only if someone asks for
    // tuples() — fingerprints and containment checks never pay for it.
    results[i].SetTable(
        run->ks.slots[static_cast<size_t>(run->ks.root_slots[i])].result,
        run->ks.dict);
  }
  return results;
}

Result<bool> EvaluateContainment(const ExprPtr& lhs, const ExprPtr& rhs,
                                 bool equality, const Instance& instance,
                                 const EvalOptions& options,
                                 EvalStats* stats) {
  // Both sides run under one plan: shared subtrees evaluate once, and the
  // two roots' independent subtrees interleave on the task graph. The
  // subset check is a linear merge walk over the columnar tables — nothing
  // is decoded back to std::set.
  MAPCOMP_ASSIGN_OR_RETURN(std::unique_ptr<KernelRun> run,
                           KernelExecute({lhs, rhs}, instance, options));
  if (stats != nullptr) stats->MergeFrom(run->total);
  const TablePtr& a =
      run->ks.slots[static_cast<size_t>(run->ks.root_slots[0])].result;
  const TablePtr& b =
      run->ks.slots[static_cast<size_t>(run->ks.root_slots[1])].result;
  bool contained = TupleTable::SubsetOf(*a, *b);
  if (equality) contained = contained && a->size() == b->size();
  return contained;
}

Result<EvalResult> EvaluateFull(const ExprPtr& e, const Instance& instance,
                                const EvalOptions& options) {
  MAPCOMP_ASSIGN_OR_RETURN(std::vector<EvalResult> results,
                           EvaluateMany({e}, instance, options));
  return std::move(results[0]);
}

Result<std::set<Tuple>> Evaluate(const ExprPtr& e, const Instance& instance,
                                 const EvalOptions& options) {
  MAPCOMP_ASSIGN_OR_RETURN(EvalResult result,
                           EvaluateFull(e, instance, options));
  return result.TakeTuples();
}

}  // namespace mapcomp
