#include "src/eval/evaluator.h"

#include <algorithm>
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

namespace mapcomp {

namespace {

using eval_internal::CompiledCond;
using eval_internal::CompiledJoin;
using eval_internal::DomainSelectPlan;

/// Node results are shared, not copied: every parent holds the same table,
/// treated as immutable everywhere.
using TablePtr = std::shared_ptr<const TupleTable>;

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
  return std::make_shared<const TupleTable>(std::move(t));
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

// --------------------------------------------------------------------------
// The columnar kernel over the interned DAG.
//
// Evaluation runs in three phases, all on the calling thread:
//
//   1. PLAN: walk the DAG exactly like the old recursive evaluator walked
//      it — same memoization, same join/domain planning, same
//      refcount-driven drop cascade, same guard checks — but instead of
//      computing tables, record one `Slot` per node to compute and an
//      event log of what the walk observed (evals, memo hits, memo drops,
//      root boundaries). Which nodes run, which products are bypassed,
//      condition compilation / constant interning and the error precedence
//      of guards are decided here.
//
//   2. EXECUTE: run the slots in index order (children before parents). A
//      slot's table is dropped the moment its last consumer has run,
//      preserving the memo-peak behavior of the recursive engine.
//
//   3. REPLAY: walk the plan's event log and fold each slot's measured
//      outputs (row counts, bytes) into per-root EvalStats buckets in plan
//      order, including the memo_bytes_peak watermark.
//
// Parallelism lives one level up: CheckComposition runs whole instances
// on its lanes, each with its own EncodedInstance.
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

/// One planned node. Plan-time fields are written by the planner and
/// read-only during execution; execution fields are written when the slot
/// runs, after all of its inputs.
struct Slot {
  const Expr* node = nullptr;
  SlotOp op = SlotOp::kEmpty;
  int arity = 0;
  /// Input slot indexes in operator order (may repeat, e.g. Union(x, x)).
  std::vector<int64_t> args;
  /// `args` sorted and deduplicated: the slots this one holds a claim on.
  std::vector<int64_t> inputs;
  /// kRelation: the encoded relation (null when the instance has none).
  const EncodedInstance::Relation* rel = nullptr;

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
  /// have not run yet; the decrement to zero drops `result`.
  int64_t live_consumers = 0;
  // Measured replay payload: the stats deltas this slot's evaluation
  // contributes, folded into per-root buckets in plan order afterwards.
  int64_t bytes = 0;
  int64_t d_tuples = 0;
  int64_t d_hash_join = 0;
  int64_t d_nested = 0;
};

/// One observation of the sequential plan walk. Replayed in order against
/// the slots' measured outputs to reconstruct per-root stats.
struct PlanEvent {
  enum Kind { kEval, kHit, kDrop, kRootEnd } kind;
  int64_t slot = -1;
};

struct KernelState {
  const EncodedInstance* instance = nullptr;
  const EvalOptions* options = nullptr;
  /// The instance's dictionary, shared so results can outlive the
  /// evaluation (lazy decode).
  std::shared_ptr<ValueDict> dict;
  /// The instance's domain ids, ascending.
  const std::vector<ValueId>* domain_ids = nullptr;

  // Plan state.
  std::unordered_map<const Expr*, NodeUse> uses;
  std::unordered_map<const Expr*, int64_t> slot_of;
  /// deque: a planner holding a Slot& may add slots behind it.
  std::deque<Slot> slots;
  std::vector<PlanEvent> events;
  std::vector<int64_t> root_slots;
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
  ks->slots.emplace_back();
  Slot& s = ks->slots.back();
  s.node = node;
  s.op = op;
  s.arity = arity;
  s.args = std::move(args);
  // One consumer claim per distinct input slot.
  s.inputs = s.args;
  std::sort(s.inputs.begin(), s.inputs.end());
  s.inputs.erase(std::unique(s.inputs.begin(), s.inputs.end()),
                 s.inputs.end());
  for (int64_t a : s.inputs) ++ks->slots[static_cast<size_t>(a)].live_consumers;
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
  const std::vector<ValueId>& ids = *ks->domain_ids;
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
      ks->slots[static_cast<size_t>(slot)].rel = ks->instance->Find(e->name());
      FinishSlot(e.get(), slot, ks);
      return slot;
    }
    case ExprKind::kDomain: {
      int64_t d = static_cast<int64_t>(ks->domain_ids->size());
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
      // The node's condition is compiled here, with the plan's other
      // constants, and handed to the kernel at execution.
      s.cond = CompiledCond::Compile(e->condition(), ks->dict.get());
      FinishSlot(e.get(), slot, ks);
      return slot;
    }
  }
  return Status::Internal("unknown expression kind");
}

/// Execution sibling of TransformSet: applies `emit(row, out_data)` — which
/// appends whole rows of `out_arity` ids — to every row of `in`, in order.
/// Requires out_arity > 0 (callers special-case the degenerate arity-0
/// shapes).
template <typename Emit>
TupleTable TransformRows(const TupleTable& in, int out_arity,
                         const Emit& emit) {
  TupleTable out(out_arity);
  for (int64_t i = 0; i < in.size(); ++i) emit(in.Row(i), &out.MutableData());
  out.FinishAppends();
  return out;
}

Result<TablePtr> EvalSlotDomain(KernelState* ks, Slot* s) {
  const std::vector<ValueId>& ids = *ks->domain_ids;
  const int arity = s->arity;
  if (arity == 0) {
    TupleTable unit(0);
    unit.AppendRow(nullptr);
    return OwnTable(std::move(unit));
  }
  TupleTable out(arity);
  if (ids.empty()) return OwnTable(std::move(out));
  // Odometer over D^arity in lexicographic id order; ids is ascending, so
  // the rows come out sorted.
  std::vector<ValueId>& data = out.MutableData();
  std::vector<size_t> idx(static_cast<size_t>(arity), 0);
  for (;;) {
    for (size_t i : idx) data.push_back(ids[i]);
    int pos = arity - 1;
    while (pos >= 0 && ++idx[static_cast<size_t>(pos)] == ids.size()) {
      idx[static_cast<size_t>(pos--)] = 0;
    }
    if (pos < 0) break;
  }
  out.FinishAppends();
  return OwnTable(std::move(out));
}

/// Rows of `in` passing `cc`. Filtering preserves sortedness.
TablePtr FilterTable(KernelState* ks, const TablePtr& in,
                     const CompiledCond& cc) {
  const ValueDict& dict = *ks->dict;
  const int arity = in->arity();
  if (arity == 0) {
    TupleTable out(0);
    if (!in->empty() && cc.Eval(nullptr, 0, dict)) out.AppendRow(nullptr);
    return OwnTable(std::move(out));
  }
  return OwnTable(TransformRows(
      *in, arity,
      [&cc, &dict, arity](const ValueId* row, std::vector<ValueId>* out) {
        if (cc.Eval(row, arity, dict)) {
          out->insert(out->end(), row, row + arity);
        }
      }));
}

/// Every product and planned select(product) runs on the one JoinMatcher:
/// pushed-down filters first, then a build over one filtered side and a
/// probe of the other. With keys the smaller side is the build (ties go
/// left); without keys the right side is, so the probe walks left rows in
/// order and emits a-major rows that are already sorted.
Result<TablePtr> EvalSlotJoin(KernelState* ks, Slot* s, const TablePtr& a,
                              const TablePtr& b) {
  const CompiledJoin& join = s->join;
  TablePtr fa = join.left_filter.IsTrue()
                    ? a
                    : FilterTable(ks, a, join.left_filter);
  TablePtr fb = join.right_filter.IsTrue()
                    ? b
                    : FilterTable(ks, b, join.right_filter);
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
  if (build.empty()) return OwnTable(TupleTable(out_arity));
  const eval_internal::JoinMatcher matcher(build, build_left, probe.arity(),
                                           join.keys, join.residual,
                                           *ks->dict);
  const int la = fa->arity(), ra = fb->arity();
  TupleTable out = TransformRows(
      probe, out_arity,
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

/// select(D^r) with bound coordinates: an odometer over the free classes'
/// domain ids, each bound class holding its pinned id.
Result<TablePtr> EvalSlotSelectDomain(KernelState* ks, Slot* s) {
  const int r = s->arity;
  const std::vector<ValueId>& ids = *ks->domain_ids;
  const int free_count = s->free_count;
  TupleTable out(r);
  if (free_count > 0 && ids.empty()) return OwnTable(std::move(out));
  std::vector<ValueId>& data = out.MutableData();
  std::vector<size_t> odo(static_cast<size_t>(free_count), 0);
  std::vector<ValueId> row(static_cast<size_t>(r));
  for (;;) {
    for (size_t k = 0; k < row.size(); ++k) {
      const size_t c = static_cast<size_t>(s->class_of[k]);
      row[k] = s->class_bound[c]
                   ? s->class_id[c]
                   : ids[odo[static_cast<size_t>(s->free_slot[c])]];
    }
    if (s->cond.Eval(row.data(), r, *ks->dict)) {
      data.insert(data.end(), row.begin(), row.end());
    }
    int pos = free_count - 1;
    while (pos >= 0 && ++odo[static_cast<size_t>(pos)] == ids.size()) {
      odo[static_cast<size_t>(pos--)] = 0;
    }
    if (pos < 0) break;
  }
  out.FinishAppends();
  // Class-major enumeration is not coordinate-lexicographic; assignments
  // are distinct, so sorting alone canonicalizes.
  out.SortRows();
  return OwnTable(std::move(out));
}

/// Computes one slot's table from its input tables. Pure modulo the slot's
/// own measured counters: every branch taken here was decided at plan time
/// or depends only on the input tables.
Result<TablePtr> EvalSlot(KernelState* ks, Slot* s,
                          const std::vector<TablePtr>& in) {
  const Expr* e = s->node;
  switch (s->op) {
    case SlotOp::kRelation:
      // The instance's own table, shared. A ragged relation (the instance
      // API never validates arity) is a clean error here, not an
      // out-of-bounds row read.
      return ks->instance->TableOf(s->rel, s->arity);
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
      return FilterTable(ks, in[0], s->cond);
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
      TupleTable out = TransformRows(
          *a, out_arity,
          [&indexes](const ValueId* row, std::vector<ValueId>* out_data) {
            for (int i : indexes) out_data->push_back(row[i - 1]);
          });
      out.SortDedupRows();  // projection reorders and may collapse rows
      return OwnTable(std::move(out));
    }
    case SlotOp::kSkolem: {
      TablePtr a = in[0];
      // Minted term ids depend on what the dictionary already holds (other
      // evaluations on the same encoded instance mint into it too) —
      // harmless: id equality still means value equality, and the result
      // surfaces (ToSet, Fingerprint) re-canonicalize by value.
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
      ctx.domain_ids = ks->domain_ids;
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

/// Runs one slot: gather inputs, compute (or propagate the first failed
/// input's status, so the error surfaced by the whole evaluation is the
/// lowest-slot one), then release this slot's claim on each distinct
/// input, dropping tables whose last consumer this was.
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
  // the exit poll fails a slot during whose compute the token fired.
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
  for (int64_t a : s.inputs) {
    Slot& c = ks->slots[static_cast<size_t>(a)];
    if (--c.live_consumers == 0) c.result.reset();
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
/// live-bytes watermark — lands in the same bucket with the same value.
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
        st.hash_join_nodes += s.d_hash_join;
        st.nested_product_nodes += s.d_nested;
        ++st.tasks_spawned;
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
        ++bucket;
        break;
    }
  }
  for (const EvalStats& st : run->root_stats) run->total.MergeFrom(st);
}

/// Plans and runs the kernel for a root forest. On success the returned run
/// holds every root's result table (pinned — non-root slot tables were
/// dropped as their consumers ran) and replayed stats.
Result<std::unique_ptr<KernelRun>> KernelExecute(
    const std::vector<ExprPtr>& roots, const EncodedInstance& instance,
    const EvalOptions& options) {
  for (const ExprPtr& root : roots) {
    if (root == nullptr) return Status::InvalidArgument("null expression");
  }
  MAPCOMP_RETURN_IF_ERROR(options.cancel.StatusAt("eval plan"));
  auto run = std::make_unique<KernelRun>();
  KernelState& ks = run->ks;
  ks.instance = &instance;
  ks.options = &options;
  ks.dict = instance.dict();
  ks.domain_ids = &instance.domain_ids();
  std::set<const Expr*> counted;
  for (const ExprPtr& root : roots) {
    ++ks.uses[root.get()].remaining;
    CountUses(root, &ks.uses, &counted);
  }
  // Phase 1: sequential plan. NewSlot takes each slot's consumer claims on
  // its inputs; each root occurrence adds a never-released pin (the caller
  // takes those tables).
  for (const ExprPtr& root : roots) {
    MAPCOMP_ASSIGN_OR_RETURN(int64_t slot, PlanVisit(root, &ks));
    ks.root_slots.push_back(slot);
    SimConsume(root.get(), &ks);
    ks.events.push_back({PlanEvent::kRootEnd, slot});
  }
  for (int64_t root_slot : ks.root_slots) {
    ++ks.slots[static_cast<size_t>(root_slot)].live_consumers;
  }
  // Phase 2: run the slots in index order, which is topological by
  // construction (children planned first), stopping at a fired token.
  const int64_t n = static_cast<int64_t>(ks.slots.size());
  for (int64_t i = 0; i < n && !options.cancel.Fired(); ++i) {
    RunSlot(&ks, i);
  }
  // Error precedence: every slot ran (failed inputs propagate), so the
  // first non-OK slot in plan order is the same error the recursive engine
  // would have hit first. (A fired token weakens this: slots after it never
  // ran and carry OK statuses, so the scan may find nothing — the root
  // check below catches that case.)
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
  tuples_produced += other.tuples_produced;
  hash_join_nodes += other.hash_join_nodes;
  nested_product_nodes += other.nested_product_nodes;
  memo_bytes_total += other.memo_bytes_total;
  memo_bytes_peak = std::max(memo_bytes_peak, other.memo_bytes_peak);
  tasks_spawned += other.tasks_spawned;
}

EvalStats EvalStats::DiffFrom(const EvalStats& before) const {
  EvalStats out;
  out.nodes_evaluated = nodes_evaluated - before.nodes_evaluated;
  out.memo_hits = memo_hits - before.memo_hits;
  out.tuples_produced = tuples_produced - before.tuples_produced;
  out.hash_join_nodes = hash_join_nodes - before.hash_join_nodes;
  out.nested_product_nodes =
      nested_product_nodes - before.nested_product_nodes;
  out.memo_bytes_total = memo_bytes_total - before.memo_bytes_total;
  out.memo_bytes_peak = memo_bytes_peak;  // watermark, not a counter
  out.tasks_spawned = tasks_spawned - before.tasks_spawned;
  return out;
}

std::string EvalStats::ToString() const {
  return "eval: " + std::to_string(nodes_evaluated) + " nodes, " +
         std::to_string(memo_hits) + " memo hits, " +
         std::to_string(tuples_produced) + " tuples, " +
         std::to_string(hash_join_nodes) + " hash joins, " +
         std::to_string(nested_product_nodes) + " nested products, memo " +
         std::to_string(memo_bytes_peak) + "B peak / " +
         std::to_string(memo_bytes_total) + "B total, " +
         std::to_string(tasks_spawned) + " tasks";
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

std::shared_ptr<const TupleTable> EvalResult::table() const {
  if (lazy_ == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(lazy_->mu);
  return lazy_->table;
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
  return EvaluateMany(
      roots, EncodedInstance::ForRoots(instance, options.extra_constants, roots),
      options);
}

Result<std::vector<EvalResult>> EvaluateMany(const std::vector<ExprPtr>& roots,
                                             const EncodedInstance& instance,
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
  return EvaluateContainment(
      lhs, rhs, equality,
      EncodedInstance::ForRoots(instance, options.extra_constants, {lhs, rhs}),
      options, stats);
}

Result<bool> EvaluateContainment(const ExprPtr& lhs, const ExprPtr& rhs,
                                 bool equality,
                                 const EncodedInstance& instance,
                                 const EvalOptions& options,
                                 EvalStats* stats) {
  // Both sides run under one plan, so shared subtrees evaluate once. The
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

Result<EvalResult> EvaluateFull(const ExprPtr& e,
                                const EncodedInstance& instance,
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
