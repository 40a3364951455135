#include "src/eval/evaluator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "src/algebra/dag_walk.h"
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

TablePtr OwnTable(TupleTable t) {
  return std::make_shared<const TupleTable>(std::move(t));
}

// --------------------------------------------------------------------------
// The columnar kernel over the interned DAG.
//
// One recursive, memoized walk on the calling thread, shaped like the
// nested-loop oracle. When the walk first reaches a node, `Rec` computes
// its table from its children's memoized tables, adds its counters to the
// running EvalStats on the spot and memoizes it until its last parent edge
// has consumed it (`Consume`). The kernel keeps its own strategies: a
// select over an unmaterialized product runs as one join, a select over
// D^r enumerates only its free coordinate classes, and user operators run
// on columns. An evaluation fails with the first failing node in visit
// order.
//
// Parallelism lives one level up: CheckComposition runs whole instances
// on its lanes, each with its own EncodedInstance.
// --------------------------------------------------------------------------

/// One distinct node of a walk's root forest: the parent edges (plus root
/// occurrences) that have not consumed its table yet, and the table while
/// it is memoized.
struct NodeSlot {
  int64_t pending = 0;
  TablePtr table;
};

struct Walk {
  const EncodedInstance* instance = nullptr;
  const EvalOptions* options = nullptr;
  ValueDict* dict = nullptr;
  /// The instance's domain ids, ascending.
  const std::vector<ValueId>* domain_ids = nullptr;
  /// Every node is added while the forest is counted, before anything is
  /// computed, so slots never move while the walk runs.
  NodeTable<NodeSlot> nodes;
  /// Counters of the whole evaluation so far; a root's share is the
  /// DiffFrom of its walk.
  EvalStats stats;
  int64_t live_bytes = 0;
};

/// A walk's roots are held by its caller, either as ExprPtrs or, to spare
/// the copies, as pointers to them.
const ExprPtr& RootOf(const ExprPtr& root) { return root; }
const ExprPtr& RootOf(const ExprPtr* root) { return *root; }

/// Counts the pending consumptions of every node's table: one per static
/// parent edge, one per root occurrence.
template <typename Roots>
void CountEdges(const Roots& roots, NodeTable<NodeSlot>* nodes) {
  for (const auto& root : roots) {
    WalkDag(
        RootOf(root), nodes, [](const ExprPtr&) { return Visit::kEnter; },
        [nodes](const ExprPtr& e, NodeSlot*) {
          for (const ExprPtr& c : e->children()) {
            ++nodes->Insert(c.get()).pending;
          }
          return true;
        });
  }
  // Last: a walk skips the nodes the table already holds.
  for (const auto& root : roots) ++nodes->Insert(RootOf(root).get()).pending;
}

/// One parent edge (or root occurrence) of `e` is done with its table. The
/// last one drops the memo entry. A node the walk planned around (a product
/// run as a join, the D^r under a pruned select) was never computed, so its
/// own child edges are released instead.
void Consume(const Expr* e, Walk* w) {
  NodeSlot& slot = w->nodes.At(e);
  if (--slot.pending > 0) return;
  if (slot.table != nullptr) {
    w->live_bytes -= slot.table->ApproxBytes();
    slot.table.reset();
    return;
  }
  for (const ExprPtr& c : e->children()) Consume(c.get(), w);
}

/// Applies `emit(row, out_data)` — which appends whole rows of `out_arity`
/// ids — to every row of `in`, in order. Requires out_arity > 0 (callers
/// special-case the degenerate arity-0 shapes).
template <typename Emit>
TupleTable TransformRows(const TupleTable& in, int out_arity,
                         const Emit& emit) {
  TupleTable out(out_arity);
  for (int64_t i = 0; i < in.size(); ++i) emit(in.Row(i), &out.MutableData());
  out.FinishAppends();
  return out;
}

Result<TablePtr> EvalDomain(int arity, Walk* w) {
  const std::vector<ValueId>& ids = *w->domain_ids;
  double size = std::pow(static_cast<double>(ids.size()),
                         static_cast<double>(arity));
  // Checked before any tuple is enumerated, so an oversized domain
  // surfaces as an error, never a hang.
  if (size > static_cast<double>(w->options->max_domain_tuples)) {
    return Status::ResourceExhausted(
        "enumerating D^" + std::to_string(arity) + " over " +
        std::to_string(ids.size()) + " values is too large");
  }
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
TablePtr FilterTable(const ValueDict& dict, const TablePtr& in,
                     const CompiledCond& cc) {
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

/// Every product and select(product) runs on the one JoinMatcher:
/// pushed-down filters first, then a build over one filtered side and a
/// probe of the other. With keys the smaller side is the build (ties go
/// left); without keys the right side is, so the probe walks left rows in
/// order and emits a-major rows that are already sorted. A bare product
/// passes the empty plan (no filters, keys or residual).
TablePtr EvalJoin(const CompiledJoin& join, int out_arity, const TablePtr& a,
                  const TablePtr& b, Walk* w) {
  TablePtr fa = join.left_filter.IsTrue()
                    ? a
                    : FilterTable(*w->dict, a, join.left_filter);
  TablePtr fb = join.right_filter.IsTrue()
                    ? b
                    : FilterTable(*w->dict, b, join.right_filter);
  const bool keyed = !join.keys.empty();
  ++(keyed ? w->stats.hash_join_nodes : w->stats.nested_product_nodes);
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
                                           *w->dict);
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
/// domain ids, each bound class holding its pinned id. The guard measures
/// the *pruned* space |D|^free_classes, and so does its diagnostic.
Result<TablePtr> EvalSelectDomain(const ExprPtr& e,
                                  const DomainSelectPlan& plan, Walk* w) {
  const int r = e->child(0)->arity();
  const std::vector<ValueId>& ids = *w->domain_ids;
  std::vector<ValueId> class_id(static_cast<size_t>(plan.num_classes), 0);
  std::vector<char> class_bound(static_cast<size_t>(plan.num_classes), 0);
  std::vector<int> free_slot(static_cast<size_t>(plan.num_classes), -1);
  int free_count = 0;
  for (int c = 0; c < plan.num_classes; ++c) {
    if (plan.class_const[static_cast<size_t>(c)]) {
      const ValueId* id =
          w->dict->Find(*plan.class_const[static_cast<size_t>(c)]);
      // D^r only contains domain values: a coordinate pinned to a constant
      // outside D makes the selection empty without enumerating anything.
      if (id == nullptr ||
          !std::binary_search(ids.begin(), ids.end(), *id)) {
        return OwnTable(TupleTable(r));
      }
      class_id[static_cast<size_t>(c)] = *id;
      class_bound[static_cast<size_t>(c)] = 1;
    } else {
      free_slot[static_cast<size_t>(c)] = free_count++;
    }
  }
  double size = std::pow(static_cast<double>(ids.size()),
                         static_cast<double>(free_count));
  if (size > static_cast<double>(w->options->max_domain_tuples)) {
    return Status::ResourceExhausted(
        "constraint-pruned enumeration of sigma(D^" + std::to_string(r) +
        ") over " + std::to_string(ids.size()) + " values still needs " +
        std::to_string(free_count) +
        " free coordinate classes — too large");
  }
  const CompiledCond cond = CompiledCond::Compile(e->condition(), w->dict);
  TupleTable out(r);
  if (free_count > 0 && ids.empty()) return OwnTable(std::move(out));
  std::vector<ValueId>& data = out.MutableData();
  std::vector<size_t> odo(static_cast<size_t>(free_count), 0);
  std::vector<ValueId> row(static_cast<size_t>(r));
  for (;;) {
    for (size_t k = 0; k < row.size(); ++k) {
      const size_t c = static_cast<size_t>(plan.class_of[k]);
      row[k] = class_bound[c]
                   ? class_id[c]
                   : ids[odo[static_cast<size_t>(free_slot[c])]];
    }
    if (cond.Eval(row.data(), r, *w->dict)) {
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

Result<TablePtr> Rec(const ExprPtr& e, Walk* w);

/// Computes node `e`'s table, visiting the children it reads.
Result<TablePtr> EvalNode(const ExprPtr& e, Walk* w) {
  switch (e->kind()) {
    case ExprKind::kRelation:
      // The instance's own table, shared, found by the leaf's id. A ragged
      // relation (the instance API never validates arity) is a clean error
      // here, not an out-of-bounds row read.
      return w->instance->TableOf(*e);
    case ExprKind::kDomain:
      return EvalDomain(e->arity(), w);
    case ExprKind::kEmpty:
      return OwnTable(TupleTable(e->arity()));
    case ExprKind::kLiteral: {
      TupleTable out(e->arity());
      if (e->arity() == 0) {
        if (!e->tuples().empty()) out.AppendRow(nullptr);
        return OwnTable(std::move(out));
      }
      std::vector<ValueId>& data = out.MutableData();
      for (const Tuple& t : e->tuples()) {
        for (const Value& v : t) data.push_back(w->dict->Intern(v));
      }
      out.FinishAppends();
      out.SortDedupRows();
      return OwnTable(std::move(out));
    }
    case ExprKind::kUnion: {
      MAPCOMP_ASSIGN_OR_RETURN(TablePtr a, Rec(e->child(0), w));
      MAPCOMP_ASSIGN_OR_RETURN(TablePtr b, Rec(e->child(1), w));
      // Shared immutably: a subsumed side means the union IS the other
      // side — no copy (Union(x, x) and the feed loop's re-unions).
      if (a->empty()) return b;
      if (b->empty() || a == b) return a;
      TupleTable merged = TupleTable::UnionOf(*a, *b);
      if (merged.size() == a->size()) return a;  // b ⊆ a
      if (merged.size() == b->size()) return b;  // a ⊆ b
      return OwnTable(std::move(merged));
    }
    case ExprKind::kIntersect: {
      MAPCOMP_ASSIGN_OR_RETURN(TablePtr a, Rec(e->child(0), w));
      MAPCOMP_ASSIGN_OR_RETURN(TablePtr b, Rec(e->child(1), w));
      if (a == b) return a;
      TupleTable merged = TupleTable::IntersectOf(*a, *b);
      if (merged.size() == a->size()) return a;  // a ⊆ b
      return OwnTable(std::move(merged));
    }
    case ExprKind::kDifference: {
      MAPCOMP_ASSIGN_OR_RETURN(TablePtr a, Rec(e->child(0), w));
      MAPCOMP_ASSIGN_OR_RETURN(TablePtr b, Rec(e->child(1), w));
      if (a == b) return OwnTable(TupleTable(e->arity()));
      TupleTable merged = TupleTable::DifferenceOf(*a, *b);
      if (merged.size() == a->size()) return a;  // disjoint
      return OwnTable(std::move(merged));
    }
    case ExprKind::kProduct: {
      MAPCOMP_ASSIGN_OR_RETURN(TablePtr a, Rec(e->child(0), w));
      MAPCOMP_ASSIGN_OR_RETURN(TablePtr b, Rec(e->child(1), w));
      return EvalJoin(CompiledJoin(), e->arity(), a, b, w);
    }
    case ExprKind::kSelect: {
      const ExprPtr& child = e->child(0);
      // select(product(a, b)) runs as one join, the product itself never
      // materialized — unless another parent already evaluated it (it
      // stays memoized while this select's edge is pending): filtering it
      // is cheaper than re-joining, and its children may be dropped.
      if (child->kind() == ExprKind::kProduct &&
          w->nodes.At(child.get()).table == nullptr) {
        MAPCOMP_ASSIGN_OR_RETURN(TablePtr a, Rec(child->child(0), w));
        MAPCOMP_ASSIGN_OR_RETURN(TablePtr b, Rec(child->child(1), w));
        return EvalJoin(
            CompiledJoin::Compile(e->condition(), child->child(0)->arity(),
                                  child->child(1)->arity(), w->dict),
            e->arity(), a, b, w);
      }
      if (child->kind() == ExprKind::kDomain) {
        DomainSelectPlan plan =
            eval_internal::PlanDomainSelect(e->condition(), child->arity());
        if (plan.unsatisfiable) return OwnTable(TupleTable(e->arity()));
        if (plan.useful) return EvalSelectDomain(e, plan, w);
        // Nothing to prune — evaluate D^r normally so it stays memoized.
      }
      MAPCOMP_ASSIGN_OR_RETURN(TablePtr a, Rec(child, w));
      return FilterTable(*w->dict, a,
                         CompiledCond::Compile(e->condition(), w->dict));
    }
    case ExprKind::kProject: {
      MAPCOMP_ASSIGN_OR_RETURN(TablePtr a, Rec(e->child(0), w));
      const std::vector<int>& indexes = e->indexes();
      if (indexes.empty()) {
        TupleTable out(0);
        if (!a->empty()) out.AppendRow(nullptr);
        return OwnTable(std::move(out));
      }
      TupleTable out = TransformRows(
          *a, e->arity(),
          [&indexes](const ValueId* row, std::vector<ValueId>* out_data) {
            for (int i : indexes) out_data->push_back(row[i - 1]);
          });
      out.SortDedupRows();  // projection reorders and may collapse rows
      return OwnTable(std::move(out));
    }
    case ExprKind::kSkolem: {
      if (w->options->skolem_mode == SkolemEvalMode::kError) {
        return Status::Unsupported(
            "cannot evaluate Skolem function " + e->name() +
            " without an interpretation (SkolemEvalMode::kError)");
      }
      MAPCOMP_ASSIGN_OR_RETURN(TablePtr a, Rec(e->child(0), w));
      // Minted term ids depend on what the dictionary already holds (other
      // evaluations on the same encoded instance mint into it too) —
      // harmless: id equality still means value equality, and decoding
      // (ToSet) re-canonicalizes by value.
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
          term += ValueToString(w->dict->ValueOf(row[indexes[k] - 1]));
        }
        term += ")";
        data.insert(data.end(), row, row + in_arity);
        data.push_back(w->dict->Intern(Value(std::move(term))));
      }
      out.FinishAppends();
      out.SortRows();  // appended ids land out of id order; rows stay unique
      return OwnTable(std::move(out));
    }
    case ExprKind::kUserOp: {
      const op::OperatorDef* def =
          w->options->registry ? w->options->registry->Find(e->name())
                               : nullptr;
      if (def == nullptr || !def->eval_columnar) {
        return Status::Unsupported("no evaluator for operator " + e->name());
      }
      // Borrowed child tables in, one table out, no value decode anywhere.
      std::vector<TablePtr> owners;
      std::vector<const TupleTable*> kids;
      for (const ExprPtr& c : e->children()) {
        MAPCOMP_ASSIGN_OR_RETURN(TablePtr k, Rec(c, w));
        kids.push_back(k.get());
        owners.push_back(std::move(k));
      }
      const CompiledCond cond = CompiledCond::Compile(e->condition(), w->dict);
      op::ColumnarContext ctx;
      ctx.dict = w->dict;
      ctx.cond = &cond;
      ctx.domain_ids = w->domain_ids;
      MAPCOMP_ASSIGN_OR_RETURN(TupleTable out,
                               def->eval_columnar(*e, kids, ctx));
      if (out.arity() != e->arity()) {
        // A kernel emitting the wrong width is a clean argument error, not
        // a crash downstream.
        return Status::InvalidArgument(
            "columnar operator " + e->name() + " returned arity " +
            std::to_string(out.arity()) + ", expected " +
            std::to_string(e->arity()));
      }
      // The kernel may return rows unsorted / duplicated (hash-order
      // closures, multi-match outer joins) — canonicalize so consumers
      // keep the sorted-unique invariant every other node guarantees.
      out.SortDedupRows();
      return OwnTable(std::move(out));
    }
  }
  return Status::Internal("unknown expression kind");
}

/// Node `e`'s table: the memoized one, or computed now. Cancellation is
/// polled on both sides of the compute, so a token that fires only after
/// the last root's exit poll changes nothing: completion wins the race.
Result<TablePtr> Rec(const ExprPtr& e, Walk* w) {
  // Interned nodes make the memo exact: pointer equality ⇔ structural
  // equality, so a subtree shared k times in the DAG is computed once.
  NodeSlot& slot = w->nodes.At(e.get());
  if (slot.table != nullptr) {
    ++w->stats.memo_hits;
    return slot.table;
  }
  common::fault::MaybeSleep(common::fault::FaultPoint::kSlowEvalSlot);
  MAPCOMP_RETURN_IF_ERROR(w->options->cancel.StatusAt("eval node"));
  MAPCOMP_ASSIGN_OR_RETURN(TablePtr out, EvalNode(e, w));
  MAPCOMP_RETURN_IF_ERROR(w->options->cancel.StatusAt("eval node"));
  EvalStats& st = w->stats;
  ++st.nodes_evaluated;
  ++st.tasks_spawned;
  st.tuples_produced += out->size();
  const int64_t bytes = out->ApproxBytes();
  st.memo_bytes_total += bytes;
  w->live_bytes += bytes;
  st.memo_bytes_peak = std::max(st.memo_bytes_peak, w->live_bytes);
  slot.table = out;
  // This compute is the one traversal of `e`'s child edges: release them
  // so children no other parent needs drop out of the memo.
  for (const ExprPtr& c : e->children()) Consume(c.get(), w);
  return out;
}

/// EvaluateTables over any sequence of roots (see RootOf): root i's table
/// in `tables[i]`.
template <typename Roots>
Status EvaluateRoots(const Roots& roots, const EncodedInstance& instance,
                     const EvalOptions& options, EvalStats* stats,
                     std::vector<EvalStats>* root_stats, TablePtr* tables) {
  for (const auto& root : roots) {
    if (RootOf(root) == nullptr) {
      return Status::InvalidArgument("null expression");
    }
  }
  MAPCOMP_RETURN_IF_ERROR(options.cancel.StatusAt("eval"));
  Walk w;
  w.instance = &instance;
  w.options = &options;
  w.dict = instance.dict().get();
  w.domain_ids = &instance.domain_ids();
  CountEdges(roots, &w.nodes);
  if (root_stats != nullptr) root_stats->reserve(roots.size());
  for (const auto& root : roots) {
    const EvalStats before = w.stats;
    // The root's table is held here, since its memo entry goes with its
    // last occurrence.
    MAPCOMP_ASSIGN_OR_RETURN(TablePtr table, Rec(RootOf(root), &w));
    Consume(RootOf(root).get(), &w);
    if (root_stats != nullptr) root_stats->push_back(w.stats.DiffFrom(before));
    *tables++ = std::move(table);
  }
  if (stats != nullptr) stats->MergeFrom(w.stats);
  return Status::OK();
}

}  // namespace

Result<std::vector<TablePtr>> EvaluateTables(
    const std::vector<ExprPtr>& roots, const EncodedInstance& instance,
    const EvalOptions& options, EvalStats* stats,
    std::vector<EvalStats>* root_stats) {
  std::vector<TablePtr> tables(roots.size());
  MAPCOMP_RETURN_IF_ERROR(EvaluateRoots(roots, instance, options, stats,
                                        root_stats, tables.data()));
  return tables;
}

Result<bool> EvaluateContainment(const ExprPtr& lhs, const ExprPtr& rhs,
                                 bool equality,
                                 const EncodedInstance& instance,
                                 const EvalOptions& options,
                                 EvalStats* stats) {
  // The two roots are borrowed and the two tables land on the stack: no
  // vector, and no refcount traffic on roots every lane reads.
  const std::array<const ExprPtr*, 2> roots = {&lhs, &rhs};
  std::array<TablePtr, 2> tables;
  MAPCOMP_RETURN_IF_ERROR(EvaluateRoots(roots, instance, options, stats,
                                        nullptr, tables.data()));
  const TablePtr& a = tables[0];
  const TablePtr& b = tables[1];
  bool contained = TupleTable::SubsetOf(*a, *b);
  if (equality) contained = contained && a->size() == b->size();
  return contained;
}

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

}  // namespace mapcomp
