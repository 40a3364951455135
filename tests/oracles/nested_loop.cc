// The nested-loop evaluator: std::set<Tuple> end to end, products as full
// nested loops with selection applied afterwards, D^r always fully
// enumerated. See oracle.h.

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <utility>

#include "tests/oracles/oracle.h"

namespace mapcomp {
namespace oracle {
namespace {

/// Node results are shared, not copied: the memo table and every parent
/// hold the same set. Treated as immutable everywhere (the pointee type
/// stays non-const only so EvaluateMany can move a root set out when it is
/// the last owner).
using TupleSetPtr = std::shared_ptr<std::set<Tuple>>;

/// Per-node DAG bookkeeping for memo dropping: `remaining` counts the
/// parent edges (plus root occurrences) that have not consumed this node's
/// result yet; when it reaches zero the memo entry is dropped. `evaluated`
/// distinguishes computed nodes from ones never visited, whose child edges
/// must cascade on release.
struct NodeUse {
  int64_t remaining = 0;
  bool evaluated = false;
};

struct EvalState {
  const Instance* instance;
  const EvalOptions* options;
  std::vector<Value> domain;  ///< active domain + extra constants, in order
  std::unordered_map<const Expr*, TupleSetPtr> memo_sets;
  std::unordered_map<const Expr*, NodeUse> uses;
  EvalStats stats;
  int64_t memo_bytes_live = 0;
};

TupleSetPtr Own(std::set<Tuple> s) {
  return std::make_shared<std::set<Tuple>>(std::move(s));
}

/// Deterministic approximate heap footprint of a memo entry. Base-relation
/// entries are non-owning aliases into the instance and count 0.
int64_t EntryBytes(const Expr* e, const std::set<Tuple>& s) {
  if (e->kind() == ExprKind::kRelation) return 0;
  int64_t arity = s.empty() ? 0 : static_cast<int64_t>(s.begin()->size());
  return static_cast<int64_t>(s.size()) *
         (static_cast<int64_t>(sizeof(Tuple)) +
          arity * static_cast<int64_t>(sizeof(Value)) + 48);
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

/// One parent edge (or root occurrence) of `e` is done with its result.
/// The last consumer drops the memo entry; if `e` was never computed, its
/// own child edges are released too.
void Consume(const Expr* e, EvalState* st) {
  NodeUse& u = st->uses[e];
  if (--u.remaining > 0) return;
  auto it = st->memo_sets.find(e);
  if (it != st->memo_sets.end()) {
    st->memo_bytes_live -= EntryBytes(e, *it->second);
    st->memo_sets.erase(it);
  }
  if (!u.evaluated) {
    for (const ExprPtr& c : e->children()) Consume(c.get(), st);
  }
}

/// Applies `emit(t, out)` to every tuple of `in`.
template <typename Emit>
TupleSetPtr TransformSet(const std::set<Tuple>& in, const Emit& emit) {
  std::set<Tuple> out;
  for (const Tuple& t : in) emit(t, &out);
  return Own(std::move(out));
}

Result<TupleSetPtr> EvalDomain(int arity, EvalState* st) {
  const std::vector<Value>& vals = st->domain;
  int64_t d = static_cast<int64_t>(vals.size());
  double size = std::pow(static_cast<double>(d), static_cast<double>(arity));
  if (size > static_cast<double>(st->options->max_domain_tuples)) {
    return Status::ResourceExhausted(
        "enumerating D^" + std::to_string(arity) + " over " +
        std::to_string(d) + " values is too large");
  }
  if (arity == 0) return Own(std::set<Tuple>{Tuple{}});
  if (d == 0) return Own(std::set<Tuple>{});
  std::set<Tuple> out;
  std::vector<int64_t> idx(static_cast<size_t>(arity), 0);
  for (;;) {
    Tuple t;
    t.reserve(arity);
    for (int i = 0; i < arity; ++i) t.push_back(vals[idx[i]]);
    out.insert(out.end(), std::move(t));  // hint: enumeration is sorted
    int pos = arity - 1;
    while (pos >= 0 && ++idx[pos] == d) idx[pos--] = 0;
    if (pos < 0) return Own(std::move(out));
  }
}

Result<TupleSetPtr> Rec(const ExprPtr& e, EvalState* st);

Result<TupleSetPtr> EvalNode(const ExprPtr& e, EvalState* st) {
  switch (e->kind()) {
    case ExprKind::kRelation:
      // Aliased, non-owning view of the instance's own set (the instance
      // outlives the evaluation); base relations are never copied. The
      // const_cast is never written through: the only mutation anywhere is
      // EvaluateMany's final move-out, gated on use_count() == 1, which a
      // non-owning aliased pointer (use_count 0) can never satisfy.
      return TupleSetPtr(
          TupleSetPtr{},
          const_cast<std::set<Tuple>*>(&st->instance->Get(e->name())));
    case ExprKind::kDomain:
      return EvalDomain(e->arity(), st);
    case ExprKind::kEmpty:
      return Own(std::set<Tuple>{});
    case ExprKind::kLiteral: {
      std::set<Tuple> out;
      for (const Tuple& t : e->tuples()) out.insert(t);
      return Own(std::move(out));
    }
    case ExprKind::kUnion: {
      MAPCOMP_ASSIGN_OR_RETURN(TupleSetPtr a, Rec(e->child(0), st));
      MAPCOMP_ASSIGN_OR_RETURN(TupleSetPtr b, Rec(e->child(1), st));
      // Results are shared immutably, so a subsumed side means the union
      // IS the other side — no copy.
      if (a->empty()) return b;
      if (b->empty() || a == b) return a;
      TupleSetPtr extra =
          TransformSet(*b, [&a](const Tuple& t, std::set<Tuple>* out) {
            if (a->count(t) == 0) out->insert(t);
          });
      if (extra->empty()) return a;  // b ⊆ a
      std::set<Tuple> out = *a;
      out.merge(*extra);
      return Own(std::move(out));
    }
    case ExprKind::kIntersect: {
      MAPCOMP_ASSIGN_OR_RETURN(TupleSetPtr a, Rec(e->child(0), st));
      MAPCOMP_ASSIGN_OR_RETURN(TupleSetPtr b, Rec(e->child(1), st));
      return TransformSet(*a, [&b](const Tuple& t, std::set<Tuple>* out) {
        if (b->count(t) > 0) out->insert(t);
      });
    }
    case ExprKind::kDifference: {
      MAPCOMP_ASSIGN_OR_RETURN(TupleSetPtr a, Rec(e->child(0), st));
      MAPCOMP_ASSIGN_OR_RETURN(TupleSetPtr b, Rec(e->child(1), st));
      return TransformSet(*a, [&b](const Tuple& t, std::set<Tuple>* out) {
        if (b->count(t) == 0) out->insert(t);
      });
    }
    case ExprKind::kProduct: {
      MAPCOMP_ASSIGN_OR_RETURN(TupleSetPtr a, Rec(e->child(0), st));
      MAPCOMP_ASSIGN_OR_RETURN(TupleSetPtr b, Rec(e->child(1), st));
      ++st->stats.nested_product_nodes;
      return TransformSet(*a, [&b](const Tuple& ta, std::set<Tuple>* out) {
        for (const Tuple& tb : *b) {
          Tuple t = ta;
          t.insert(t.end(), tb.begin(), tb.end());
          out->insert(std::move(t));
        }
      });
    }
    case ExprKind::kSelect: {
      MAPCOMP_ASSIGN_OR_RETURN(TupleSetPtr a, Rec(e->child(0), st));
      const Condition& cond = e->condition();
      return TransformSet(*a, [&cond](const Tuple& t, std::set<Tuple>* out) {
        if (cond.Eval(t)) out->insert(t);
      });
    }
    case ExprKind::kProject: {
      MAPCOMP_ASSIGN_OR_RETURN(TupleSetPtr a, Rec(e->child(0), st));
      const std::vector<int>& indexes = e->indexes();
      return TransformSet(*a, [&indexes](const Tuple& t,
                                         std::set<Tuple>* out) {
        Tuple p;
        p.reserve(indexes.size());
        for (int i : indexes) p.push_back(t[i - 1]);
        out->insert(std::move(p));
      });
    }
    case ExprKind::kSkolem: {
      if (st->options->skolem_mode == SkolemEvalMode::kError) {
        return Status::Unsupported(
            "cannot evaluate Skolem function " + e->name() +
            " without an interpretation (SkolemEvalMode::kError)");
      }
      MAPCOMP_ASSIGN_OR_RETURN(TupleSetPtr a, Rec(e->child(0), st));
      const std::string& name = e->name();
      const std::vector<int>& indexes = e->indexes();
      return TransformSet(*a, [&name, &indexes](const Tuple& t,
                                                std::set<Tuple>* out) {
        std::string term = name + "(";
        for (size_t i = 0; i < indexes.size(); ++i) {
          if (i > 0) term += ",";
          term += ValueToString(t[indexes[i] - 1]);
        }
        term += ")";
        Tuple extended = t;
        extended.push_back(Value(std::move(term)));
        out->insert(std::move(extended));
      });
    }
    case ExprKind::kUserOp: {
      const SetOpBody* body = FindSetOp(e->name());
      if (body == nullptr) {
        return Status::Unsupported("no reference body for operator " +
                                   e->name());
      }
      // Child results are borrowed, never copied: the shared_ptrs keep
      // them alive (and the memo may serve them to other parents).
      std::vector<TupleSetPtr> owners;
      std::vector<const std::set<Tuple>*> kids;
      for (const ExprPtr& c : e->children()) {
        MAPCOMP_ASSIGN_OR_RETURN(TupleSetPtr k, Rec(c, st));
        kids.push_back(k.get());
        owners.push_back(std::move(k));
      }
      return Own((*body)(*e, kids));
    }
  }
  return Status::Internal("unknown expression kind");
}

Result<TupleSetPtr> Rec(const ExprPtr& e, EvalState* st) {
  // Node-boundary cancellation point, mirroring the kernel's slot polls.
  MAPCOMP_RETURN_IF_ERROR(st->options->cancel.StatusAt("eval node"));
  // Interned nodes make the memo exact: pointer equality ⇔ structural
  // equality, so a subtree shared k times in the DAG is computed once.
  auto it = st->memo_sets.find(e.get());
  if (it != st->memo_sets.end()) {
    ++st->stats.memo_hits;
    return it->second;
  }
  MAPCOMP_ASSIGN_OR_RETURN(TupleSetPtr out, EvalNode(e, st));
  st->uses[e.get()].evaluated = true;
  ++st->stats.nodes_evaluated;
  st->stats.tuples_produced += static_cast<int64_t>(out->size());
  st->memo_sets.emplace(e.get(), out);
  int64_t bytes = EntryBytes(e.get(), *out);
  st->memo_bytes_live += bytes;
  st->stats.memo_bytes_total += bytes;
  if (st->memo_bytes_live > st->stats.memo_bytes_peak) {
    st->stats.memo_bytes_peak = st->memo_bytes_live;
  }
  // This node's computation is the one-and-only traversal of its static
  // child edges — release them now so fully-consumed children drop out of
  // the memo.
  for (const ExprPtr& c : e->children()) Consume(c.get(), st);
  return out;
}

}  // namespace

Result<std::vector<EvalResult>> EvaluateMany(const std::vector<ExprPtr>& roots,
                                             const Instance& instance,
                                             const EvalOptions& options) {
  EvalState st;
  st.instance = &instance;
  st.options = &options;
  std::set<Value> domain = instance.ActiveDomain();
  domain.insert(options.extra_constants.begin(), options.extra_constants.end());
  st.domain.assign(domain.begin(), domain.end());
  std::set<const Expr*> counted;
  for (const ExprPtr& root : roots) {
    if (root == nullptr) return Status::InvalidArgument("null expression");
    ++st.uses[root.get()].remaining;
    CountUses(root, &st.uses, &counted);
  }
  std::vector<EvalResult> results(roots.size());
  std::vector<TupleSetPtr> ptrs;
  for (size_t i = 0; i < roots.size(); ++i) {
    EvalStats before = st.stats;
    MAPCOMP_ASSIGN_OR_RETURN(TupleSetPtr tuples, Rec(roots[i], &st));
    results[i].arity = roots[i]->arity();
    results[i].stats = st.stats.DiffFrom(before);
    ptrs.push_back(std::move(tuples));
    Consume(roots[i].get(), &st);
  }
  // Refcount dropping usually leaves each root set uniquely owned here, so
  // it is moved, not copied (a base-relation root is a non-owning alias
  // into the instance, and duplicate roots share one set — both copy).
  st.memo_sets.clear();
  for (size_t i = 0; i < roots.size(); ++i) {
    if (ptrs[i].use_count() == 1) {
      results[i].SetDecoded(std::move(*ptrs[i]));
    } else {
      results[i].SetDecoded(*ptrs[i]);
    }
  }
  return results;
}

Result<EvalResult> EvaluateFull(const ExprPtr& e, const Instance& instance,
                                const EvalOptions& options) {
  MAPCOMP_ASSIGN_OR_RETURN(std::vector<EvalResult> results,
                           oracle::EvaluateMany({e}, instance, options));
  return std::move(results[0]);
}

Result<bool> EvaluateContainment(const ExprPtr& lhs, const ExprPtr& rhs,
                                 bool equality, const Instance& instance,
                                 const EvalOptions& options,
                                 EvalStats* stats) {
  MAPCOMP_ASSIGN_OR_RETURN(std::vector<EvalResult> sides,
                           oracle::EvaluateMany({lhs, rhs}, instance, options));
  if (stats != nullptr) {
    stats->MergeFrom(sides[0].stats);
    stats->MergeFrom(sides[1].stats);
  }
  const std::set<Tuple>& a = sides[0].tuples();
  const std::set<Tuple>& b = sides[1].tuples();
  bool contained = std::includes(b.begin(), b.end(), a.begin(), a.end());
  return equality ? contained && a.size() == b.size() : contained;
}

}  // namespace oracle
}  // namespace mapcomp
