#include "src/algebra/simplify.h"

#include <algorithm>
#include <set>

#include "src/algebra/builders.h"
#include "src/algebra/dag_walk.h"

namespace mapcomp {

namespace {

bool TupleLess(const Tuple& a, const Tuple& b) {
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    int c = CompareValues(a[i], b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

std::vector<Tuple> SortedUnique(std::vector<Tuple> ts) {
  std::sort(ts.begin(), ts.end(), TupleLess);
  ts.erase(std::unique(ts.begin(), ts.end(),
                       [](const Tuple& a, const Tuple& b) {
                         return !TupleLess(a, b) && !TupleLess(b, a);
                       }),
           ts.end());
  return ts;
}

bool IsLit(const ExprPtr& e) { return e->kind() == ExprKind::kLiteral; }

}  // namespace

ExprPtr SimplifyNode(const ExprPtr& e, const SimplifyHook& hook) {
  switch (e->kind()) {
    case ExprKind::kRelation:
    case ExprKind::kDomain:
    case ExprKind::kEmpty:
    case ExprKind::kLiteral:
      return nullptr;

    case ExprKind::kUnion: {
      const ExprPtr& a = e->child(0);
      const ExprPtr& b = e->child(1);
      if (a->kind() == ExprKind::kEmpty) return b;
      if (b->kind() == ExprKind::kEmpty) return a;
      if (a->kind() == ExprKind::kDomain || b->kind() == ExprKind::kDomain) {
        return Dom(e->arity());
      }
      if (ExprEquals(a, b)) return a;
      if (IsLit(a) && IsLit(b)) {
        std::vector<Tuple> ts = a->tuples();
        ts.insert(ts.end(), b->tuples().begin(), b->tuples().end());
        return Lit(e->arity(), SortedUnique(std::move(ts)));
      }
      return nullptr;
    }

    case ExprKind::kIntersect: {
      const ExprPtr& a = e->child(0);
      const ExprPtr& b = e->child(1);
      if (a->kind() == ExprKind::kEmpty || b->kind() == ExprKind::kEmpty) {
        return EmptyRel(e->arity());
      }
      if (a->kind() == ExprKind::kDomain) return b;
      if (b->kind() == ExprKind::kDomain) return a;
      if (ExprEquals(a, b)) return a;
      if (IsLit(a) && IsLit(b)) {
        std::vector<Tuple> bs = SortedUnique(b->tuples());
        std::vector<Tuple> out;
        for (const Tuple& t : SortedUnique(a->tuples())) {
          if (std::binary_search(bs.begin(), bs.end(), t, TupleLess)) {
            out.push_back(t);
          }
        }
        return Lit(e->arity(), std::move(out));
      }
      return nullptr;
    }

    case ExprKind::kDifference: {
      const ExprPtr& a = e->child(0);
      const ExprPtr& b = e->child(1);
      if (b->kind() == ExprKind::kEmpty) return a;
      if (a->kind() == ExprKind::kEmpty) return EmptyRel(e->arity());
      if (b->kind() == ExprKind::kDomain) return EmptyRel(e->arity());
      if (ExprEquals(a, b)) return EmptyRel(e->arity());
      if (IsLit(a) && IsLit(b)) {
        std::vector<Tuple> bs = SortedUnique(b->tuples());
        std::vector<Tuple> out;
        for (const Tuple& t : SortedUnique(a->tuples())) {
          if (!std::binary_search(bs.begin(), bs.end(), t, TupleLess)) {
            out.push_back(t);
          }
        }
        return Lit(e->arity(), std::move(out));
      }
      return nullptr;
    }

    case ExprKind::kProduct: {
      const ExprPtr& a = e->child(0);
      const ExprPtr& b = e->child(1);
      if (a->kind() == ExprKind::kEmpty || b->kind() == ExprKind::kEmpty) {
        return EmptyRel(e->arity());
      }
      if (a->kind() == ExprKind::kDomain && b->kind() == ExprKind::kDomain) {
        return Dom(e->arity());
      }
      if (IsLit(a) && IsLit(b)) {
        std::vector<Tuple> out;
        for (const Tuple& ta : a->tuples()) {
          for (const Tuple& tb : b->tuples()) {
            Tuple t = ta;
            t.insert(t.end(), tb.begin(), tb.end());
            out.push_back(std::move(t));
          }
        }
        return Lit(e->arity(), SortedUnique(std::move(out)));
      }
      return nullptr;
    }

    case ExprKind::kSelect: {
      const ExprPtr& c = e->child(0);
      if (e->condition().IsTrue()) return c;
      if (e->condition().IsFalse()) return EmptyRel(e->arity());
      if (c->kind() == ExprKind::kEmpty) return EmptyRel(e->arity());
      if (c->kind() == ExprKind::kSelect) {
        return Select(Condition::And(e->condition(), c->condition()),
                      c->child(0));
      }
      if (IsLit(c)) {
        std::vector<Tuple> out;
        for (const Tuple& t : c->tuples()) {
          if (e->condition().Eval(t)) out.push_back(t);
        }
        return Lit(e->arity(), SortedUnique(std::move(out)));
      }
      return nullptr;
    }

    case ExprKind::kProject: {
      const ExprPtr& c = e->child(0);
      if (c->kind() == ExprKind::kEmpty) return EmptyRel(e->arity());
      if (c->kind() == ExprKind::kDomain) {
        // π_I(D^r) = D^|I| — only valid when I has no repeated index
        // (π_{1,1}(D^1) is the diagonal, not D^2).
        std::set<int> distinct(e->indexes().begin(), e->indexes().end());
        if (distinct.size() == e->indexes().size()) return Dom(e->arity());
        return nullptr;
      }
      if (e->indexes() == IdentityIndexes(c->arity())) return c;
      if (c->kind() == ExprKind::kProject) {
        std::vector<int> composed;
        composed.reserve(e->indexes().size());
        for (int i : e->indexes()) composed.push_back(c->indexes()[i - 1]);
        return Project(std::move(composed), c->child(0));
      }
      if (IsLit(c)) {
        std::vector<Tuple> out;
        for (const Tuple& t : c->tuples()) {
          Tuple p;
          p.reserve(e->indexes().size());
          for (int i : e->indexes()) p.push_back(t[i - 1]);
          out.push_back(std::move(p));
        }
        return Lit(e->arity(), SortedUnique(std::move(out)));
      }
      return nullptr;
    }

    case ExprKind::kSkolem: {
      if (e->child(0)->kind() == ExprKind::kEmpty) return EmptyRel(e->arity());
      return nullptr;
    }

    case ExprKind::kUserOp:
      if (hook) return hook(e);
      return nullptr;
  }
  return nullptr;
}

namespace {

/// One bottom-up pass: each node is rewritten once its children are, and
/// each distinct subtree once, since its result depends on the node alone.
ExprPtr SimplifyOnce(const ExprPtr& e, const SimplifyHook& hook) {
  NodeTable<ExprPtr> done;
  auto rewrite = [&hook](ExprPtr node) {
    ExprPtr rewritten = SimplifyNode(node, hook);
    return rewritten != nullptr ? std::move(rewritten) : std::move(node);
  };
  auto simplified = [&](const ExprPtr& n) {
    return n->children().empty() ? rewrite(n) : done.At(n.get());
  };
  WalkDag(
      e, &done, [](const ExprPtr&) { return Visit::kEnter; },
      [&](const ExprPtr& n, ExprPtr* out) {
        if (!n->children().empty()) *out = rewrite(RebuildNode(n, simplified));
        return true;
      });
  return simplified(e);
}

}  // namespace

ExprPtr SimplifyExpr(const ExprPtr& e, const SimplifyHook& hook) {
  if (e == nullptr) return e;
  ExprPtr cur = e;
  // A bounded fixpoint: each pass strictly shrinks or rewrites; 16 passes is
  // far more than any chain of the above rules requires.
  for (int i = 0; i < 16; ++i) {
    ExprPtr next = SimplifyOnce(cur, hook);
    if (next == cur) break;
    cur = std::move(next);
  }
  return cur;
}

}  // namespace mapcomp
