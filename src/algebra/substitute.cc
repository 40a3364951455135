#include "src/algebra/substitute.h"

#include "src/algebra/dag_walk.h"

namespace mapcomp {

namespace {

/// Bottom-up rewrite of kRelation leaves, shared by substitution and
/// renaming. `leaf` returns the replacement for a relation node, or nullptr
/// to keep it. The rewrite is node-local, so each distinct subtree is
/// rewritten once, and the cached relation mask skips whole subtrees that
/// cannot mention `name`.
template <typename LeafFn>
ExprPtr RewriteRelationLeaves(const ExprPtr& e, const std::string& name,
                              const LeafFn& leaf) {
  if (e == nullptr) return e;
  const uint64_t bit = Expr::NameBit(name);
  NodeTable<ExprPtr> done;
  auto rewritten = [&](const ExprPtr& n) -> ExprPtr {
    if ((n->relation_mask() & bit) == 0) return n;
    if (n->kind() == ExprKind::kRelation) {
      ExprPtr replaced = leaf(*n);
      return replaced != nullptr ? replaced : n;
    }
    return done.At(n.get());
  };
  WalkDag(
      e, &done,
      [bit](const ExprPtr& n) {
        return (n->relation_mask() & bit) == 0 ? Visit::kPrune : Visit::kEnter;
      },
      [&](const ExprPtr& n, ExprPtr* out) {
        if (!n->children().empty()) *out = RebuildNode(n, rewritten);
        return true;
      });
  return rewritten(e);
}

}  // namespace

ExprPtr SubstituteRelation(const ExprPtr& e, const std::string& name,
                           const ExprPtr& replacement) {
  return RewriteRelationLeaves(e, name, [&](const Expr& n) -> ExprPtr {
    return n.name() == name ? replacement : nullptr;
  });
}

ExprPtr RenameRelation(const ExprPtr& e, const std::string& from,
                       const std::string& to) {
  return RewriteRelationLeaves(e, from, [&](const Expr& n) -> ExprPtr {
    if (n.name() != from) return nullptr;
    return Expr::Make(ExprKind::kRelation, to, {}, Condition::True(), {},
                      n.arity(), {});
  });
}

}  // namespace mapcomp
