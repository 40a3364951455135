#include "src/compose/monotone.h"

#include "src/algebra/dag_walk.h"

namespace mapcomp {

namespace {

/// Combination table for operators that are monotone in all arguments
/// (∪, ∩, ×): 'i' is the identity, equal values persist, opposite
/// polarities or any 'u' give 'u'.
Mono Combine(Mono a, Mono b) {
  if (a == Mono::kIndependent) return b;
  if (b == Mono::kIndependent) return a;
  if (a == b) return a;
  return Mono::kUnknown;
}

Mono Flip(Mono m) {
  switch (m) {
    case Mono::kMonotone:
      return Mono::kAnti;
    case Mono::kAnti:
      return Mono::kMonotone;
    default:
      return m;
  }
}

/// `e`'s polarity from its children's, which `child` gives.
template <typename ChildMono>
Mono NodeMono(const ExprPtr& e, const std::string& symbol,
              const op::Registry* registry, const ChildMono& child) {
  switch (e->kind()) {
    case ExprKind::kRelation:
      return e->name() == symbol ? Mono::kMonotone : Mono::kIndependent;
    case ExprKind::kDomain:
      // D is shorthand for the union of projections of *all* relations
      // (paper §2), so it grows monotonically with any symbol.
      return Mono::kMonotone;
    case ExprKind::kEmpty:
    case ExprKind::kLiteral:
      return Mono::kIndependent;
    case ExprKind::kUnion:
    case ExprKind::kIntersect:
    case ExprKind::kProduct:
      return Combine(child(e->child(0)), child(e->child(1)));
    case ExprKind::kDifference:
      return Combine(child(e->child(0)), Flip(child(e->child(1))));
    case ExprKind::kSelect:
    case ExprKind::kProject:
    case ExprKind::kSkolem:
      return child(e->child(0));
    case ExprKind::kUserOp: {
      const op::OperatorDef* def =
          registry != nullptr ? registry->Find(e->name()) : nullptr;
      Mono acc = Mono::kIndependent;
      for (size_t i = 0; i < e->children().size(); ++i) {
        const Mono m = child(e->children()[i]);
        op::Polarity pol =
            def != nullptr && i < def->polarity.size()
                ? def->polarity[i]
                : op::Polarity::kUnknown;
        Mono adjusted = Mono::kUnknown;
        switch (pol) {
          case op::Polarity::kMonotone:
            adjusted = m;
            break;
          case op::Polarity::kAnti:
            adjusted = Flip(m);
            break;
          case op::Polarity::kUnknown:
            adjusted =
                m == Mono::kIndependent ? Mono::kIndependent : Mono::kUnknown;
            break;
        }
        acc = Combine(acc, adjusted);
      }
      return acc;
    }
  }
  return Mono::kUnknown;
}

}  // namespace

char MonoToChar(Mono m) {
  switch (m) {
    case Mono::kMonotone:
      return 'm';
    case Mono::kAnti:
      return 'a';
    case Mono::kIndependent:
      return 'i';
    case Mono::kUnknown:
      return 'u';
  }
  return '?';
}

Mono CheckMonotone(const ExprPtr& e, const std::string& symbol,
                   const op::Registry* registry) {
  const uint64_t bit = Expr::NameBit(symbol);
  // A subtree that provably mentions neither `symbol` nor D is independent
  // of `symbol` under every operator's polarity rule (the interner's cached
  // analyses, O(1)).
  auto independent = [bit](const ExprPtr& n) {
    return (n->relation_mask() & bit) == 0 && !n->contains_domain();
  };
  NodeTable<Mono> done;
  auto mono = [&](const ExprPtr& n) {
    if (independent(n)) return Mono::kIndependent;
    if (!n->children().empty()) return done.At(n.get());
    return NodeMono(n, symbol, registry,
                    [](const ExprPtr&) { return Mono::kIndependent; });
  };
  WalkDag(
      e, &done,
      [&](const ExprPtr& n) {
        return independent(n) ? Visit::kPrune : Visit::kEnter;
      },
      [&](const ExprPtr& n, Mono* out) {
        if (!n->children().empty()) *out = NodeMono(n, symbol, registry, mono);
        return true;
      });
  return mono(e);
}

bool IsMonotoneOrIndependent(const ExprPtr& e, const std::string& symbol,
                             const op::Registry* registry) {
  Mono m = CheckMonotone(e, symbol, registry);
  return m == Mono::kMonotone || m == Mono::kIndependent;
}

}  // namespace mapcomp
