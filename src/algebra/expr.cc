#include "src/algebra/expr.h"

#include <functional>
#include <limits>

#include "src/algebra/dag_walk.h"
#include "src/algebra/interner.h"

namespace mapcomp {

uint64_t Expr::NameBit(const std::string& name) {
  return uint64_t{1} << (std::hash<std::string>()(name) & 63);
}

ExprPtr Expr::Make(ExprKind kind, std::string name,
                   std::vector<ExprPtr> children, Condition condition,
                   std::vector<int> indexes, int arity,
                   std::vector<Tuple> tuples) {
  return ExprInterner::Global().Intern(kind, std::move(name),
                                       std::move(children),
                                       std::move(condition), std::move(indexes),
                                       arity, std::move(tuples));
}

bool ExprEquals(const ExprPtr& a, const ExprPtr& b) {
  // Interning canonicalizes structurally equal nodes to one object.
  return a == b;
}

size_t ExprHash(const ExprPtr& e) {
  if (e == nullptr) return 0;
  return e->hash();
}

int OperatorCount(const ExprPtr& e) {
  if (e == nullptr) return 0;
  int64_t n = e->op_count();
  return n > std::numeric_limits<int>::max()
             ? std::numeric_limits<int>::max()
             : static_cast<int>(n);
}

bool ContainsRelation(const ExprPtr& e, const std::string& name) {
  if (e == nullptr) return false;
  const uint64_t bit = Expr::NameBit(name);
  NodeTable<NoValue> seen;
  return !WalkDag(e, &seen, [&](const ExprPtr& n) {
    if ((n->relation_mask() & bit) == 0) return Visit::kPrune;
    if (n->kind() == ExprKind::kRelation && n->name() == name) {
      return Visit::kStop;
    }
    return Visit::kEnter;
  });
}

void CollectRelations(const ExprPtr& e, std::set<std::string>* out) {
  if (e == nullptr) return;
  NodeTable<NoValue> seen;
  WalkDag(e, &seen, [out](const ExprPtr& n) {
    if (n->relation_mask() == 0) return Visit::kPrune;
    if (n->kind() == ExprKind::kRelation) out->insert(n->name());
    return Visit::kEnter;
  });
}

bool ContainsSkolem(const ExprPtr& e) {
  return e != nullptr && e->contains_skolem();
}

bool ContainsDomain(const ExprPtr& e) {
  return e != nullptr && e->contains_domain();
}

namespace {

/// Checks one node against its children, which are checked already.
Status ValidateNode(const ExprPtr& e) {
  switch (e->kind()) {
    case ExprKind::kRelation:
    case ExprKind::kDomain:
    case ExprKind::kEmpty:
      if (e->arity() < 1) {
        return Status::InvalidArgument("arity must be >= 1 for " + e->name());
      }
      return Status::OK();
    case ExprKind::kLiteral:
      for (const Tuple& t : e->tuples()) {
        if (static_cast<int>(t.size()) != e->arity()) {
          return Status::InvalidArgument("literal tuple arity mismatch");
        }
      }
      return Status::OK();
    case ExprKind::kUnion:
    case ExprKind::kIntersect:
    case ExprKind::kDifference:
      if (e->children().size() != 2) {
        return Status::InvalidArgument("binary operator needs 2 children");
      }
      if (e->child(0)->arity() != e->child(1)->arity() ||
          e->arity() != e->child(0)->arity()) {
        return Status::InvalidArgument("arity mismatch in set operator");
      }
      return Status::OK();
    case ExprKind::kProduct:
      if (e->children().size() != 2) {
        return Status::InvalidArgument("product needs 2 children");
      }
      if (e->arity() != e->child(0)->arity() + e->child(1)->arity()) {
        return Status::InvalidArgument("product arity mismatch");
      }
      return Status::OK();
    case ExprKind::kSelect:
      if (e->children().size() != 1 || e->arity() != e->child(0)->arity()) {
        return Status::InvalidArgument("selection arity mismatch");
      }
      if (e->condition().MaxAttr() > e->arity()) {
        return Status::InvalidArgument(
            "selection condition references attribute beyond arity");
      }
      return Status::OK();
    case ExprKind::kProject: {
      if (e->children().size() != 1) {
        return Status::InvalidArgument("projection needs 1 child");
      }
      if (e->arity() != static_cast<int>(e->indexes().size())) {
        return Status::InvalidArgument("projection arity mismatch");
      }
      int r = e->child(0)->arity();
      for (int i : e->indexes()) {
        if (i < 1 || i > r) {
          return Status::InvalidArgument("projection index out of range");
        }
      }
      return Status::OK();
    }
    case ExprKind::kSkolem: {
      if (e->children().size() != 1) {
        return Status::InvalidArgument("skolem needs 1 child");
      }
      if (e->arity() != e->child(0)->arity() + 1) {
        return Status::InvalidArgument("skolem arity must be child arity + 1");
      }
      int r = e->child(0)->arity();
      for (int i : e->indexes()) {
        if (i < 1 || i > r) {
          return Status::InvalidArgument("skolem argument index out of range");
        }
      }
      return Status::OK();
    }
    case ExprKind::kUserOp:
      // Arity contract is owned by the registry; builders enforce it.
      return Status::OK();
  }
  return Status::Internal("unknown expression kind");
}

}  // namespace

Status ValidateExpr(const ExprPtr& e) {
  if (e == nullptr) return Status::InvalidArgument("null expression");
  // Post-order: children before their parent, left to right. The first
  // node that fails names the error.
  Status status;
  NodeTable<NoValue> done;
  WalkDag(
      e, &done, [](const ExprPtr&) { return Visit::kEnter; },
      [&status](const ExprPtr& n, NoValue*) {
        status = ValidateNode(n);
        return status.ok();
      });
  return status;
}

}  // namespace mapcomp
