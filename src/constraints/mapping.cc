#include "src/constraints/mapping.h"

#include <algorithm>

#include "src/algebra/dag_walk.h"
#include "src/common/wire_format.h"

namespace mapcomp {

namespace {

/// Every relation in `e` must be declared in one of the signatures with the
/// same arity; the first one, left to right, that is not names the error.
Status CheckDeclared(const ExprPtr& e,
                     const std::vector<const Signature*>& sigs) {
  if (e == nullptr) return Status::InvalidArgument("null expression");
  Status status;
  NodeTable<NoValue> seen;
  WalkDag(e, &seen, [&](const ExprPtr& n) {
    if (n->relation_mask() == 0) return Visit::kPrune;
    if (n->kind() != ExprKind::kRelation) return Visit::kEnter;
    auto declared = std::find_if(sigs.begin(), sigs.end(),
                                 [&n](const Signature* s) {
                                   return s->Contains(n->name());
                                 });
    if (declared == sigs.end()) {
      status = Status::NotFound("relation " + n->name() + " not declared");
    } else if ((*declared)->ArityOf(n->name()) != n->arity()) {
      status = Status::InvalidArgument(
          "relation " + n->name() + " used with arity " +
          std::to_string(n->arity()) + " but declared with " +
          std::to_string((*declared)->ArityOf(n->name())));
    }
    return status.ok() ? Visit::kPrune : Visit::kStop;
  });
  return status;
}

Status CheckConstraints(const ConstraintSet& cs,
                        const std::vector<const Signature*>& sigs) {
  for (const Constraint& c : cs) {
    MAPCOMP_RETURN_IF_ERROR(ValidateExpr(c.lhs));
    MAPCOMP_RETURN_IF_ERROR(ValidateExpr(c.rhs));
    if (c.lhs->arity() != c.rhs->arity()) {
      return Status::InvalidArgument("constraint sides have different arity: " +
                                     c.ToString());
    }
    MAPCOMP_RETURN_IF_ERROR(CheckDeclared(c.lhs, sigs));
    MAPCOMP_RETURN_IF_ERROR(CheckDeclared(c.rhs, sigs));
  }
  return Status::OK();
}

}  // namespace

std::string Mapping::ToString() const {
  std::string out = "input:  " + input.ToString() + "\n";
  out += "output: " + output.ToString() + "\n";
  out += ConstraintSetToString(constraints);
  return out;
}

Status Mapping::Validate() const {
  if (!Signature::Disjoint(input, output)) {
    return Status::InvalidArgument("mapping signatures are not disjoint");
  }
  return CheckConstraints(constraints, {&input, &output});
}

std::string Mapping::Fingerprint() const {
  std::string out;
  input.AppendTo(&out);
  output.AppendTo(&out);
  common::PutString(&out, ConstraintSetToString(constraints));
  return out;
}

void CompositionProblem::AppendTo(std::string* out) const {
  sigma1.AppendTo(out);
  sigma2.AppendTo(out);
  sigma3.AppendTo(out);
  common::PutString(out, ConstraintSetToString(sigma12));
  common::PutString(out, ConstraintSetToString(sigma23));
  common::PutStringList(out, elimination_order);
}

std::string CompositionProblem::Fingerprint() const {
  std::string out;
  AppendTo(&out);
  return out;
}

Status CompositionProblem::Validate() const {
  if (!Signature::Disjoint(sigma1, sigma2) ||
      !Signature::Disjoint(sigma2, sigma3) ||
      !Signature::Disjoint(sigma1, sigma3)) {
    return Status::InvalidArgument("problem signatures are not disjoint");
  }
  MAPCOMP_RETURN_IF_ERROR(CheckConstraints(sigma12, {&sigma1, &sigma2}));
  MAPCOMP_RETURN_IF_ERROR(CheckConstraints(sigma23, {&sigma2, &sigma3}));
  for (const std::string& s : elimination_order) {
    if (!sigma2.Contains(s)) {
      return Status::InvalidArgument("elimination order mentions " + s +
                                     " which is not in sigma2");
    }
  }
  return Status::OK();
}

}  // namespace mapcomp
