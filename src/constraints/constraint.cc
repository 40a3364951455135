#include "src/constraints/constraint.h"

#include "src/algebra/print.h"

namespace mapcomp {

std::string Constraint::ToString() const {
  const char* op = kind == ConstraintKind::kContainment ? " <= " : " = ";
  return ExprToString(lhs) + op + ExprToString(rhs);
}

bool ConstraintEquals(const Constraint& a, const Constraint& b) {
  return a.kind == b.kind && ExprEquals(a.lhs, b.lhs) &&
         ExprEquals(a.rhs, b.rhs);
}

int OperatorCount(const Constraint& c) {
  return OperatorCount(c.lhs) + OperatorCount(c.rhs);
}

int OperatorCount(const ConstraintSet& cs) {
  int n = 0;
  for (const Constraint& c : cs) n += OperatorCount(c);
  return n;
}

bool ConstraintContainsRelation(const Constraint& c, const std::string& name) {
  return ContainsRelation(c.lhs, name) || ContainsRelation(c.rhs, name);
}

std::vector<ExprPtr> ConstraintSides(const ConstraintSet& cs) {
  std::vector<ExprPtr> out;
  out.reserve(2 * cs.size());
  for (const Constraint& c : cs) {
    out.push_back(c.lhs);
    out.push_back(c.rhs);
  }
  return out;
}

std::set<std::string> CollectRelations(const ConstraintSet& cs) {
  std::set<std::string> out;
  for (const Constraint& c : cs) {
    CollectRelations(c.lhs, &out);
    CollectRelations(c.rhs, &out);
  }
  return out;
}

bool ContainsSkolem(const ConstraintSet& cs) {
  for (const Constraint& c : cs) {
    if (ContainsSkolem(c.lhs) || ContainsSkolem(c.rhs)) return true;
  }
  return false;
}

std::string ConstraintSetToString(const ConstraintSet& cs) {
  std::string out;
  for (const Constraint& c : cs) {
    out += c.ToString();
    out += ";\n";
  }
  return out;
}

}  // namespace mapcomp
