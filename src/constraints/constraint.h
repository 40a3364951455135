#ifndef MAPCOMP_CONSTRAINTS_CONSTRAINT_H_
#define MAPCOMP_CONSTRAINTS_CONSTRAINT_H_

#include <set>
#include <string>
#include <vector>

#include "src/algebra/expr.h"

namespace mapcomp {

/// Kind of a mapping constraint (paper §2): containment `E1 ⊆ E2` or
/// equality `E1 = E2`.
enum class ConstraintKind { kContainment, kEquality };

/// A single algebraic constraint between two relational expressions of equal
/// arity.
struct Constraint {
  ConstraintKind kind = ConstraintKind::kContainment;
  ExprPtr lhs;
  ExprPtr rhs;

  static Constraint Contain(ExprPtr l, ExprPtr r) {
    return Constraint{ConstraintKind::kContainment, std::move(l),
                      std::move(r)};
  }
  static Constraint Equal(ExprPtr l, ExprPtr r) {
    return Constraint{ConstraintKind::kEquality, std::move(l), std::move(r)};
  }

  /// Text syntax: `E1 <= E2` or `E1 = E2`.
  std::string ToString() const;
};

/// A finite set of constraints (Σ in the paper). Order is preserved; the
/// composition algorithm treats it as a set.
using ConstraintSet = std::vector<Constraint>;

/// Structural equality of two constraints.
bool ConstraintEquals(const Constraint& a, const Constraint& b);

/// Total operator count across both sides — the paper's mapping-size metric.
int OperatorCount(const Constraint& c);
int OperatorCount(const ConstraintSet& cs);

/// True if relation `name` occurs on either side.
bool ConstraintContainsRelation(const Constraint& c, const std::string& name);

/// Both sides of every constraint of the set, in order (lhs, then rhs).
std::vector<ExprPtr> ConstraintSides(const ConstraintSet& cs);

/// All base relation names occurring in the set.
std::set<std::string> CollectRelations(const ConstraintSet& cs);

/// True if any Skolem operator occurs in the set.
bool ContainsSkolem(const ConstraintSet& cs);

/// Renders one constraint per line, each terminated with `;`.
std::string ConstraintSetToString(const ConstraintSet& cs);

}  // namespace mapcomp

#endif  // MAPCOMP_CONSTRAINTS_CONSTRAINT_H_
