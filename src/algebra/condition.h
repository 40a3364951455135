#ifndef MAPCOMP_ALGEBRA_CONDITION_H_
#define MAPCOMP_ALGEBRA_CONDITION_H_

#include <functional>
#include <string>
#include <vector>

#include "src/algebra/value.h"

namespace mapcomp {

/// Comparison operator of a condition atom.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Returns the textual form ("=", "!=", "<", ...).
std::string CmpOpToString(CmpOp op);

/// Applies `op` to the three-way comparison result of two values.
bool EvalCmp(CmpOp op, const Value& a, const Value& b);

/// One side of a condition atom: either an attribute reference (1-based
/// index into the tuple, paper notation `#i`) or a constant.
struct CondOperand {
  bool is_attr = false;
  int attr = 0;  // valid iff is_attr
  Value constant = int64_t{0};

  static CondOperand Attr(int index) {
    CondOperand o;
    o.is_attr = true;
    o.attr = index;
    return o;
  }
  static CondOperand Const(Value v) {
    CondOperand o;
    o.constant = std::move(v);
    return o;
  }

  bool operator==(const CondOperand& other) const {
    if (is_attr != other.is_attr) return false;
    if (is_attr) return attr == other.attr;
    return CompareValues(constant, other.constant) == 0;
  }
};

/// An arbitrary boolean formula over attribute indexes and constants, as
/// allowed by the paper's selection operator sigma_c. Immutable value type.
class Condition {
 public:
  enum class Kind { kTrue, kFalse, kAtom, kAnd, kOr, kNot };

  /// The trivially true / false conditions.
  static Condition True();
  static Condition False();

  /// Atomic comparison `lhs op rhs`.
  static Condition Atom(CondOperand lhs, CmpOp op, CondOperand rhs);
  /// Convenience: `#l op #r`.
  static Condition AttrCmp(int l, CmpOp op, int r);
  /// Convenience: `#l op constant`.
  static Condition AttrConst(int l, CmpOp op, Value v);

  /// Connectives. And/Or fold their neutral and absorbing elements.
  static Condition And(Condition a, Condition b);
  static Condition Or(Condition a, Condition b);
  static Condition Not(Condition a);
  static Condition AndAll(std::vector<Condition> cs);

  Condition() : kind_(Kind::kTrue) {}

  Kind kind() const { return kind_; }
  bool IsTrue() const { return kind_ == Kind::kTrue; }
  bool IsFalse() const { return kind_ == Kind::kFalse; }

  /// Valid for kAtom.
  CmpOp op() const { return op_; }
  const CondOperand& lhs() const { return lhs_; }
  const CondOperand& rhs() const { return rhs_; }

  /// Valid for kAnd / kOr (>= 2 entries) and kNot (1 entry).
  const std::vector<Condition>& children() const { return children_; }

  /// Evaluates the formula against a tuple. Attribute references must be in
  /// range 1..t.size(); out-of-range references evaluate to false.
  bool Eval(const Tuple& t) const;

  /// Returns a copy with every attribute index increased by `delta` (used
  /// when an expression is spliced into the right side of a product).
  Condition ShiftAttrs(int delta) const;

  /// Returns a copy with each attribute index `i` replaced by `remap(i)`.
  /// `remap` must return a positive index.
  Condition RemapAttrs(const std::function<int(int)>& remap) const;

  /// Largest attribute index referenced, or 0 if none.
  int MaxAttr() const;

  bool operator==(const Condition& other) const;
  /// Structural hash, cached after the first call (Expr interning hashes
  /// each node's condition on every Expr::Make).
  size_t Hash() const;

  /// Text syntax: `#1=#2 and not (#3<5 or false)`.
  std::string ToString() const;

 private:
  Kind kind_;
  CmpOp op_ = CmpOp::kEq;
  CondOperand lhs_, rhs_;
  std::vector<Condition> children_;
  // Lazy hash cache; 0 doubles as "not computed" (computed hashes are
  // nudged off 0).
  mutable size_t hash_cache_ = 0;
};

}  // namespace mapcomp

#endif  // MAPCOMP_ALGEBRA_CONDITION_H_
