#ifndef MAPCOMP_OP_REGISTRY_H_
#define MAPCOMP_OP_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/algebra/expr.h"
#include "src/common/status.h"
#include "src/constraints/constraint.h"
#include "src/eval/tuple_table.h"

namespace mapcomp {

namespace eval_internal {
class CompiledCond;
}  // namespace eval_internal

namespace op {

/// Monotonicity of a user-defined operator in one of its arguments
/// (paper §3.3: to support user-defined operators in MONOTONE "we just need
/// to know the rules regarding the monotonicity of the operator").
enum class Polarity {
  kMonotone,  ///< adding tuples to the argument only adds output tuples
  kAnti,      ///< adding tuples to the argument only removes output tuples
  kUnknown,   ///< no information — MONOTONE returns 'u' through this argument
};

/// Context handed to user-operator kernels (eval_columnar).
struct ColumnarContext {
  /// The evaluation's interning dictionary. Child-table ids decode through
  /// it, and output values the operator invents (left-outerjoin pad values,
  /// closure terms) are minted with Intern() — safe mid-evaluation; minted
  /// ids land past the order-preserving range and every result surface
  /// re-canonicalizes by value.
  ValueDict* dict = nullptr;
  /// The node's condition compiled against `dict` (0-based columns,
  /// interned constants), evaluated over a concatenated child row. Kernels
  /// that decompose the raw condition themselves (e.g. into join keys via
  /// eval_internal::CompiledJoin) read it from the node instead.
  const eval_internal::CompiledCond* cond = nullptr;
  /// Interned active domain (plus the constraint set's constants), as
  /// ascending seeded ids — shared with the evaluator, never copied.
  const std::vector<ValueId>* domain_ids = nullptr;
};

/// A rewrite rule used during left/right normalization (§3.4.1, §3.5.1):
/// given a constraint whose relevant side has this operator on top and
/// contains the symbol being eliminated, return an equivalent list of
/// constraints that moves the symbol closer to isolation, or nullopt if the
/// rule does not apply.
using NormalizeRule = std::function<std::optional<std::vector<Constraint>>(
    const Constraint&, const std::string& symbol)>;

/// Everything the composition algorithm may want to know about an operator.
/// All hooks are optional; a missing hook degrades gracefully (the paper's
/// "tolerance for unknown or partially known operators").
struct OperatorDef {
  std::string name;
  int num_args = 1;
  /// Output arity from child arities.
  std::function<Result<int>(const std::vector<int>&)> arity;
  /// Per-argument monotonicity; must have num_args entries.
  std::vector<Polarity> polarity;
  /// Optional normalization rules.
  NormalizeRule left_rule;
  NormalizeRule right_rule;
  /// Optional D/∅/constant simplification; returns nullptr if no rewrite.
  std::function<ExprPtr(const ExprPtr&)> simplify;
  /// Optional evaluator: borrowed child TupleTables in, one TupleTable
  /// out, no value decode anywhere. Without it, evaluating the operator is
  /// kUnsupported. The returned table's rows need not be sorted or unique —
  /// the evaluator canonicalizes — but its arity must equal the node's
  /// (anything else is a clean InvalidArgument).
  std::function<Result<TupleTable>(const Expr&,
                                   const std::vector<const TupleTable*>&,
                                   const ColumnarContext&)>
      eval_columnar;
};

/// Registry of user-defined operators. The composition algorithm is
/// parameterized by a registry, so adding an operator requires no changes to
/// the algorithm itself (paper §1.3 "Extensibility and modularity").
class Registry {
 public:
  /// Registry with the library's extension operators (left outerjoin,
  /// semijoin, antijoin, transitive closure) pre-registered.
  static const Registry& Default();
  /// Registry with no operators.
  static Registry Empty();

  Status Register(OperatorDef def);
  const OperatorDef* Find(const std::string& name) const;

  /// Builds a kUserOp node, computing its arity through the operator's
  /// arity rule and checking the argument count.
  Result<ExprPtr> MakeOp(const std::string& name, std::vector<ExprPtr> args,
                         Condition cond = Condition::True(),
                         std::vector<int> indexes = {}) const;

  /// Process-unique, never-reused identity of this registry *state*. Every
  /// construction — including copies, which may diverge afterwards — gets
  /// a fresh id, and every successful Register() bumps it, so caches keyed
  /// on it (through ComposeOptions::AppendTo, the options part of every
  /// service and chain-prefix key) can never alias two different
  /// operator sets the way a reused pointer address or a mutated-in-place
  /// object can. Assignment refreshes the target's id too. Always the safe
  /// direction: at worst a spurious cache miss, never a stale hit.
  uint64_t uid() const { return uid_; }

  Registry(const Registry& other) : ops_(other.ops_) {}
  Registry(Registry&& other) noexcept : ops_(std::move(other.ops_)) {
    other.uid_ = NextUid();  // the gutted source is a new (empty) state
  }
  Registry& operator=(const Registry& other) {
    ops_ = other.ops_;
    uid_ = NextUid();
    return *this;
  }
  Registry& operator=(Registry&& other) noexcept {
    ops_ = std::move(other.ops_);
    uid_ = NextUid();
    other.uid_ = NextUid();
    return *this;
  }
  Registry() = default;

 private:
  static uint64_t NextUid();

  std::map<std::string, OperatorDef> ops_;
  uint64_t uid_ = NextUid();
};

}  // namespace op
}  // namespace mapcomp

#endif  // MAPCOMP_OP_REGISTRY_H_
