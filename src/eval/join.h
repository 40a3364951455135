#ifndef MAPCOMP_EVAL_JOIN_H_
#define MAPCOMP_EVAL_JOIN_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/algebra/condition.h"
#include "src/eval/tuple_table.h"
#include "src/eval/value_dict.h"

namespace mapcomp {
namespace eval_internal {

/// A selection condition compiled against a ValueDict: attribute references
/// become 0-based column indexes, constants become interned ValueIds, so
/// per-row evaluation is integer compares with no variant dispatch. Order
/// atoms (`<`, `>=`, ...) compare through ValueDict::Compare, which is a
/// plain id comparison within the seeded order-preserving range.
/// Semantics mirror Condition::Eval exactly, including "an atom referencing
/// an out-of-range attribute is false".
class CompiledCond {
 public:
  /// Compiles `c`, interning its constants into `dict` (at plan time,
  /// before any row is emitted).
  static CompiledCond Compile(const Condition& c, ValueDict* dict);

  bool Eval(const ValueId* row, int arity, const ValueDict& dict) const {
    return Eval(row, arity, nullptr, 0, dict);
  }

  /// Evaluates over the row `left` followed by `right` without copying them
  /// into one (a join residual tests each candidate pair in place).
  bool Eval(const ValueId* left, int left_arity, const ValueId* right,
            int right_arity, const ValueDict& dict) const;

  bool IsTrue() const { return kind_ == Condition::Kind::kTrue; }

 private:
  Condition::Kind kind_ = Condition::Kind::kTrue;
  CmpOp op_ = CmpOp::kEq;
  bool lhs_attr_ = false, rhs_attr_ = false;
  uint32_t lhs_ = 0, rhs_ = 0;  // 0-based column index or ValueId
  std::vector<CompiledCond> children_;
};

/// Bound-coordinate analysis of `select(D^r, cond)`: equality conjuncts
/// partition the r coordinates into classes, some pinned to a constant —
/// then only one representative per unpinned class needs enumerating, so
/// σ_{#1=c ∧ #2=#3}(D^3) costs |D| candidate rows instead of |D|^3.
struct DomainSelectPlan {
  /// False when no conjunct binds or merges anything (the full D^r would be
  /// enumerated anyway — evaluate the child normally so it stays memoized).
  bool useful = false;
  /// Two conjuncts pin one class to different constants: the selection is
  /// empty without enumerating anything.
  bool unsatisfiable = false;
  /// 0-based coordinate → class index (classes numbered by first coord).
  std::vector<int> class_of;
  /// Pinned constant per class (nullopt = enumerate the domain).
  std::vector<std::optional<Value>> class_const;
  int num_classes = 0;
};

DomainSelectPlan PlanDomainSelect(const Condition& cond, int r);

/// How a join condition over a (left, right) pair will run, compiled
/// against one ValueDict — what the evaluator's join slot and the
/// join-family user operators hand to JoinMatcher:
///   - conjuncts touching only the left (or only the right) side are pushed
///     below the join as side filters,
///   - equality conjuncts `#i = #j` spanning both sides become hash keys,
///   - everything else (mixed non-equalities, disjunctions spanning sides)
///     stays as a residual tested on each candidate pair.
struct CompiledJoin {
  CompiledCond left_filter;
  /// Over the right side's local attribute numbering.
  CompiledCond right_filter;
  /// Over the (left, right) pair in the original attribute numbering.
  CompiledCond residual;
  /// (left attr, right-local attr) pairs, 1-based.
  std::vector<std::pair<int, int>> keys;

  /// Splits `cond` over a (left_arity, right_arity) pair and compiles the
  /// pieces, interning constants into `dict`.
  static CompiledJoin Compile(const Condition& cond, int left_arity,
                              int right_arity, ValueDict* dict);
};

/// The one equi-join matcher. The build step indexes the rows of one side
/// that pass `build_filter` in a hash table over the key columns; with no
/// keys every row shares one bucket, so the same code is the nested loop.
/// ForEachMatch then visits, in build-row order, each indexed row whose key
/// columns equal the probe row's and whose (left, right) pair passes the
/// residual. Probing is read-only.
class JoinMatcher {
 public:
  /// `build` is the left input when `build_left`, else the right. `keys`
  /// are CompiledJoin keys; `build` and `residual` must outlive the
  /// matcher.
  JoinMatcher(const TupleTable& build, bool build_left, int probe_arity,
              const std::vector<std::pair<int, int>>& keys,
              const CompiledCond& residual, const ValueDict& dict,
              const CompiledCond& build_filter = CompiledCond());

  /// Calls `visit(build_row)` for every match of `probe_row`; stops early
  /// when `visit` returns false.
  template <typename Visit>
  void ForEachMatch(const ValueId* probe_row, const Visit& visit) const {
    const size_t b = Bucket(probe_row, probe_cols_);
    for (int64_t k = bucket_begin_[b]; k < bucket_begin_[b + 1]; ++k) {
      const ValueId* build_row = build_->Row(rows_[static_cast<size_t>(k)]);
      if (Accepts(probe_row, build_row) && !visit(build_row)) return;
    }
  }

  /// Whether `probe_row` has at least one match.
  bool Matches(const ValueId* probe_row) const {
    bool found = false;
    ForEachMatch(probe_row, [&found](const ValueId*) {
      found = true;
      return false;  // one witness suffices
    });
    return found;
  }

 private:
  size_t Bucket(const ValueId* row, const std::vector<int>& cols) const;
  /// Key equality plus the residual over the (left, right) pair.
  bool Accepts(const ValueId* probe_row, const ValueId* build_row) const;

  const TupleTable* build_;
  bool build_left_;
  int probe_arity_;
  /// 0-based key columns on each side, in key order.
  std::vector<int> build_cols_, probe_cols_;
  const CompiledCond* residual_;
  const ValueDict* dict_;
  size_t mask_ = 0;
  /// Bucket b holds rows_[bucket_begin_[b], bucket_begin_[b + 1]): indexed
  /// build-row positions, ascending.
  std::vector<int64_t> bucket_begin_, rows_;
};

}  // namespace eval_internal
}  // namespace mapcomp

#endif  // MAPCOMP_EVAL_JOIN_H_
