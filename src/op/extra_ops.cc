#include "src/op/extra_ops.h"

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/algebra/builders.h"
#include "src/eval/join.h"
#include "src/eval/tuple_table.h"
#include "src/eval/value_dict.h"
#include "src/op/registry.h"

namespace mapcomp {
namespace op {

const Value& NullValue() {
  static const Value* kNull = new Value(std::string("<null>"));
  return *kNull;
}

namespace {

using eval_internal::CompiledJoin;
using eval_internal::JoinMatcher;

Result<int> SameBinaryArity(const std::vector<int>& arities) {
  if (arities.size() != 2) return Status::InvalidArgument("needs 2 args");
  return arities[0] + arities[1];
}

Result<int> FirstArgArity(const std::vector<int>& arities) {
  if (arities.size() != 2) return Status::InvalidArgument("needs 2 args");
  return arities[0];
}

Result<int> BinaryRelationArity(const std::vector<int>& arities) {
  if (arities.size() != 1 || arities[0] != 2) {
    return Status::InvalidArgument("tc needs one binary argument");
  }
  return 2;
}

/// The join family's shared setup: the node's condition split by
/// CompiledJoin, and the evaluator's JoinMatcher built over the filtered
/// right input.
/// Left rows are probed one at a time; a row failing the pushed-down left
/// filter matches nothing (the filter is a conjunct of the condition).
struct RightJoin {
  RightJoin(const Expr& e, const TupleTable& left, const TupleTable& right,
            ValueDict* dict)
      : join(CompiledJoin::Compile(e.condition(), left.arity(), right.arity(),
                                   dict)),
        matcher(right, /*build_left=*/false, left.arity(), join.keys,
                join.residual, *dict, join.right_filter),
        dict(*dict),
        la(left.arity()) {}
  // `matcher` points into `join`.
  RightJoin(const RightJoin&) = delete;
  RightJoin& operator=(const RightJoin&) = delete;

  bool LeftPasses(const ValueId* lrow) const {
    return join.left_filter.Eval(lrow, la, dict);
  }
  bool Matches(const ValueId* lrow) const {
    return LeftPasses(lrow) && matcher.Matches(lrow);
  }

  CompiledJoin join;
  JoinMatcher matcher;
  const ValueDict& dict;
  int la;
};

// --------------------------------------------------------------------------
// Operator definitions.
// --------------------------------------------------------------------------

OperatorDef LeftOuterJoinDef() {
  OperatorDef def;
  def.name = "lojoin";
  def.num_args = 2;
  def.arity = SameBinaryArity;
  // Paper §1.3: left outerjoin is monotone in its first argument but not in
  // its second (adding tuples to E2 may retract padded rows).
  def.polarity = {Polarity::kMonotone, Polarity::kUnknown};
  def.simplify = [](const ExprPtr& e) -> ExprPtr {
    // lojoin[c](∅, E2) = ∅.
    if (e->child(0)->kind() == ExprKind::kEmpty) return EmptyRel(e->arity());
    return nullptr;
  };
  def.eval_columnar =
      [](const Expr& e, const std::vector<const TupleTable*>& kids,
         const ColumnarContext& ctx) -> Result<TupleTable> {
    const TupleTable& left = *kids[0];
    const TupleTable& right = *kids[1];
    RightJoin j(e, left, right, ctx.dict);
    // The pad value is interned once up front; within the seeded range it
    // reuses the seeded id, otherwise it is minted (id order then differs
    // from value order, which the canonicalizing surfaces absorb).
    const ValueId pad = ctx.dict->Intern(NullValue());
    const int la = left.arity(), ra = right.arity();
    TupleTable out(la + ra);
    std::vector<ValueId>& data = out.MutableData();
    for (int64_t i = 0; i < left.size(); ++i) {
      const ValueId* lrow = left.Row(i);
      bool matched = false;
      if (j.LeftPasses(lrow)) {
        j.matcher.ForEachMatch(lrow, [&](const ValueId* rrow) {
          data.insert(data.end(), lrow, lrow + la);
          data.insert(data.end(), rrow, rrow + ra);
          matched = true;
          return true;  // emit every match
        });
      }
      if (!matched) {
        data.insert(data.end(), lrow, lrow + la);
        data.insert(data.end(), static_cast<size_t>(ra), pad);
      }
    }
    out.FinishAppends();
    return out;
  };
  return def;
}

OperatorDef SemiJoinDef() {
  OperatorDef def;
  def.name = "semijoin";
  def.num_args = 2;
  def.arity = FirstArgArity;
  def.polarity = {Polarity::kMonotone, Polarity::kMonotone};
  def.simplify = [](const ExprPtr& e) -> ExprPtr {
    if (e->child(0)->kind() == ExprKind::kEmpty ||
        e->child(1)->kind() == ExprKind::kEmpty) {
      return EmptyRel(e->arity());
    }
    return nullptr;
  };
  def.eval_columnar =
      [](const Expr& e, const std::vector<const TupleTable*>& kids,
         const ColumnarContext& ctx) -> Result<TupleTable> {
    const TupleTable& left = *kids[0];
    RightJoin j(e, left, *kids[1], ctx.dict);
    TupleTable out(left.arity());
    for (int64_t i = 0; i < left.size(); ++i) {
      if (j.Matches(left.Row(i))) out.AppendRow(left.Row(i));
    }
    return out;  // subset of the sorted unique left rows
  };
  return def;
}

OperatorDef AntiJoinDef() {
  OperatorDef def;
  def.name = "antijoin";
  def.num_args = 2;
  def.arity = FirstArgArity;
  // Paper §1.3: anti-semijoin handled via monotone-in-first,
  // anti-monotone-in-second.
  def.polarity = {Polarity::kMonotone, Polarity::kAnti};
  def.simplify = [](const ExprPtr& e) -> ExprPtr {
    // antijoin[c](E1, ∅) = E1; antijoin[c](∅, E2) = ∅.
    if (e->child(1)->kind() == ExprKind::kEmpty) return e->child(0);
    if (e->child(0)->kind() == ExprKind::kEmpty) return EmptyRel(e->arity());
    return nullptr;
  };
  def.eval_columnar =
      [](const Expr& e, const std::vector<const TupleTable*>& kids,
         const ColumnarContext& ctx) -> Result<TupleTable> {
    const TupleTable& left = *kids[0];
    RightJoin j(e, left, *kids[1], ctx.dict);
    TupleTable out(left.arity());
    for (int64_t i = 0; i < left.size(); ++i) {
      if (!j.Matches(left.Row(i))) out.AppendRow(left.Row(i));
    }
    return out;
  };
  return def;
}

OperatorDef TransitiveClosureDef() {
  OperatorDef def;
  def.name = "tc";
  def.num_args = 1;
  def.arity = BinaryRelationArity;
  def.polarity = {Polarity::kMonotone};
  def.simplify = [](const ExprPtr& e) -> ExprPtr {
    if (e->child(0)->kind() == ExprKind::kEmpty) return EmptyRel(2);
    return nullptr;
  };
  // Semi-naive delta fixpoint over packed ValueId pairs: round k extends
  // only the paths discovered in round k-1 by one base edge (equal-range
  // binary search over the sorted input table), instead of the naive
  // closure × closure rescan. The node's condition is ignored.
  def.eval_columnar =
      [](const Expr&, const std::vector<const TupleTable*>& kids,
         const ColumnarContext&) -> Result<TupleTable> {
    const TupleTable& edges = *kids[0];
    TupleTable out(2);
    const int64_t n = edges.size();
    if (n == 0) return out;
    // First row whose source id is >= src (the table is sorted by row ids,
    // so rows sharing a source are contiguous).
    auto lower = [&edges, n](ValueId src) {
      int64_t lo = 0, hi = n;
      while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (edges.Row(mid)[0] < src) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return lo;
    };
    auto pack = [](ValueId a, ValueId b) {
      return (static_cast<uint64_t>(a) << 32) | b;
    };
    std::unordered_set<uint64_t> seen;
    seen.reserve(static_cast<size_t>(n) * 4);
    std::vector<std::pair<ValueId, ValueId>> delta;
    delta.reserve(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      const ValueId* row = edges.Row(i);
      if (seen.insert(pack(row[0], row[1])).second) {
        delta.emplace_back(row[0], row[1]);
      }
    }
    std::vector<std::pair<ValueId, ValueId>> next;
    while (!delta.empty()) {
      next.clear();
      for (const std::pair<ValueId, ValueId>& path : delta) {
        for (int64_t j = lower(path.second);
             j < n && edges.Row(j)[0] == path.second; ++j) {
          ValueId c = edges.Row(j)[1];
          if (seen.insert(pack(path.first, c)).second) {
            next.emplace_back(path.first, c);
          }
        }
      }
      delta.swap(next);
    }
    std::vector<ValueId>& data = out.MutableData();
    data.reserve(seen.size() * 2);
    for (uint64_t pc : seen) {
      data.push_back(static_cast<ValueId>(pc >> 32));
      data.push_back(static_cast<ValueId>(pc & 0xffffffffu));
    }
    out.FinishAppends();
    return out;  // hash order; the evaluator canonicalizes
  };
  return def;
}

}  // namespace

void RegisterExtraOps(Registry* registry) {
  // Registration failures here are programming errors (duplicate names);
  // surface loudly.
  for (OperatorDef def : {LeftOuterJoinDef(), SemiJoinDef(), AntiJoinDef(),
                          TransitiveClosureDef()}) {
    Status st = registry->Register(std::move(def));
    if (!st.ok()) {
      std::cerr << "RegisterExtraOps: " << st.ToString() << "\n";
      std::abort();
    }
  }
}

}  // namespace op
}  // namespace mapcomp
