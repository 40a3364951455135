#include "src/op/extra_ops.h"

#include <algorithm>
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

using eval_internal::CompiledCond;
using eval_internal::JoinPlan;
using eval_internal::PlanJoin;

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

// --------------------------------------------------------------------------
// Columnar join-family probe. The three binary ops share one build-once
// structure: the condition is decomposed by the evaluator's join planner
// (single-side conjuncts become pushed filters, cross-side equalities
// become keys, the rest a residual on concatenated rows), the right side
// is filtered once, and — when keys exist — its surviving rows are sorted
// by key columns so each left row probes a binary-searched equal range
// instead of scanning. Within one ValueDict id equality ⇔ value equality,
// so keys compare as raw integers.
// --------------------------------------------------------------------------

struct JoinProbe {
  const TupleTable* right = nullptr;
  const ValueDict* dict = nullptr;
  int la = 0, ra = 0;
  bool left_true = true, residual_true = true;
  CompiledCond left_cc, residual_cc;
  /// (left attr, right-local attr) pairs, 1-based (JoinPlan::keys).
  std::vector<std::pair<int, int>> keys;
  /// Right-row indexes passing the pushed right filter; key-sorted when
  /// `keys` is non-empty.
  std::vector<int64_t> rrows;

  bool LeftPasses(const ValueId* lrow) const {
    return left_true || left_cc.Eval(lrow, la, *dict);
  }
};

JoinProbe BuildProbe(const Expr& e, const TupleTable& left,
                     const TupleTable& right, ValueDict* dict) {
  JoinProbe p;
  p.right = &right;
  p.dict = dict;
  p.la = left.arity();
  p.ra = right.arity();
  JoinPlan plan = PlanJoin(e.condition(), p.la, p.ra);
  p.left_true = plan.left_filter.IsTrue();
  if (!p.left_true) p.left_cc = CompiledCond::Compile(plan.left_filter, dict);
  p.residual_true = plan.residual.IsTrue();
  if (!p.residual_true) {
    p.residual_cc = CompiledCond::Compile(plan.residual, dict);
  }
  p.keys = plan.keys;
  CompiledCond right_cc;
  bool right_true = plan.right_filter.IsTrue();
  if (!right_true) right_cc = CompiledCond::Compile(plan.right_filter, dict);
  p.rrows.reserve(static_cast<size_t>(right.size()));
  for (int64_t i = 0; i < right.size(); ++i) {
    if (right_true || right_cc.Eval(right.Row(i), p.ra, *dict)) {
      p.rrows.push_back(i);
    }
  }
  if (!p.keys.empty()) {
    const TupleTable* r = p.right;
    const std::vector<std::pair<int, int>>& keys = p.keys;
    std::sort(p.rrows.begin(), p.rrows.end(),
              [r, &keys](int64_t x, int64_t y) {
                const ValueId* rx = r->Row(x);
                const ValueId* ry = r->Row(y);
                for (const std::pair<int, int>& k : keys) {
                  ValueId a = rx[k.second - 1], b = ry[k.second - 1];
                  if (a != b) return a < b;
                }
                return x < y;  // stable on ties (any total order works)
              });
  }
  return p;
}

/// Three-way compare of right row `idx`'s key columns against the probe key
/// extracted from `lrow`.
int CmpKey(const JoinProbe& p, int64_t idx, const ValueId* lrow) {
  const ValueId* rrow = p.right->Row(idx);
  for (const std::pair<int, int>& k : p.keys) {
    ValueId r = rrow[k.second - 1];
    ValueId l = lrow[k.first - 1];
    if (r != l) return r < l ? -1 : 1;
  }
  return 0;
}

/// [lo, hi) range of p.rrows whose key columns equal lrow's.
std::pair<int64_t, int64_t> KeyRange(const JoinProbe& p, const ValueId* lrow) {
  int64_t n = static_cast<int64_t>(p.rrows.size());
  int64_t lo = 0, hi = n;
  while (lo < hi) {
    int64_t mid = lo + (hi - lo) / 2;
    if (CmpKey(p, p.rrows[mid], lrow) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  int64_t lo2 = lo, hi2 = n;
  while (lo2 < hi2) {
    int64_t mid = lo2 + (hi2 - lo2) / 2;
    if (CmpKey(p, p.rrows[mid], lrow) <= 0) {
      lo2 = mid + 1;
    } else {
      hi2 = mid;
    }
  }
  return {lo, lo2};
}

/// Calls `visit(right_row)` for every filtered right row matching `lrow`
/// under keys + residual; stops early when visit returns false. `combined`
/// is a caller-owned scratch row of la+ra ids with lrow already in place.
template <typename Visit>
void ForEachMatch(const JoinProbe& p, const ValueId* lrow,
                  std::vector<ValueId>* combined, const Visit& visit) {
  auto test_and_visit = [&](int64_t ridx) {
    const ValueId* rrow = p.right->Row(ridx);
    if (!p.residual_true) {
      std::copy(rrow, rrow + p.ra, combined->begin() + p.la);
      if (!p.residual_cc.Eval(combined->data(), p.la + p.ra, *p.dict)) {
        return true;  // no match; keep going
      }
    }
    return visit(rrow);
  };
  if (!p.keys.empty()) {
    std::pair<int64_t, int64_t> range = KeyRange(p, lrow);
    for (int64_t m = range.first; m < range.second; ++m) {
      if (!test_and_visit(p.rrows[m])) return;
    }
    return;
  }
  for (int64_t ridx : p.rrows) {
    if (!test_and_visit(ridx)) return;
  }
}

bool HasColumnarMatch(const JoinProbe& p, const ValueId* lrow,
                      std::vector<ValueId>* combined) {
  bool found = false;
  ForEachMatch(p, lrow, combined, [&found](const ValueId*) {
    found = true;
    return false;  // one witness suffices
  });
  return found;
}

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
    JoinProbe p = BuildProbe(e, left, right, ctx.dict);
    // The pad value is interned once up front; within the seeded range it
    // reuses the seeded id, otherwise it is minted (id order then differs
    // from value order, which the canonicalizing surfaces absorb).
    const ValueId pad = ctx.dict->Intern(NullValue());
    const int la = p.la, ra = p.ra;
    TupleTable out(la + ra);
    std::vector<ValueId>& data = out.MutableData();
    std::vector<ValueId> combined(static_cast<size_t>(la + ra));
    for (int64_t i = 0; i < left.size(); ++i) {
      const ValueId* lrow = left.Row(i);
      std::copy(lrow, lrow + la, combined.begin());
      bool matched = false;
      // A row failing its pushed-down filter matches no right row (the
      // filter is a conjunct of the condition) — it goes straight to pad.
      if (p.LeftPasses(lrow)) {
        ForEachMatch(p, lrow, &combined,
                     [&](const ValueId* rrow) {
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
    JoinProbe p = BuildProbe(e, left, *kids[1], ctx.dict);
    TupleTable out(p.la);
    std::vector<ValueId> combined(static_cast<size_t>(p.la + p.ra));
    for (int64_t i = 0; i < left.size(); ++i) {
      const ValueId* lrow = left.Row(i);
      if (!p.LeftPasses(lrow)) continue;
      std::copy(lrow, lrow + p.la, combined.begin());
      if (HasColumnarMatch(p, lrow, &combined)) out.AppendRow(lrow);
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
    JoinProbe p = BuildProbe(e, left, *kids[1], ctx.dict);
    TupleTable out(p.la);
    std::vector<ValueId> combined(static_cast<size_t>(p.la + p.ra));
    for (int64_t i = 0; i < left.size(); ++i) {
      const ValueId* lrow = left.Row(i);
      // A row failing its pushed filter matches nothing, so it survives
      // the anti-join.
      if (p.LeftPasses(lrow)) {
        std::copy(lrow, lrow + p.la, combined.begin());
        if (HasColumnarMatch(p, lrow, &combined)) continue;
      }
      out.AppendRow(lrow);
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
