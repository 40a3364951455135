#include "src/eval/join.h"

#include <algorithm>
#include <functional>
#include <numeric>

namespace mapcomp {
namespace eval_internal {

namespace {

void FlattenConjuncts(const Condition& c,
                      std::vector<const Condition*>* out) {
  if (c.kind() == Condition::Kind::kAnd) {
    for (const Condition& child : c.children()) {
      FlattenConjuncts(child, out);
    }
    return;
  }
  if (c.IsTrue()) return;
  out->push_back(&c);
}

/// Smallest and largest attribute index referenced anywhere in `c`
/// (min stays INT_MAX / max stays 0 when no attribute occurs).
void AttrSpan(const Condition& c, int* min_attr, int* max_attr) {
  switch (c.kind()) {
    case Condition::Kind::kAtom:
      if (c.lhs().is_attr) {
        *min_attr = std::min(*min_attr, c.lhs().attr);
        *max_attr = std::max(*max_attr, c.lhs().attr);
      }
      if (c.rhs().is_attr) {
        *min_attr = std::min(*min_attr, c.rhs().attr);
        *max_attr = std::max(*max_attr, c.rhs().attr);
      }
      break;
    case Condition::Kind::kAnd:
    case Condition::Kind::kOr:
    case Condition::Kind::kNot:
      for (const Condition& child : c.children()) {
        AttrSpan(child, min_attr, max_attr);
      }
      break;
    default:
      break;
  }
}

}  // namespace

CompiledCond CompiledCond::Compile(const Condition& c, ValueDict* dict) {
  CompiledCond out;
  out.kind_ = c.kind();
  switch (c.kind()) {
    case Condition::Kind::kAtom:
      out.op_ = c.op();
      out.lhs_attr_ = c.lhs().is_attr;
      out.lhs_ = out.lhs_attr_ ? static_cast<uint32_t>(c.lhs().attr - 1)
                               : dict->Intern(c.lhs().constant);
      out.rhs_attr_ = c.rhs().is_attr;
      out.rhs_ = out.rhs_attr_ ? static_cast<uint32_t>(c.rhs().attr - 1)
                               : dict->Intern(c.rhs().constant);
      break;
    case Condition::Kind::kAnd:
    case Condition::Kind::kOr:
    case Condition::Kind::kNot:
      out.children_.reserve(c.children().size());
      for (const Condition& child : c.children()) {
        out.children_.push_back(Compile(child, dict));
      }
      break;
    default:
      break;
  }
  return out;
}

bool CompiledCond::Eval(const ValueId* left, int left_arity,
                        const ValueId* right, int right_arity,
                        const ValueDict& dict) const {
  switch (kind_) {
    case Condition::Kind::kTrue:
      return true;
    case Condition::Kind::kFalse:
      return false;
    case Condition::Kind::kAtom: {
      const uint32_t la = static_cast<uint32_t>(left_arity);
      const uint32_t arity = la + static_cast<uint32_t>(right_arity);
      auto column = [&](uint32_t i) {
        return i < la ? left[i] : right[i - la];
      };
      ValueId a, b;
      if (lhs_attr_) {
        if (lhs_ >= arity) return false;
        a = column(lhs_);
      } else {
        a = lhs_;
      }
      if (rhs_attr_) {
        if (rhs_ >= arity) return false;
        b = column(rhs_);
      } else {
        b = rhs_;
      }
      switch (op_) {
        case CmpOp::kEq:
          return a == b;
        case CmpOp::kNe:
          return a != b;
        case CmpOp::kLt:
          return dict.Compare(a, b) < 0;
        case CmpOp::kLe:
          return dict.Compare(a, b) <= 0;
        case CmpOp::kGt:
          return dict.Compare(a, b) > 0;
        case CmpOp::kGe:
          return dict.Compare(a, b) >= 0;
      }
      return false;
    }
    case Condition::Kind::kAnd:
      for (const CompiledCond& child : children_) {
        if (!child.Eval(left, left_arity, right, right_arity, dict)) {
          return false;
        }
      }
      return true;
    case Condition::Kind::kOr:
      for (const CompiledCond& child : children_) {
        if (child.Eval(left, left_arity, right, right_arity, dict)) {
          return true;
        }
      }
      return false;
    case Condition::Kind::kNot:
      return !children_[0].Eval(left, left_arity, right, right_arity, dict);
  }
  return false;
}

DomainSelectPlan PlanDomainSelect(const Condition& cond, int r) {
  DomainSelectPlan plan;
  if (r <= 0) return plan;
  // Union-find over the r coordinates, with an optional pinned constant per
  // root. Only top-level equality conjuncts are used — anything else is
  // left to the full-condition filter applied to every enumerated row, so
  // the plan only ever *shrinks* the candidate set, never changes it.
  std::vector<int> parent(r);
  for (int i = 0; i < r; ++i) parent[i] = i;
  std::function<int(int)> find = [&](int i) {
    while (parent[i] != i) {
      parent[i] = parent[parent[i]];
      i = parent[i];
    }
    return i;
  };
  std::vector<std::optional<Value>> pin(r);
  bool merged = false, bound = false;

  std::vector<const Condition*> conjuncts;
  FlattenConjuncts(cond, &conjuncts);
  for (const Condition* c : conjuncts) {
    if (c->kind() != Condition::Kind::kAtom || c->op() != CmpOp::kEq) continue;
    const CondOperand& l = c->lhs();
    const CondOperand& rr = c->rhs();
    auto in_range = [r](const CondOperand& o) {
      return o.is_attr && o.attr >= 1 && o.attr <= r;
    };
    if (in_range(l) && in_range(rr)) {
      int a = find(l.attr - 1), b = find(rr.attr - 1);
      if (a == b) continue;
      if (pin[a] && pin[b] &&
          CompareValues(*pin[a], *pin[b]) != 0) {
        plan.unsatisfiable = true;
        plan.useful = true;
        return plan;
      }
      if (!pin[a] && pin[b]) pin[a] = pin[b];
      parent[b] = a;
      merged = true;
    } else if (in_range(l) != in_range(rr)) {
      const CondOperand& attr = in_range(l) ? l : rr;
      const CondOperand& cst = in_range(l) ? rr : l;
      if (cst.is_attr) continue;  // the other side is an out-of-range attr
      int a = find(attr.attr - 1);
      if (pin[a] && CompareValues(*pin[a], cst.constant) != 0) {
        plan.unsatisfiable = true;
        plan.useful = true;
        return plan;
      }
      pin[a] = cst.constant;
      bound = true;
    }
  }
  if (!merged && !bound) return plan;  // nothing to prune
  plan.useful = true;
  plan.class_of.assign(r, -1);
  std::vector<int> class_of_root(r, -1);
  for (int i = 0; i < r; ++i) {
    int root = find(i);
    if (class_of_root[root] < 0) {
      class_of_root[root] = plan.num_classes++;
      plan.class_const.push_back(pin[root]);
    }
    plan.class_of[i] = class_of_root[root];
  }
  return plan;
}

CompiledJoin CompiledJoin::Compile(const Condition& cond, int left_arity,
                                   int right_arity, ValueDict* dict) {
  CompiledJoin out;
  Condition left = Condition::True(), right = Condition::True(),
            residual = Condition::True();
  std::vector<const Condition*> conjuncts;
  FlattenConjuncts(cond, &conjuncts);
  for (const Condition* c : conjuncts) {
    int min_attr = INT32_MAX, max_attr = 0;
    AttrSpan(*c, &min_attr, &max_attr);
    if (max_attr <= left_arity) {
      // Also takes attribute-free conjuncts (kFalse, const-vs-const atoms):
      // a constant-false conjunct empties the left side, which empties the
      // join — same truth value as filtering afterwards.
      left = Condition::And(std::move(left), *c);
      continue;
    }
    if (min_attr > left_arity) {
      right = Condition::And(std::move(right), c->ShiftAttrs(-left_arity));
      continue;
    }
    if (c->kind() == Condition::Kind::kAtom && c->op() == CmpOp::kEq &&
        c->lhs().is_attr && c->rhs().is_attr) {
      int x = c->lhs().attr, y = c->rhs().attr;
      if (x > y) std::swap(x, y);
      if (x >= 1 && x <= left_arity && y > left_arity &&
          y <= left_arity + right_arity) {
        out.keys.emplace_back(x, y - left_arity);
        continue;
      }
    }
    residual = Condition::And(std::move(residual), *c);
  }
  out.left_filter = CompiledCond::Compile(left, dict);
  out.right_filter = CompiledCond::Compile(right, dict);
  out.residual = CompiledCond::Compile(residual, dict);
  return out;
}

JoinMatcher::JoinMatcher(const TupleTable& build, bool build_left,
                         int probe_arity,
                         const std::vector<std::pair<int, int>>& keys,
                         const CompiledCond& residual, const ValueDict& dict,
                         const CompiledCond& build_filter)
    : build_(&build),
      build_left_(build_left),
      probe_arity_(probe_arity),
      residual_(&residual),
      dict_(&dict) {
  for (const auto& [l, r] : keys) {
    build_cols_.push_back((build_left ? l : r) - 1);
    probe_cols_.push_back((build_left ? r : l) - 1);
  }
  std::vector<int64_t> kept;
  kept.reserve(static_cast<size_t>(build.size()));
  for (int64_t i = 0; i < build.size(); ++i) {
    if (build_filter.Eval(build.Row(i), build.arity(), dict)) kept.push_back(i);
  }
  // Counting sort into power-of-two buckets (one bucket without keys): rows
  // stay in ascending position order within each bucket.
  size_t buckets = 1;
  if (!keys.empty()) {
    while (buckets < kept.size()) buckets <<= 1;
  }
  mask_ = buckets - 1;
  std::vector<size_t> bucket_of(kept.size());
  bucket_begin_.assign(buckets + 1, 0);
  for (size_t k = 0; k < kept.size(); ++k) {
    bucket_of[k] = Bucket(build.Row(kept[k]), build_cols_);
    ++bucket_begin_[bucket_of[k] + 1];
  }
  std::partial_sum(bucket_begin_.begin(), bucket_begin_.end(),
                   bucket_begin_.begin());
  std::vector<int64_t> fill(bucket_begin_.begin(), bucket_begin_.end() - 1);
  rows_.resize(kept.size());
  for (size_t k = 0; k < kept.size(); ++k) {
    rows_[static_cast<size_t>(fill[bucket_of[k]]++)] = kept[k];
  }
}

size_t JoinMatcher::Bucket(const ValueId* row,
                           const std::vector<int>& cols) const {
  if (mask_ == 0) return 0;
  size_t seed = cols.size();
  for (int c : cols) HashCombine(&seed, row[c]);
  // Fibonacci mix: the masked low bits must depend on every key bit.
  uint64_t h = static_cast<uint64_t>(seed) * 0x9e3779b97f4a7c15ULL;
  return static_cast<size_t>(h ^ (h >> 32)) & mask_;
}

bool JoinMatcher::Accepts(const ValueId* probe_row,
                          const ValueId* build_row) const {
  for (size_t k = 0; k < probe_cols_.size(); ++k) {
    if (probe_row[probe_cols_[k]] != build_row[build_cols_[k]]) return false;
  }
  const int build_arity = build_->arity();
  return build_left_ ? residual_->Eval(build_row, build_arity, probe_row,
                                       probe_arity_, *dict_)
                     : residual_->Eval(probe_row, probe_arity_, build_row,
                                       build_arity, *dict_);
}

}  // namespace eval_internal
}  // namespace mapcomp
