#include "src/algebra/condition.h"

#include <algorithm>
#include <utility>

namespace mapcomp {

std::string CmpOpToString(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

bool EvalCmp(CmpOp op, const Value& a, const Value& b) {
  int c = CompareValues(a, b);
  switch (op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

Condition Condition::True() {
  Condition c;
  c.kind_ = Kind::kTrue;
  return c;
}

Condition Condition::False() {
  Condition c;
  c.kind_ = Kind::kFalse;
  return c;
}

Condition Condition::Atom(CondOperand lhs, CmpOp op, CondOperand rhs) {
  Condition c;
  c.kind_ = Kind::kAtom;
  c.op_ = op;
  c.lhs_ = std::move(lhs);
  c.rhs_ = std::move(rhs);
  // Constant-fold constant-vs-constant atoms.
  if (!c.lhs_.is_attr && !c.rhs_.is_attr) {
    return EvalCmp(op, c.lhs_.constant, c.rhs_.constant) ? True() : False();
  }
  return c;
}

Condition Condition::AttrCmp(int l, CmpOp op, int r) {
  return Atom(CondOperand::Attr(l), op, CondOperand::Attr(r));
}

Condition Condition::AttrConst(int l, CmpOp op, Value v) {
  return Atom(CondOperand::Attr(l), op, CondOperand::Const(std::move(v)));
}

Condition Condition::And(Condition a, Condition b) {
  if (a.IsFalse() || b.IsFalse()) return False();
  if (a.IsTrue()) return b;
  if (b.IsTrue()) return a;
  Condition c;
  c.kind_ = Kind::kAnd;
  // Flatten nested conjunctions for canonical form.
  auto append = [&c](Condition&& x) {
    if (x.kind_ == Kind::kAnd) {
      for (auto& ch : x.children_) c.children_.push_back(std::move(ch));
    } else {
      c.children_.push_back(std::move(x));
    }
  };
  append(std::move(a));
  append(std::move(b));
  return c;
}

Condition Condition::Or(Condition a, Condition b) {
  if (a.IsTrue() || b.IsTrue()) return True();
  if (a.IsFalse()) return b;
  if (b.IsFalse()) return a;
  Condition c;
  c.kind_ = Kind::kOr;
  auto append = [&c](Condition&& x) {
    if (x.kind_ == Kind::kOr) {
      for (auto& ch : x.children_) c.children_.push_back(std::move(ch));
    } else {
      c.children_.push_back(std::move(x));
    }
  };
  append(std::move(a));
  append(std::move(b));
  return c;
}

Condition Condition::Not(Condition a) {
  if (a.IsTrue()) return False();
  if (a.IsFalse()) return True();
  if (a.kind_ == Kind::kNot) return a.children_[0];
  Condition c;
  c.kind_ = Kind::kNot;
  c.children_.push_back(std::move(a));
  return c;
}

Condition Condition::AndAll(std::vector<Condition> cs) {
  Condition acc = True();
  for (auto& c : cs) acc = And(std::move(acc), std::move(c));
  return acc;
}

namespace {
Value OperandValue(const CondOperand& o, const Tuple& t, bool* ok) {
  if (!o.is_attr) return o.constant;
  if (o.attr < 1 || o.attr > static_cast<int>(t.size())) {
    *ok = false;
    return int64_t{0};
  }
  return t[o.attr - 1];
}
}  // namespace

bool Condition::Eval(const Tuple& t) const {
  switch (kind_) {
    case Kind::kTrue:
      return true;
    case Kind::kFalse:
      return false;
    case Kind::kAtom: {
      bool ok = true;
      Value a = OperandValue(lhs_, t, &ok);
      Value b = OperandValue(rhs_, t, &ok);
      if (!ok) return false;
      return EvalCmp(op_, a, b);
    }
    case Kind::kAnd:
      return std::all_of(children_.begin(), children_.end(),
                         [&t](const Condition& c) { return c.Eval(t); });
    case Kind::kOr:
      return std::any_of(children_.begin(), children_.end(),
                         [&t](const Condition& c) { return c.Eval(t); });
    case Kind::kNot:
      return !children_[0].Eval(t);
  }
  return false;
}

Condition Condition::ShiftAttrs(int delta) const {
  return RemapAttrs([delta](int i) { return i + delta; });
}

Condition Condition::RemapAttrs(const std::function<int(int)>& remap) const {
  switch (kind_) {
    case Kind::kTrue:
    case Kind::kFalse:
      return *this;
    case Kind::kAtom: {
      CondOperand l = lhs_, r = rhs_;
      if (l.is_attr) l.attr = remap(l.attr);
      if (r.is_attr) r.attr = remap(r.attr);
      Condition c;
      c.kind_ = Kind::kAtom;
      c.op_ = op_;
      c.lhs_ = std::move(l);
      c.rhs_ = std::move(r);
      return c;
    }
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kNot: {
      Condition c;
      c.kind_ = kind_;
      c.children_.reserve(children_.size());
      for (const Condition& ch : children_) {
        c.children_.push_back(ch.RemapAttrs(remap));
      }
      return c;
    }
  }
  return *this;
}

int Condition::MaxAttr() const {
  switch (kind_) {
    case Kind::kTrue:
    case Kind::kFalse:
      return 0;
    case Kind::kAtom: {
      int m = 0;
      if (lhs_.is_attr) m = std::max(m, lhs_.attr);
      if (rhs_.is_attr) m = std::max(m, rhs_.attr);
      return m;
    }
    default: {
      int m = 0;
      for (const Condition& ch : children_) m = std::max(m, ch.MaxAttr());
      return m;
    }
  }
}

bool Condition::operator==(const Condition& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kTrue:
    case Kind::kFalse:
      return true;
    case Kind::kAtom:
      return op_ == other.op_ && lhs_ == other.lhs_ && rhs_ == other.rhs_;
    default:
      return children_ == other.children_;
  }
}

size_t Condition::Hash() const {
  if (hash_cache_ != 0) return hash_cache_;
  size_t seed = static_cast<size_t>(kind_);
  switch (kind_) {
    case Kind::kTrue:
    case Kind::kFalse:
      break;
    case Kind::kAtom:
      HashCombine(&seed, static_cast<size_t>(op_));
      HashCombine(&seed, lhs_.is_attr ? static_cast<size_t>(lhs_.attr) * 3 + 1
                                      : HashValue(lhs_.constant));
      HashCombine(&seed, rhs_.is_attr ? static_cast<size_t>(rhs_.attr) * 3 + 1
                                      : HashValue(rhs_.constant));
      break;
    default:
      for (const Condition& ch : children_) HashCombine(&seed, ch.Hash());
  }
  if (seed == 0) seed = 1;  // keep 0 free as the "not computed" marker
  hash_cache_ = seed;
  return seed;
}

namespace {
std::string OperandToString(const CondOperand& o) {
  if (o.is_attr) return "#" + std::to_string(o.attr);
  return ValueToString(o.constant);
}
}  // namespace

std::string Condition::ToString() const {
  switch (kind_) {
    case Kind::kTrue:
      return "true";
    case Kind::kFalse:
      return "false";
    case Kind::kAtom:
      return OperandToString(lhs_) + CmpOpToString(op_) + OperandToString(rhs_);
    case Kind::kAnd:
    case Kind::kOr: {
      std::string sep = kind_ == Kind::kAnd ? " and " : " or ";
      std::string out = "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += sep;
        out += children_[i].ToString();
      }
      out += ")";
      return out;
    }
    case Kind::kNot:
      return "not " + children_[0].ToString();
  }
  return "?";
}

}  // namespace mapcomp
