// Set-semantics reference bodies of the library's extension operators: the
// columnar kernels in src/op/extra_ops.cc are fingerprint-gated against
// these through the nested-loop oracle.

#include <map>
#include <utility>

#include "src/op/extra_ops.h"
#include "tests/oracles/oracle.h"

namespace mapcomp {
namespace oracle {
namespace {

using Kids = std::vector<const std::set<Tuple>*>;

bool HasMatch(const Tuple& t1, const std::set<Tuple>& right,
              const Condition& c) {
  for (const Tuple& t2 : right) {
    Tuple joined = t1;
    joined.insert(joined.end(), t2.begin(), t2.end());
    if (c.Eval(joined)) return true;
  }
  return false;
}

std::set<Tuple> LeftOuterJoin(const Expr& e, const Kids& kids) {
  std::set<Tuple> out;
  int r2 = e.child(1)->arity();
  for (const Tuple& t1 : (*kids[0])) {
    bool matched = false;
    for (const Tuple& t2 : (*kids[1])) {
      Tuple joined = t1;
      joined.insert(joined.end(), t2.begin(), t2.end());
      if (e.condition().Eval(joined)) {
        out.insert(std::move(joined));
        matched = true;
      }
    }
    if (!matched) {
      Tuple padded = t1;
      for (int i = 0; i < r2; ++i) padded.push_back(op::NullValue());
      out.insert(std::move(padded));
    }
  }
  return out;
}

std::set<Tuple> SemiJoin(const Expr& e, const Kids& kids) {
  std::set<Tuple> out;
  for (const Tuple& t1 : (*kids[0])) {
    if (HasMatch(t1, (*kids[1]), e.condition())) out.insert(t1);
  }
  return out;
}

std::set<Tuple> AntiJoin(const Expr& e, const Kids& kids) {
  std::set<Tuple> out;
  for (const Tuple& t1 : (*kids[0])) {
    if (!HasMatch(t1, (*kids[1]), e.condition())) out.insert(t1);
  }
  return out;
}

/// Naive closure × closure rescan until nothing grows. Like the columnar
/// kernel, it ignores the node's condition.
std::set<Tuple> TransitiveClosure(const Expr&, const Kids& kids) {
  std::set<Tuple> closure = (*kids[0]);
  bool grew = true;
  while (grew) {
    grew = false;
    std::vector<Tuple> added;
    for (const Tuple& a : closure) {
      for (const Tuple& b : closure) {
        if (CompareValues(a[1], b[0]) == 0) {
          Tuple t{a[0], b[1]};
          if (closure.count(t) == 0) added.push_back(std::move(t));
        }
      }
    }
    for (Tuple& t : added) {
      closure.insert(std::move(t));
      grew = true;
    }
  }
  return closure;
}

}  // namespace

const SetOpBody* FindSetOp(const std::string& name) {
  static const auto* kOps = new std::map<std::string, SetOpBody>{
      {"lojoin", LeftOuterJoin},
      {"semijoin", SemiJoin},
      {"antijoin", AntiJoin},
      {"tc", TransitiveClosure},
  };
  auto it = kOps->find(name);
  return it == kOps->end() ? nullptr : &it->second;
}

}  // namespace oracle
}  // namespace mapcomp
