#include "src/eval/checker.h"

#include <cmath>

#include "src/algebra/dag_walk.h"

namespace mapcomp {

namespace {

void CollectConstantsFromCondition(const Condition& c, std::set<Value>* out) {
  switch (c.kind()) {
    case Condition::Kind::kAtom:
      if (!c.lhs().is_attr) out->insert(c.lhs().constant);
      if (!c.rhs().is_attr) out->insert(c.rhs().constant);
      break;
    case Condition::Kind::kAnd:
    case Condition::Kind::kOr:
    case Condition::Kind::kNot:
      for (const Condition& ch : c.children()) {
        CollectConstantsFromCondition(ch, out);
      }
      break;
    default:
      break;
  }
}

}  // namespace

std::set<Value> CollectConstants(const ConstraintSet& cs) {
  std::set<Value> out;
  NodeTable<NoValue> seen;
  for (const Constraint& c : cs) {
    for (const ExprPtr& side : {c.lhs, c.rhs}) {
      if (side == nullptr) continue;
      WalkDag(side, &seen, [&out](const ExprPtr& e) {
        CollectConstantsFromCondition(e->condition(), &out);
        for (const Tuple& t : e->tuples()) out.insert(t.begin(), t.end());
        return Visit::kEnter;
      });
    }
  }
  return out;
}

Result<bool> Satisfies(const EncodedInstance& instance, const Constraint& c,
                       const EvalOptions& options, EvalStats* stats) {
  // One memo across both sides: the composer's outputs frequently repeat a
  // join subtree on the two sides of a constraint, which then evaluates
  // once.
  return EvaluateContainment(c.lhs, c.rhs,
                             c.kind == ConstraintKind::kEquality, instance,
                             options, stats);
}

Result<Instance> FindExtension(const Instance& base, const Signature& extra,
                               const ConstraintSet& cs, int fresh_values,
                               long long max_candidates) {
  // Candidate universe: base's active domain, the constraint constants, and
  // a few fresh values (completeness allows extending the domain, paper §2).
  std::set<Value> universe = base.ActiveDomain();
  const std::set<Value> consts = CollectConstants(cs);
  universe.insert(consts.begin(), consts.end());
  for (int i = 0; i < fresh_values; ++i) {
    universe.insert(Value(std::string("fresh" + std::to_string(i))));
  }
  std::vector<Value> vals(universe.begin(), universe.end());

  // Enumerate all candidate tuples per extra relation.
  struct Slot {
    std::string name;
    std::vector<Tuple> candidates;
  };
  std::vector<Slot> slots;
  double total = 1.0;
  for (const std::string& name : extra.names()) {
    Slot slot;
    slot.name = name;
    int r = extra.ArityOf(name);
    double count = std::pow(static_cast<double>(vals.size()),
                            static_cast<double>(r));
    if (count > 20) {
      return Status::ResourceExhausted("too many candidate tuples for " +
                                       name);
    }
    std::vector<int> idx(r, 0);
    while (true) {
      Tuple t;
      for (int i : idx) t.push_back(vals[i]);
      slot.candidates.push_back(std::move(t));
      int pos = r - 1;
      while (pos >= 0 && ++idx[pos] == static_cast<int>(vals.size())) {
        idx[pos--] = 0;
      }
      if (pos < 0) break;
    }
    total *= std::pow(2.0, static_cast<double>(slot.candidates.size()));
    slots.push_back(std::move(slot));
  }
  if (total > static_cast<double>(max_candidates)) {
    return Status::ResourceExhausted("extension search space too large");
  }

  // Every candidate holds base's relations and extra's, and is checked
  // against `cs`: one schema numbers them all and resolves the leaves.
  std::vector<std::string> names;
  for (const auto& [name, _] : base.relations()) names.push_back(name);
  names.insert(names.end(), extra.names().begin(), extra.names().end());
  const auto schema =
      std::make_shared<const RelationSchema>(names, ConstraintSides(cs));

  // Enumerate all subsets of candidates for each slot (depth-first).
  Instance current = base;
  std::function<Result<bool>(size_t)> search =
      [&](size_t slot_index) -> Result<bool> {
    if (slot_index == slots.size()) {
      const EncodedInstance encoded(current, consts, schema);
      for (const Constraint& c : cs) {
        MAPCOMP_ASSIGN_OR_RETURN(bool sat, Satisfies(encoded, c));
        if (!sat) return false;
      }
      return true;
    }
    const Slot& slot = slots[slot_index];
    size_t n = slot.candidates.size();
    for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
      std::set<Tuple> tuples;
      for (size_t i = 0; i < n; ++i) {
        if (mask & (uint64_t{1} << i)) tuples.insert(slot.candidates[i]);
      }
      current.Set(slot.name, std::move(tuples));
      MAPCOMP_ASSIGN_OR_RETURN(bool found, search(slot_index + 1));
      if (found) return true;
      current.Clear(slot.name);
    }
    return false;
  };
  MAPCOMP_ASSIGN_OR_RETURN(bool found, search(0));
  if (!found) {
    return Status::NotFound("no extension found within bounded search");
  }
  return current;
}

}  // namespace mapcomp
