// EncodedInstance: an instance's dictionary, domain ids and relation tables,
// built once and shared by every evaluation against it (see evaluator.h).

#include <numeric>
#include <utility>

#include "src/eval/evaluator.h"
#include "src/eval/tuple_table.h"
#include "src/eval/value_dict.h"

namespace mapcomp {

namespace {

/// Encodes one relation: a table when every tuple has the same size, the
/// tuple set itself otherwise.
EncodedInstance::Relation EncodeRelation(const std::set<Tuple>& tuples,
                                         ValueDict* dict) {
  EncodedInstance::Relation rel;
  const size_t arity = tuples.empty() ? 0 : tuples.begin()->size();
  for (const Tuple& t : tuples) {
    if (t.size() != arity) {
      rel.ragged = std::make_shared<const std::set<Tuple>>(tuples);
      return rel;
    }
  }
  rel.table = std::make_shared<const TupleTable>(
      TupleTable::FromSet(tuples, static_cast<int>(arity), dict).value());
  return rel;
}

bool SameRows(const TupleTable& a, const TupleTable& b) {
  if (a.empty() || b.empty()) return a.empty() && b.empty();
  return a.arity() == b.arity() && a.size() == b.size() &&
         a.Data() == b.Data();
}

}  // namespace

int64_t EncodedInstance::Relation::size() const {
  return ragged != nullptr ? static_cast<int64_t>(ragged->size())
                           : table->size();
}

EncodedInstance::EncodedInstance(std::shared_ptr<ValueDict> dict,
                                 std::map<std::string, Relation> relations,
                                 std::vector<ValueId> extra_ids)
    : dict_(std::move(dict)),
      relations_(std::move(relations)),
      occurrences_(dict_->size(), 0),
      counted_(true),
      extra_ids_(std::move(extra_ids)) {
  // The occurrence counts Put keeps D in step with, taken in the one walk
  // over the ids that finds D.
  for (const auto& [_, rel] : relations_) {
    for (ValueId id : rel.table->Data()) ++occurrences_[id];
  }
  for (ValueId id : extra_ids_) ++occurrences_[id];
  for (size_t id = 0; id < occurrences_.size(); ++id) {
    if (occurrences_[id] > 0) domain_ids_.push_back(static_cast<ValueId>(id));
  }
}

EncodedInstance::EncodedInstance(const Instance& instance,
                                 const std::set<Value>& extra_constants) {
  // Seeded sorted, so the id order over the seed is the value order and
  // encodes and D^r enumerations arrive sorted. The seed tier is this
  // instance's own, and it is D: every seeded id is a domain id.
  std::set<Value> universe = instance.ActiveDomain();
  universe.insert(extra_constants.begin(), extra_constants.end());
  dict_ = std::make_shared<ValueDict>(
      std::make_shared<const ValueDict::SeedTier>(universe));
  domain_ids_.resize(universe.size());
  std::iota(domain_ids_.begin(), domain_ids_.end(), ValueId{0});
  for (const Value& v : extra_constants) {
    extra_ids_.push_back(*dict_->Find(v));
  }
  for (const auto& [name, tuples] : instance.relations()) {
    relations_.emplace(name, EncodeRelation(tuples, dict_.get()));
  }
}

const EncodedInstance::Relation* EncodedInstance::Find(
    const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

Result<std::shared_ptr<const TupleTable>> EncodedInstance::TableOf(
    const Relation* rel, int arity) const {
  if (rel == nullptr) return std::make_shared<const TupleTable>(arity);
  if (rel->table != nullptr) {
    if (rel->table->arity() == arity) return rel->table;
    if (rel->table->empty()) return std::make_shared<const TupleTable>(arity);
  }
  // A relation that does not fit `arity`: FromSet names the first tuple
  // that does not, exactly as encoding the instance for this node would.
  std::set<Tuple> tuples = rel->ragged != nullptr
                               ? *rel->ragged
                               : rel->table->ToSet(*dict_);
  MAPCOMP_ASSIGN_OR_RETURN(TupleTable t,
                           TupleTable::FromSet(tuples, arity, dict_.get()));
  return std::make_shared<const TupleTable>(std::move(t));
}

void EncodedInstance::Count(const Relation& rel, int64_t delta,
                            bool* crossed) {
  auto bump = [&](ValueId id) {
    if (id >= occurrences_.size()) occurrences_.resize(dict_->size(), 0);
    int64_t& n = occurrences_[id];
    if ((n == 0) != (n + delta == 0)) *crossed = true;
    n += delta;
  };
  if (rel.ragged != nullptr) {
    for (const Tuple& t : *rel.ragged) {
      for (const Value& v : t) bump(dict_->Intern(v));
    }
    return;
  }
  for (ValueId id : rel.table->Data()) bump(id);
}

void EncodedInstance::Put(const std::string& name, Relation rel) {
  bool crossed = false;
  if (!counted_) {
    occurrences_.assign(dict_->size(), 0);
    for (const auto& [_, r] : relations_) Count(r, 1, &crossed);
    for (ValueId id : extra_ids_) ++occurrences_[id];
    counted_ = true;
    crossed = false;
  }
  Relation& slot = relations_[name];
  if (slot.table != nullptr || slot.ragged != nullptr) {
    Count(slot, -1, &crossed);
  }
  Count(rel, 1, &crossed);
  slot = std::move(rel);
  if (!crossed) return;
  domain_ids_.clear();
  for (size_t i = 0; i < occurrences_.size(); ++i) {
    if (occurrences_[i] > 0) domain_ids_.push_back(static_cast<ValueId>(i));
  }
}

bool EncodedInstance::Assign(const std::string& name,
                             std::shared_ptr<const TupleTable> table) {
  const Relation* cur = Find(name);
  if (cur == nullptr ? table->empty()
                     : cur->table != nullptr && SameRows(*cur->table, *table)) {
    return false;
  }
  Put(name, Relation{std::move(table), nullptr});
  return true;
}

bool EncodedInstance::Grow(const std::string& name,
                           std::shared_ptr<const TupleTable> table) {
  if (table->empty()) return false;
  const Relation* cur = Find(name);
  if (cur == nullptr || (cur->table != nullptr && cur->table->empty())) {
    Put(name, Relation{std::move(table), nullptr});
    return true;
  }
  if (cur->table != nullptr && cur->table->arity() == table->arity()) {
    TupleTable merged = TupleTable::UnionOf(*cur->table, *table);
    if (merged.size() == cur->table->size()) return false;
    Put(name,
        Relation{std::make_shared<const TupleTable>(std::move(merged)),
                 nullptr});
    return true;
  }
  // Tuples of another size: the relation is (or stays) ragged.
  std::set<Tuple> tuples = Decode(name);
  const size_t before = tuples.size();
  std::set<Tuple> added = table->ToSet(*dict_);
  tuples.insert(added.begin(), added.end());
  if (tuples.size() == before) return false;
  Put(name, Relation{nullptr,
                     std::make_shared<const std::set<Tuple>>(std::move(tuples))});
  return true;
}

std::set<Tuple> EncodedInstance::Decode(const std::string& name) const {
  const Relation* rel = Find(name);
  if (rel == nullptr) return {};
  if (rel->ragged != nullptr) return *rel->ragged;
  return rel->table->ToSet(*dict_);
}

Instance EncodedInstance::Decode() const {
  Instance out;
  for (const auto& [name, _] : relations_) out.Set(name, Decode(name));
  return out;
}

}  // namespace mapcomp
