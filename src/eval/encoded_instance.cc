// RelationSchema and EncodedInstance: the relation ids and an instance's
// dictionary, domain ids and relation tables, built once and shared by
// every evaluation against it (see evaluator.h).

#include <algorithm>
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

RelationSchema::RelationSchema(const std::vector<std::string>& names,
                               const std::vector<ExprPtr>& roots) {
  for (const std::string& name : names) Add(name);
  Resolve(roots);
}

std::shared_ptr<const RelationSchema> RelationSchema::Extend(
    std::shared_ptr<const RelationSchema> base,
    const std::vector<std::string>& names) {
  if (base != nullptr &&
      std::all_of(names.begin(), names.end(), [&base](const std::string& n) {
        return base->Find(n) >= 0;
      })) {
    return base;
  }
  auto out = std::make_shared<RelationSchema>(
      base != nullptr ? base->names_ : std::vector<std::string>{});
  for (const std::string& name : names) out->Add(name);
  if (base != nullptr) out->Resolve(base->leaves_);
  return out;
}

void RelationSchema::Resolve(const std::vector<ExprPtr>& roots) {
  NodeTable<NoValue> seen;
  for (const ExprPtr& root : roots) {
    WalkDag(root, &seen, [this](const ExprPtr& e) {
      if (e->kind() == ExprKind::kRelation &&
          leaf_ids_.Find(e.get()) == nullptr) {
        leaf_ids_.Insert(e.get()) = Add(e->name());
        leaves_.push_back(e);
      }
      return Visit::kEnter;
    });
  }
}

bool RelationSchema::Extends(const RelationSchema& base) const {
  return this == &base ||
         (base.names_.size() <= names_.size() &&
          std::equal(base.names_.begin(), base.names_.end(), names_.begin()));
}

EncodedInstance::EncodedInstance(std::shared_ptr<ValueDict> dict,
                                 SchemaPtr schema,
                                 std::vector<Relation> relations,
                                 std::vector<ValueId> extra_ids)
    : dict_(std::move(dict)),
      schema_(std::move(schema)),
      relations_(std::move(relations)),
      extra_ids_(std::move(extra_ids)) {
  CountDomain();
}

EncodedInstance::EncodedInstance(const Instance& instance,
                                 const std::set<Value>& extra_constants,
                                 SchemaPtr schema) {
  std::vector<std::string> names;
  names.reserve(instance.relations().size());
  for (const auto& [name, _] : instance.relations()) names.push_back(name);
  schema_ = RelationSchema::Extend(std::move(schema), names);
  // Seeded sorted, so the id order over the seed is the value order and
  // encodes and D^r enumerations arrive sorted. The seed tier is this
  // instance's own, and it is D: every seeded id is a domain id.
  std::set<Value> universe = instance.ActiveDomain();
  universe.insert(extra_constants.begin(), extra_constants.end());
  dict_ = std::make_shared<ValueDict>(
      std::make_shared<const ValueDict::SeedTier>(universe));
  for (const Value& v : extra_constants) {
    extra_ids_.push_back(*dict_->Find(v));
  }
  relations_.resize(static_cast<size_t>(schema_->size()));
  for (const auto& [name, tuples] : instance.relations()) {
    relations_[static_cast<size_t>(schema_->Find(name))] =
        EncodeRelation(tuples, dict_.get());
  }
  CountDomain();
}

Result<std::shared_ptr<const TupleTable>> EncodedInstance::TableOf(
    const Expr& leaf) const {
  const Relation* rel = Find(schema_->IdOf(leaf));
  const int arity = leaf.arity();
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

void EncodedInstance::CountDomain() {
  occurrences_.assign(dict_->size(), 0);
  bool crossed = false;
  for (const Relation& rel : relations_) {
    if (rel.table != nullptr) {
      for (ValueId id : rel.table->Data()) ++occurrences_[id];
    } else if (rel.ragged != nullptr) {
      Count(rel, 1, &crossed);
    }
  }
  for (ValueId id : extra_ids_) ++occurrences_[id];
  ListDomain();
}

void EncodedInstance::ListDomain() {
  domain_ids_.clear();
  for (size_t id = 0; id < occurrences_.size(); ++id) {
    if (occurrences_[id] > 0) domain_ids_.push_back(static_cast<ValueId>(id));
  }
}

void EncodedInstance::Put(int id, Relation rel) {
  bool crossed = false;
  Relation& slot = relations_[static_cast<size_t>(id)];
  if (slot.present()) Count(slot, -1, &crossed);
  Count(rel, 1, &crossed);
  slot = std::move(rel);
  if (crossed) ListDomain();
}

bool EncodedInstance::Assign(int id, std::shared_ptr<const TupleTable> table) {
  const Relation* cur = Find(id);
  if (cur == nullptr ? table->empty()
                     : cur->table != nullptr && SameRows(*cur->table, *table)) {
    return false;
  }
  Put(id, Relation{std::move(table), nullptr});
  return true;
}

bool EncodedInstance::Grow(int id, std::shared_ptr<const TupleTable> table) {
  if (table->empty()) return false;
  const Relation* cur = Find(id);
  if (cur == nullptr || (cur->table != nullptr && cur->table->empty())) {
    Put(id, Relation{std::move(table), nullptr});
    return true;
  }
  if (cur->table != nullptr && cur->table->arity() == table->arity()) {
    TupleTable merged = TupleTable::UnionOf(*cur->table, *table);
    if (merged.size() == cur->table->size()) return false;
    Put(id, Relation{std::make_shared<const TupleTable>(std::move(merged)),
                     nullptr});
    return true;
  }
  // Tuples of another size: the relation is (or stays) ragged.
  std::set<Tuple> tuples = Decode(id);
  const size_t before = tuples.size();
  std::set<Tuple> added = table->ToSet(*dict_);
  tuples.insert(added.begin(), added.end());
  if (tuples.size() == before) return false;
  Put(id, Relation{nullptr,
                   std::make_shared<const std::set<Tuple>>(std::move(tuples))});
  return true;
}

std::set<Tuple> EncodedInstance::Decode(int id) const {
  const Relation* rel = Find(id);
  if (rel == nullptr) return {};
  if (rel->ragged != nullptr) return *rel->ragged;
  return rel->table->ToSet(*dict_);
}

Instance EncodedInstance::Decode() const {
  Instance out;
  for (int id = 0; id < schema_->size(); ++id) {
    if (Find(id) != nullptr) out.Set(schema_->name(id), Decode(id));
  }
  return out;
}

}  // namespace mapcomp
