#include "src/eval/generator.h"

#include <memory>

#include "src/common/rand.h"
#include "src/eval/tuple_table.h"

namespace mapcomp {

namespace {

const char* const kStrings[] = {"a", "b", "c"};

void FillRandom(const Signature& sig, std::mt19937_64* rng,
                const GenOptions& options, Instance* out) {
  // Draws go through the shared rnd::UniformIndex helper (same underlying
  // distribution, so generated instances are unchanged for a given seed).
  for (const std::string& name : sig.names()) {
    int r = sig.ArityOf(name);
    int n = rnd::UniformIndex(rng, options.max_tuples_per_rel + 1);
    std::set<Tuple> tuples;
    for (int i = 0; i < n; ++i) {
      Tuple t;
      t.reserve(r);
      for (int j = 0; j < r; ++j) {
        if (options.include_strings && rnd::UniformIndex(rng, 4) == 0) {
          t.emplace_back(std::in_place_type<std::string>,
                         kStrings[rnd::UniformIndex(rng, 3)]);
        } else {
          t.emplace_back(std::in_place_type<int64_t>,
                         rnd::UniformIndex(rng, options.domain_size));
        }
      }
      tuples.insert(std::move(t));
    }
    out->Set(name, std::move(tuples));
  }
}

}  // namespace

Instance RandomInstance(const Signature& sig, std::mt19937_64* rng,
                        const GenOptions& options) {
  Instance out;
  FillRandom(sig, rng, options, &out);
  return out;
}

Instance RandomInstanceOver(const std::vector<const Signature*>& sigs,
                            std::mt19937_64* rng, const GenOptions& options) {
  Instance out;
  for (const Signature* sig : sigs) {
    if (sig != nullptr) FillRandom(*sig, rng, options, &out);
  }
  return out;
}

InstanceGenerator::InstanceGenerator(const std::vector<const Signature*>& sigs,
                                     const GenOptions& options,
                                     const std::set<Value>& extra_constants,
                                     const std::vector<ExprPtr>& roots)
    : options_(options), empty_(std::make_shared<const TupleTable>(0)) {
  std::vector<std::string> names;
  for (const Signature* sig : sigs) {
    if (sig != nullptr) {
      names.insert(names.end(), sig->names().begin(), sig->names().end());
    }
  }
  schema_ = std::make_shared<const RelationSchema>(names, roots);
  for (const Signature* sig : sigs) {
    if (sig == nullptr) continue;
    for (const std::string& name : sig->names()) {
      relations_.emplace_back(schema_->Find(name), sig->ArityOf(name));
    }
  }
  // The alphabet in index order is ascending (every integer sorts before
  // every string), and the seed is sorted too, so one merge walk finds
  // each alphabet value's id; the extra constants are a sorted subset of
  // the seed, so a second one finds theirs.
  std::vector<Value> alphabet;
  for (int k = 0; k < options_.domain_size; ++k) {
    alphabet.emplace_back(std::in_place_type<int64_t>, k);
  }
  if (options_.include_strings) {
    for (const char* s : kStrings) {
      alphabet.emplace_back(std::in_place_type<std::string>, s);
    }
  }
  std::set<Value> seed = extra_constants;
  seed.insert(alphabet.begin(), alphabet.end());
  alphabet_ids_.reserve(alphabet.size());
  extra_ids_.reserve(extra_constants.size());
  auto extra = extra_constants.begin();
  ValueId id = 0;
  for (const Value& v : seed) {
    if (alphabet_ids_.size() < alphabet.size() &&
        v == alphabet[alphabet_ids_.size()]) {
      alphabet_ids_.push_back(id);
    }
    if (extra != extra_constants.end() && v == *extra) {
      extra_ids_.push_back(id);
      ++extra;
    }
    ++id;
  }
  seed_ = std::make_shared<const ValueDict::SeedTier>(seed);
}

InstanceDraw InstanceGenerator::Draw(std::mt19937_64* rng) const {
  // RandomInstanceOver's loop: a tuple count per relation, then each
  // tuple's values in order, a string coin first under include_strings.
  InstanceDraw draw;
  draw.rows.reserve(relations_.size());
  for (const auto& [_, arity] : relations_) {
    const int n = rnd::UniformIndex(rng, options_.max_tuples_per_rel + 1);
    draw.rows.push_back(n);
    for (int c = 0; c < n * arity; ++c) {
      if (options_.include_strings && rnd::UniformIndex(rng, 4) == 0) {
        draw.cells.push_back(static_cast<uint32_t>(
            options_.domain_size + rnd::UniformIndex(rng, 3)));
      } else {
        draw.cells.push_back(static_cast<uint32_t>(
            rnd::UniformIndex(rng, options_.domain_size)));
      }
    }
  }
  return draw;
}

EncodedInstance InstanceGenerator::Encode(const InstanceDraw& draw) const {
  auto dict = std::make_shared<ValueDict>(seed_);
  std::vector<EncodedInstance::Relation> relations(
      static_cast<size_t>(schema_->size()));
  const uint32_t* cell = draw.cells.data();
  for (size_t r = 0; r < relations_.size(); ++r) {
    const auto& [id, arity] = relations_[r];
    const int n = draw.rows[r];
    EncodedInstance::Relation& rel = relations[static_cast<size_t>(id)];
    if (n == 0) {
      rel = EncodedInstance::Relation{empty_, nullptr};
      continue;
    }
    TupleTable table(arity);
    if (arity == 0) table.AppendRow(nullptr);
    if (arity > 0) {
      std::vector<ValueId>& data = table.MutableData();
      data.reserve(static_cast<size_t>(n) * arity);
      for (int c = 0; c < n * arity; ++c) {
        data.push_back(alphabet_ids_[*cell++]);
      }
      table.FinishAppends();
      table.SortDedupRows();
    }
    rel = EncodedInstance::Relation{
        std::make_shared<const TupleTable>(std::move(table)), nullptr};
  }
  return EncodedInstance(std::move(dict), schema_, std::move(relations),
                         extra_ids_);
}

}  // namespace mapcomp
