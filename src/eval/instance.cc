#include "src/eval/instance.h"

#include <algorithm>
#include <numeric>

namespace mapcomp {

// The mutex member makes the special members non-defaultable. The cache
// deliberately does NOT travel with copies/moves: copying only reads
// relations_ (so it cannot race a concurrent first ActiveDomain() on the
// source, which mutates the cache fields under the mutex), and callers
// that copy-then-mutate directly — MergedWith, RestrictedTo — can never
// inherit a stale warm cache.
Instance::Instance(const Instance& other) : relations_(other.relations_) {}

Instance::Instance(Instance&& other) noexcept
    : relations_(std::move(other.relations_)) {}

Instance& Instance::operator=(const Instance& other) {
  if (this != &other) {
    relations_ = other.relations_;
    adom_valid_ = false;
    adom_cache_.clear();
    jix_cache_.clear();
  }
  return *this;
}

Instance& Instance::operator=(Instance&& other) noexcept {
  if (this != &other) {
    relations_ = std::move(other.relations_);
    adom_valid_ = false;
    adom_cache_.clear();
    jix_cache_.clear();
  }
  return *this;
}

void Instance::Set(const std::string& name, std::set<Tuple> tuples) {
  adom_valid_ = false;
  jix_cache_.clear();
  relations_[name] = std::move(tuples);
}

void Instance::Add(const std::string& name, Tuple t) {
  adom_valid_ = false;
  jix_cache_.clear();
  relations_[name].insert(std::move(t));
}

void Instance::Clear(const std::string& name) {
  adom_valid_ = false;
  jix_cache_.clear();
  relations_.erase(name);
}

const std::set<Tuple>& Instance::Get(const std::string& name) const {
  static const std::set<Tuple>* kEmpty = new std::set<Tuple>();
  auto it = relations_.find(name);
  return it == relations_.end() ? *kEmpty : it->second;
}

bool Instance::Has(const std::string& name) const {
  return relations_.count(name) > 0;
}

int64_t Instance::TotalTuples() const {
  int64_t out = 0;
  for (const auto& [_, tuples] : relations_) {
    out += static_cast<int64_t>(tuples.size());
  }
  return out;
}

const std::set<Value>& Instance::ActiveDomain() const {
  std::lock_guard<std::mutex> lock(adom_mutex_);
  if (!adom_valid_) {
    adom_cache_.clear();
    for (const auto& [_, tuples] : relations_) {
      for (const Tuple& t : tuples) {
        for (const Value& v : t) adom_cache_.insert(v);
      }
    }
    adom_valid_ = true;
  }
  return adom_cache_;
}

std::shared_ptr<const std::vector<int64_t>> Instance::JoinIndex(
    const std::string& name, const std::vector<int>& cols, bool* hit) const {
  std::lock_guard<std::mutex> lock(jix_mutex_);
  for (const JoinIndexEntry& e : jix_cache_) {
    if (e.relation == name && e.cols == cols) {
      if (hit != nullptr) *hit = true;
      return e.perm;
    }
  }
  if (hit != nullptr) *hit = false;
  const std::set<Tuple>& rel = Get(name);
  std::vector<const Tuple*> rows;
  rows.reserve(rel.size());
  for (const Tuple& t : rel) rows.push_back(&t);
  auto perm = std::make_shared<std::vector<int64_t>>(rows.size());
  std::iota(perm->begin(), perm->end(), int64_t{0});
  std::sort(perm->begin(), perm->end(), [&rows, &cols](int64_t a, int64_t b) {
    const Tuple& ta = *rows[static_cast<size_t>(a)];
    const Tuple& tb = *rows[static_cast<size_t>(b)];
    for (int c : cols) {
      // A ragged row missing the column sorts first; the evaluator rejects
      // ragged relations before any join runs, so this only keeps the sort
      // comparator total on malformed input.
      const bool ha = c >= 0 && static_cast<size_t>(c) < ta.size();
      const bool hb = c >= 0 && static_cast<size_t>(c) < tb.size();
      if (ha != hb) return !ha;
      if (!ha) continue;
      int cmp = CompareValues(ta[static_cast<size_t>(c)],
                              tb[static_cast<size_t>(c)]);
      if (cmp != 0) return cmp < 0;
    }
    return a < b;
  });
  jix_cache_.push_back(JoinIndexEntry{name, cols, perm});
  return perm;
}

Instance Instance::MergedWith(const Instance& other) const {
  Instance out = *this;
  for (const auto& [name, tuples] : other.relations_) {
    out.relations_[name].insert(tuples.begin(), tuples.end());
  }
  return out;
}

Instance Instance::RestrictedTo(const Signature& sig) const {
  Instance out;
  for (const auto& [name, tuples] : relations_) {
    if (sig.Contains(name)) out.relations_[name] = tuples;
  }
  return out;
}

std::string Instance::ToString() const {
  std::string out;
  for (const auto& [name, tuples] : relations_) {
    out += name + " = {";
    bool first = true;
    for (const Tuple& t : tuples) {
      if (!first) out += ",";
      first = false;
      out += TupleToString(t);
    }
    out += "}\n";
  }
  return out;
}

}  // namespace mapcomp
