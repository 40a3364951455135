#include "src/eval/instance.h"

#include <utility>

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
  }
  return *this;
}

Instance& Instance::operator=(Instance&& other) noexcept {
  if (this != &other) {
    relations_ = std::move(other.relations_);
    adom_valid_ = false;
    adom_cache_.clear();
  }
  return *this;
}

void Instance::Set(const std::string& name, std::set<Tuple> tuples) {
  adom_valid_ = false;
  relations_[name] = std::move(tuples);
}

void Instance::Add(const std::string& name, Tuple t) {
  adom_valid_ = false;
  relations_[name].insert(std::move(t));
}

void Instance::Clear(const std::string& name) {
  adom_valid_ = false;
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
