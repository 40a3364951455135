#include "src/eval/instance.h"

#include <utility>

namespace mapcomp {

void Instance::Set(const std::string& name, std::set<Tuple> tuples) {
  relations_[name] = std::move(tuples);
}

void Instance::Add(const std::string& name, Tuple t) {
  relations_[name].insert(std::move(t));
}

void Instance::Clear(const std::string& name) {
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

std::set<Value> Instance::ActiveDomain() const {
  std::set<Value> out;
  for (const auto& [_, tuples] : relations_) {
    for (const Tuple& t : tuples) out.insert(t.begin(), t.end());
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
