#ifndef MAPCOMP_EVAL_INSTANCE_H_
#define MAPCOMP_EVAL_INSTANCE_H_

#include <map>
#include <set>
#include <string>

#include "src/algebra/value.h"
#include "src/constraints/signature.h"

namespace mapcomp {

/// A database instance: relation name → finite set of tuples (paper §2).
/// `(A,B)` — the instance over σ1 ∪ σ2 formed from instances A and B — is
/// modeled by simply holding both signatures' relations in one Instance.
/// A plain value: copies are independent, and nothing is cached.
class Instance {
 public:
  void Set(const std::string& name, std::set<Tuple> tuples);
  void Add(const std::string& name, Tuple t);
  void Clear(const std::string& name);

  /// Contents of relation `name` (empty set if absent).
  const std::set<Tuple>& Get(const std::string& name) const;

  bool Has(const std::string& name) const;

  /// Every relation, by name.
  const std::map<std::string, std::set<Tuple>>& relations() const {
    return relations_;
  }

  /// Set of values appearing anywhere in the instance (paper §2), computed
  /// by a scan of every tuple on each call.
  std::set<Value> ActiveDomain() const;

  /// Keeps only the relations named in `sig` (the restriction used by the
  /// soundness half of constraint-set equivalence, paper §2).
  Instance RestrictedTo(const Signature& sig) const;

  bool operator==(const Instance& other) const {
    return relations_ == other.relations_;
  }

  std::string ToString() const;

 private:
  std::map<std::string, std::set<Tuple>> relations_;
};

}  // namespace mapcomp

#endif  // MAPCOMP_EVAL_INSTANCE_H_
