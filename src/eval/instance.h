#ifndef MAPCOMP_EVAL_INSTANCE_H_
#define MAPCOMP_EVAL_INSTANCE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/algebra/value.h"
#include "src/constraints/signature.h"

namespace mapcomp {

/// A database instance: relation name → finite set of tuples (paper §2).
/// `(A,B)` — the instance over σ1 ∪ σ2 formed from instances A and B — is
/// modeled by simply holding both signatures' relations in one Instance.
class Instance {
 public:
  Instance() = default;
  Instance(const Instance& other);
  Instance(Instance&& other) noexcept;
  Instance& operator=(const Instance& other);
  Instance& operator=(Instance&& other) noexcept;

  void Set(const std::string& name, std::set<Tuple> tuples);
  void Add(const std::string& name, Tuple t);
  void Clear(const std::string& name);

  /// Contents of relation `name` (empty set if absent).
  const std::set<Tuple>& Get(const std::string& name) const;

  bool Has(const std::string& name) const;

  /// Total tuple count across all relations (workload sizing, reports).
  int64_t TotalTuples() const;

  /// Set of values appearing anywhere in the instance (paper §2). Computed
  /// lazily and cached — Set/Add/Clear invalidate — so repeated evaluations
  /// against one instance (the checker runs one per constraint side) pay
  /// the full scan once. Safe under concurrent readers; the reference stays
  /// valid until the next mutation, and mutating an instance while another
  /// thread evaluates against it was never supported.
  const std::set<Value>& ActiveDomain() const;

  /// Merges `other` into a copy of this (union of relations; shared names
  /// take the union of their tuple sets).
  Instance MergedWith(const Instance& other) const;

  /// Keeps only the relations named in `sig` (the restriction used by the
  /// soundness half of constraint-set equivalence, paper §2).
  Instance RestrictedTo(const Signature& sig) const;

  bool operator==(const Instance& other) const {
    return relations_ == other.relations_;
  }

  std::string ToString() const;

 private:
  std::map<std::string, std::set<Tuple>> relations_;
  // Lazy ActiveDomain cache. The mutex makes concurrent first reads safe
  // (the 8-thread eval stress shares one instance); mutations only happen
  // single-threaded, before evaluations start.
  mutable std::mutex adom_mutex_;
  mutable bool adom_valid_ = false;
  mutable std::set<Value> adom_cache_;
};

}  // namespace mapcomp

#endif  // MAPCOMP_EVAL_INSTANCE_H_
