#ifndef MAPCOMP_CONSTRAINTS_SIGNATURE_H_
#define MAPCOMP_CONSTRAINTS_SIGNATURE_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/constraints/constraint.h"

namespace mapcomp {

namespace common {
class WireReader;
}  // namespace common

/// A signature (schema): a function from relation symbols to arities, with
/// optional key information per relation (key = list of 1-based attribute
/// positions). Relation insertion order is preserved — the composition
/// algorithm eliminates symbols "following the user-specified ordering"
/// (paper §3.1).
class Signature {
 public:
  Status AddRelation(const std::string& name, int arity);
  /// Adds or overwrites; aborts nothing, for simulator convenience.
  void AddOrReplaceRelation(const std::string& name, int arity);
  Status SetKey(const std::string& name, std::vector<int> key_positions);
  void RemoveRelation(const std::string& name);

  bool Contains(const std::string& name) const;
  /// Arity of `name`; 0 if absent.
  int ArityOf(const std::string& name) const;
  /// Key positions if a key was declared.
  std::optional<std::vector<int>> KeyOf(const std::string& name) const;

  /// Relation names in insertion order.
  const std::vector<std::string>& names() const { return order_; }
  int size() const { return static_cast<int>(order_.size()); }
  bool empty() const { return order_.empty(); }

  /// Union of two signatures; duplicate names must agree on arity
  /// (status error otherwise).
  static Result<Signature> Merge(const Signature& a, const Signature& b);

  /// True if the two signatures share no relation names.
  static bool Disjoint(const Signature& a, const Signature& b);

  std::string ToString() const;

  /// Appends the canonical bytes (src/common/wire_format.h): the relation
  /// count, then per relation its length-prefixed name, arity and optional
  /// key positions — the signature section of the wire format and of every
  /// request-side Fingerprint().
  void AppendTo(std::string* out) const;
  std::string Fingerprint() const;  ///< AppendTo's bytes
  /// Reads one AppendTo image; false on truncated or invalid bytes.
  static bool ReadFrom(common::WireReader* r, Signature* out);
  /// Steps over one AppendTo image without building it.
  static bool SkipOver(common::WireReader* r);

 private:
  std::vector<std::string> order_;
  std::map<std::string, int> arity_;
  std::map<std::string, std::vector<int>> keys_;
};

/// Expresses "positions `key` are a key of relation `name`" using the
/// paper's active-domain technique (Example 2). For each non-key position j,
/// emits
///
///   π_{j, r+j}(σ_{∧_{k∈key} #k=#(r+k)}(R × R)) ⊆ σ_{#1=#2}(D^2)
///
/// i.e. two tuples agreeing on the key agree on every other attribute.
ConstraintSet KeyConstraintsFor(const std::string& name, int arity,
                                const std::vector<int>& key);

}  // namespace mapcomp

#endif  // MAPCOMP_CONSTRAINTS_SIGNATURE_H_
