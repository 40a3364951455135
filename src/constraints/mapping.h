#ifndef MAPCOMP_CONSTRAINTS_MAPPING_H_
#define MAPCOMP_CONSTRAINTS_MAPPING_H_

#include <string>
#include <vector>

#include "src/constraints/constraint.h"
#include "src/constraints/signature.h"

namespace mapcomp {

/// A mapping given by (σ_in, σ_out, Σ): the binary relation on instances
/// {<A,B> : (A,B) ⊨ Σ} (paper §2). The two signatures must be disjoint.
struct Mapping {
  Signature input;
  Signature output;
  ConstraintSet constraints;

  std::string ToString() const;

  /// Validates: disjoint signatures, constraint expressions well formed,
  /// every relation mentioned is declared with matching arity.
  Status Validate() const;

  /// Canonical bytes of everything composition reads from one chain step:
  /// the input and output Signature::AppendTo images, then the
  /// length-prefixed constraint text. Two mappings with equal fingerprints
  /// behave identically as a link of a composition chain (ChainComposer
  /// keys its prefix cache by an equivalent, hash-folded per-link digest).
  /// Same parser-shaped-name caveat as CompositionProblem::Fingerprint().
  std::string Fingerprint() const;
};

/// A composition task: given m12 = (σ1,σ2,Σ12) and m23 = (σ2,σ3,Σ23), find
/// Σ13 over σ1 ∪ σ3 with Σ12 ∪ Σ23 ≡ Σ13 (paper §2). `elimination_order`
/// optionally overrides the σ2 insertion order used by COMPOSE.
struct CompositionProblem {
  std::string name;
  Signature sigma1, sigma2, sigma3;
  ConstraintSet sigma12, sigma23;
  std::vector<std::string> elimination_order;

  Status Validate() const;

  /// Appends the problem section of the wire format: everything Compose()
  /// reads — the three signatures (Signature::AppendTo), both constraint
  /// sets as length-prefixed parser text, and the elimination order — but
  /// not `name`, which is display-only. Two problems with equal bytes are
  /// composed identically under equal options. The constraint text is
  /// unambiguous for parser-shaped relation names; programmatic callers
  /// inventing names that contain expression syntax must key their own
  /// caches.
  void AppendTo(std::string* out) const;
  /// AppendTo's bytes; ComposeService keys its cache on them.
  std::string Fingerprint() const;
};

}  // namespace mapcomp

#endif  // MAPCOMP_CONSTRAINTS_MAPPING_H_
