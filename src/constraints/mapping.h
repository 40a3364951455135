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

  /// Inverse mapping: swaps the roles of input and output (the constraints
  /// are symmetric in the paper's semantics, so they carry over verbatim).
  Mapping Inverse() const { return Mapping{output, input, constraints}; }

  std::string ToString() const;

  /// Validates: disjoint signatures, constraint expressions well formed,
  /// every relation mentioned is declared with matching arity.
  Status Validate() const;

  /// Canonical serialization of everything composition reads from one chain
  /// step: both signatures (with keys, length-prefixed names) and the
  /// constraint set. Two mappings with equal fingerprints behave
  /// identically as a link of a composition chain (ChainComposer keys its
  /// prefix cache by an equivalent — but cheaper, hash-folded — per-link
  /// digest). Same parser-shaped-name caveat as
  /// CompositionProblem::Fingerprint().
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

  /// Canonical serialization of everything Compose() reads: the three
  /// signatures (with keys), both constraint sets, and the elimination
  /// order — but not `name`, which is display-only. Two problems with
  /// equal fingerprints are composed identically under equal options
  /// (ComposeService keys on the wire encoding instead). Signature names and
  /// the order list are length-prefixed (collision-proof for arbitrary
  /// names); the constraint sets are rendered in the parser's text syntax,
  /// which is unambiguous for parser-shaped relation names — programmatic
  /// callers inventing names that contain expression syntax must key their
  /// own caches.
  std::string Fingerprint() const;
};

}  // namespace mapcomp

#endif  // MAPCOMP_CONSTRAINTS_MAPPING_H_
