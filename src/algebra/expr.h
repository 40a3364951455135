#ifndef MAPCOMP_ALGEBRA_EXPR_H_
#define MAPCOMP_ALGEBRA_EXPR_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/algebra/condition.h"
#include "src/algebra/value.h"
#include "src/common/status.h"

namespace mapcomp {

/// Node kinds of a relational expression (paper §2). The six basic operators
/// are union, intersection, cross product, set difference, selection and
/// projection; join is derived. `D` (active domain) and the empty relation
/// are the two special relations of §2. The Skolem operator is the internal
/// technical device of §3.5. User-defined operators are dispatched through
/// the operator registry.
enum class ExprKind {
  kRelation,    ///< base relation symbol S
  kDomain,      ///< D^r — r-fold product of the active domain
  kEmpty,       ///< the empty relation of a given arity
  kLiteral,     ///< explicit constant relation, e.g. {c} in primitive Df
  kUnion,       ///< E1 ∪ E2
  kIntersect,   ///< E1 ∩ E2
  kProduct,     ///< E1 × E2
  kDifference,  ///< E1 − E2
  kSelect,      ///< σ_c(E)
  kProject,     ///< π_I(E)
  kSkolem,      ///< f_I(E) — appends one column computed by Skolem function f
  kUserOp,      ///< registry-defined operator
};

class Expr;
class ExprInterner;
/// Expressions are immutable and shared; rewrites build new nodes.
/// `Expr::Make` hash-conses through a process-wide interner, so two
/// structurally equal expressions are always the same object and pointer
/// equality of ExprPtr coincides with structural equality.
using ExprPtr = std::shared_ptr<const Expr>;

/// An immutable, interned relational-algebra expression node. Construct via
/// the builder functions in `src/algebra/builders.h`, which validate arities
/// and abort with a diagnostic on programmer error (the parser performs its
/// own checked validation before building).
class Expr {
 public:
  ExprKind kind() const { return kind_; }
  /// Relation name, Skolem function name, or user-op name.
  const std::string& name() const { return name_; }
  const std::vector<ExprPtr>& children() const { return children_; }
  const ExprPtr& child(int i) const { return children_[i]; }
  /// Selection condition; also carries a user-op's condition parameter.
  const Condition& condition() const { return condition_; }
  /// Projection output list (1-based), or Skolem argument indexes, or a
  /// user-op's index parameter.
  const std::vector<int>& indexes() const { return indexes_; }
  /// Number of output attributes. Computed at construction.
  int arity() const { return arity_; }
  /// Tuples of a kLiteral node.
  const std::vector<Tuple>& tuples() const { return tuples_; }

  // --- Analyses memoized at interning time (all O(1)). ---

  /// Structural hash, consistent with structural equality.
  size_t hash() const { return hash_; }
  /// Total operator count of the *tree* reading of this node (leaves count
  /// 1 each) — the paper's mapping-size metric. Stored wide because interned
  /// DAGs can denote trees far larger than physical node count.
  int64_t op_count() const { return op_count_; }
  /// Longest root-to-leaf path, counted in nodes (a leaf is 1). The
  /// algebra's passes walk on an explicit stack (dag_walk.h) and take any
  /// depth; the passes that still recurse (evaluation, compose's normalize
  /// and eliminate, the logic translation) nest this deep, which is why the
  /// parser refuses inputs past its bound by reading it.
  int depth() const { return depth_; }
  /// True iff a Skolem operator occurs in the subtree.
  bool contains_skolem() const { return contains_skolem_; }
  /// True iff the active-domain relation D occurs in the subtree.
  bool contains_domain() const { return contains_domain_; }
  /// Bloom-style 64-bit mask of the base-relation names occurring in the
  /// subtree: a clear bit proves absence; a set bit means "maybe present".
  uint64_t relation_mask() const { return relation_mask_; }
  /// The mask bit used for `name`.
  static uint64_t NameBit(const std::string& name);

  // --- Factory used by builders.h (validates nothing; builders do). ---
  // Canonicalizes through the process-wide ExprInterner: returns the
  // existing node when a structurally equal one is alive.
  static ExprPtr Make(ExprKind kind, std::string name,
                      std::vector<ExprPtr> children, Condition condition,
                      std::vector<int> indexes, int arity,
                      std::vector<Tuple> tuples);

 private:
  friend class ExprInterner;

  Expr() = default;

  ExprKind kind_ = ExprKind::kRelation;
  std::string name_;
  std::vector<ExprPtr> children_;
  Condition condition_;
  std::vector<int> indexes_;
  int arity_ = 0;
  std::vector<Tuple> tuples_;

  // Memoized analyses, filled in by the interner before publication.
  size_t hash_ = 0;
  int64_t op_count_ = 1;
  int depth_ = 1;
  bool contains_skolem_ = false;
  bool contains_domain_ = false;
  uint64_t relation_mask_ = 0;
};

/// Structural equality. Interning canonicalizes structurally equal nodes to
/// one object, so this is a pointer comparison.
bool ExprEquals(const ExprPtr& a, const ExprPtr& b);

/// Structural hash consistent with ExprEquals. O(1) — cached at interning.
size_t ExprHash(const ExprPtr& e);

/// Total number of operator nodes (the paper's mapping-size metric counts
/// "the total number of operators across all constraints"). Leaf relations,
/// D, ∅ and literals count 1 each. O(1) — cached at interning; saturates at
/// INT_MAX for trees beyond int range.
int OperatorCount(const ExprPtr& e);

/// True if the relation symbol `name` occurs anywhere in `e`. The cached
/// name mask rejects most non-occurrences in O(1).
bool ContainsRelation(const ExprPtr& e, const std::string& name);

/// Inserts every base-relation name occurring in `e` into `out`.
void CollectRelations(const ExprPtr& e, std::set<std::string>* out);

/// True if any Skolem operator occurs in `e`. O(1) — cached at interning.
bool ContainsSkolem(const ExprPtr& e);

/// True if the active-domain relation D occurs in `e`. O(1) — cached.
bool ContainsDomain(const ExprPtr& e);

/// Checks internal consistency: child arities compatible with the operator,
/// projection/Skolem indexes within range, selection conditions within
/// arity, literal tuples uniform.
Status ValidateExpr(const ExprPtr& e);

}  // namespace mapcomp

#endif  // MAPCOMP_ALGEBRA_EXPR_H_
