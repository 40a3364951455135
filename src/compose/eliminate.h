#ifndef MAPCOMP_COMPOSE_ELIMINATE_H_
#define MAPCOMP_COMPOSE_ELIMINATE_H_

#include <string>

#include "src/common/cancel.h"
#include "src/constraints/constraint.h"
#include "src/constraints/signature.h"
#include "src/op/registry.h"

namespace mapcomp {

/// Which ELIMINATE step succeeded for a symbol.
enum class EliminateStep {
  kNone,          ///< elimination failed
  kNotMentioned,  ///< symbol did not occur in the constraints
  kUnfold,        ///< view unfolding (§3.2)
  kLeftCompose,   ///< left compose (§3.4)
  kRightCompose,  ///< right compose (§3.5)
};

const char* EliminateStepName(EliminateStep step);

/// Options for ELIMINATE. The enable_* switches implement the paper's
/// experiment configurations ('no unfolding', 'no right compose',
/// 'no left compose').
struct EliminateOptions {
  bool enable_unfold = true;
  bool enable_left_compose = true;
  bool enable_right_compose = true;
  /// Key information used to minimize Skolem function arguments (§3.5.1).
  const Signature* keys = nullptr;
  const op::Registry* registry = &op::Registry::Default();
  /// Abort when the working constraint set exceeds this multiple of the
  /// input size (operator count); the paper aborts at 100 (§4).
  int max_blowup_factor = 100;
  /// When > 0, the blowup guard measures growth against this operator
  /// count instead of the input set's own size. COMPOSE passes the full
  /// Σ's size here, so a symbol's budget does not shrink merely because it
  /// was handed only the constraints that mention it.
  int blowup_baseline_ops = 0;
  /// Polled between steps (unfold → left → right). When it fires the
  /// remaining steps are skipped and the outcome reports `interrupted`:
  /// not a real elimination failure, so the driver must not record it as
  /// futile. The compose driver copies its own token here.
  common::CancelToken cancel;
};

/// Outcome of eliminating one symbol.
struct EliminateOutcome {
  bool success = false;
  EliminateStep step = EliminateStep::kNone;
  ConstraintSet constraints;  ///< new set on success; the input on failure
  std::string failure_reason; ///< set when !success
  /// True when at least one step failed only by exceeding the blowup
  /// budget. Unlike every other failure mode — which depends solely on the
  /// constraints mentioning the symbol — a blowup abort depends on the
  /// baseline size, so COMPOSE retries such a failure once Σ's operator
  /// count changes, even if the symbol's constraints did not.
  bool blowup_limited = false;
  /// True when options.cancel fired before or between steps: the symbol
  /// was never fully attempted. The constraints are the untouched input.
  bool interrupted = false;
};

/// The ELIMINATE procedure (§3.1): tries view unfolding, then left compose,
/// then right compose, to produce an equivalent constraint set without
/// `symbol`. Never partially applies a step: each either fully succeeds or
/// leaves the constraints untouched.
EliminateOutcome Eliminate(const ConstraintSet& cs, const std::string& symbol,
                           int arity, const EliminateOptions& options = {});

}  // namespace mapcomp

#endif  // MAPCOMP_COMPOSE_ELIMINATE_H_
