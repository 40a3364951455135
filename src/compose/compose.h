#ifndef MAPCOMP_COMPOSE_COMPOSE_H_
#define MAPCOMP_COMPOSE_COMPOSE_H_

#include <string>
#include <vector>

#include "src/common/cancel.h"
#include "src/compose/eliminate.h"
#include "src/constraints/mapping.h"

namespace mapcomp {

/// Options for the COMPOSE driver.
struct ComposeOptions {
  EliminateOptions eliminate;
  /// Elimination order for σ2 symbols; empty = the signature's insertion
  /// order (the paper follows "the user-specified ordering", §3.1).
  std::vector<std::string> order;
  /// Run the final constraint-set simplification pass.
  bool simplify_output = true;
  /// Maximum elimination rounds. Round 1 is the paper's single best-effort
  /// pass; later rounds retry only the symbols that failed, because a later
  /// elimination can shrink Σ enough (fewer occurrences, no more
  /// both-sides conflicts) for an earlier failure to succeed. The loop
  /// stops early as soon as a round eliminates nothing, so raising this is
  /// cheap on inputs where one pass already suffices. Must be >= 1.
  int max_rounds = 4;
  /// Cooperative cancellation/deadline token, polled at round boundaries
  /// and before each symbol's elimination (and inside ELIMINATE between
  /// steps). When it fires, the driver stops attempting, keeps every
  /// un-attempted symbol as a residual, and reports via
  /// CompositionResult::interrupt — the partial composition is still a
  /// valid best-effort answer (§3.1).
  /// Excluded from Fingerprint(): a run that completes without the token
  /// firing is byte-identical to an unbounded run.
  common::CancelToken cancel;

  /// Appends the options section of the wire format: the eliminate
  /// switches and blowup budget, a preset `eliminate.keys` by content, the
  /// order, and the simplify/rounds knobs.
  void AppendWireFieldsTo(std::string* out) const;
  /// Appends the key form of every option that can change a
  /// CompositionResult: the wire fields, then the two that never cross the
  /// wire — the registry by its never-reused `op::Registry::uid()` and
  /// `eliminate.blowup_baseline_ops`. `cancel` is excluded by design (a
  /// fired token yields an interrupted result, which is never cached).
  void AppendTo(std::string* out) const;
  /// AppendTo's bytes: the head of ComposeService's cache key and of
  /// ChainComposer's prefix keys.
  std::string Fingerprint() const;
};

/// Per-attempt elimination record. A symbol that fails in one round and is
/// retried later has one entry per attempt, distinguished by `round`.
struct SymbolStat {
  std::string symbol;
  int round = 1;
  bool eliminated = false;
  EliminateStep step = EliminateStep::kNone;
  std::string failure_reason;
  double millis = 0.0;
  int size_before = 0;  ///< operator count before this symbol's elimination
  int size_after = 0;
};

/// Aggregate of one elimination round.
struct RoundStat {
  int round = 1;
  int attempted = 0;   ///< symbols tried in this round
  int eliminated = 0;  ///< of those, how many succeeded
  double millis = 0.0;
};

/// Result of composing two mappings. Best-effort (§3.1): `residual_sigma2`
/// lists the σ2 symbols that could not be eliminated; `constraints` is over
/// σ1 ∪ residual σ2 ∪ σ3 and is equivalent to Σ12 ∪ Σ23.
struct CompositionResult {
  Signature sigma;  ///< σ1 ∪ residual σ2 ∪ σ3
  std::vector<std::string> residual_sigma2;
  ConstraintSet constraints;
  std::vector<SymbolStat> stats;
  std::vector<RoundStat> rounds;
  /// Non-fatal problems hit while assembling the result (e.g. residual key
  /// metadata inconsistent with the residual relation's arity, or a σ3
  /// signature merge conflict). Empty on a clean composition.
  std::vector<std::string> warnings;
  /// OK for a run that ran to completion (possibly with residuals);
  /// kDeadlineExceeded / kCancelled when options.cancel fired and the
  /// driver stopped early. An interrupted result is still well-formed —
  /// every un-attempted symbol is a residual and `constraints` is
  /// equivalent to Σ12 ∪ Σ23 over the enlarged signature — but it is a
  /// partial answer by interruption, not by elimination failure, so
  /// callers (and the service cache) must not treat it as canonical.
  Status interrupt;
  int eliminated_count = 0;  ///< distinct σ2 symbols eliminated
  int total_count = 0;       ///< distinct σ2 symbols attempted
  double total_millis = 0.0;

  double EliminatedFraction() const {
    return total_count == 0
               ? 1.0
               : static_cast<double>(eliminated_count) / total_count;
  }
  std::string Report() const;

  /// Canonical serialization of everything deterministic in the result:
  /// signature, residuals, constraints, per-attempt and per-round stats
  /// (in order), warnings and counters — but no wall-clock timings. Two
  /// compositions of the same problem with the same options produce equal
  /// fingerprints regardless of thread count or machine load; the
  /// ComposeMany determinism tests and the parallel benchmark compare these.
  std::string Fingerprint() const;
};

/// Procedure COMPOSE (§3.1) as a multi-round fixpoint. Each round walks
/// the pending σ2 symbols in the user-specified order and hands ELIMINATE
/// only the constraints that mention the symbol, with the blowup budget
/// measured against the full Σ. A success splices the result into Σ: the
/// constraints outside the group keep their positions and the rewritten
/// group is appended. A failed symbol is retried in a later round (up to
/// options.max_rounds) only when the constraints that mention it changed,
/// or its failure was blowup-limited and Σ's operator count changed;
/// whatever still cannot be eliminated is kept. Key information from all
/// three schemas feeds Skolem-argument minimization automatically unless
/// options.eliminate.keys is preset.
CompositionResult Compose(const CompositionProblem& problem,
                          const ComposeOptions& options = {});

}  // namespace mapcomp

#endif  // MAPCOMP_COMPOSE_COMPOSE_H_
