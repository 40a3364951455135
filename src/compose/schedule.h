#ifndef MAPCOMP_COMPOSE_SCHEDULE_H_
#define MAPCOMP_COMPOSE_SCHEDULE_H_

#include <string>
#include <vector>

#include "src/common/cancel.h"
#include "src/constraints/constraint.h"

namespace mapcomp {

/// Conflict-graph planning for wave elimination. Two σ2 symbols are
/// independent within one elimination round exactly when their occurrence
/// sets — the constraints of Σ that mention them — are disjoint: ELIMINATE
/// only rewrites constraints mentioning its symbol, so disjoint symbols
/// read and write disjoint parts of Σ and can be eliminated against the
/// same snapshot, each from its own small group rather than the full Σ,
/// and merged in a fixed order with a deterministic outcome.
///
/// Occurrence tests run in two tiers: each constraint's interned Bloom
/// relation-name mask rejects most non-occurrences in O(1) (a clear bit
/// *proves* absence), and surviving candidates are confirmed by an exact
/// walk unless `exact` is false. Bloom-only planning can therefore report
/// spurious occurrences — which only ever *adds* conflict edges, merging
/// waves that exact planning would split: false positives over-serialize,
/// they can never co-schedule two truly conflicting symbols.

/// For each symbol, the (sorted) indices of the constraints in `sigma` that
/// mention it. With `exact` false, Bloom-mask candidates are kept
/// unconfirmed (a superset of the true occurrence set).
///
/// `cancel`, when non-null, is polled between constraint rows so a fired
/// deadline stops the exact walks promptly. The returned sets are then
/// truncated and must not be used for planning or partitioning — the
/// caller is expected to re-check the token immediately and abort the
/// round, which is exactly what the COMPOSE driver does.
std::vector<std::vector<int>> OccurrenceSets(
    const ConstraintSet& sigma, const std::vector<std::string>& symbols,
    bool exact = true, const common::CancelToken* cancel = nullptr);

/// Greedy first-fit wave: walks `symbols` in order and returns the indices
/// (into `symbols`) of every symbol whose occurrence set is disjoint from
/// all occurrence sets already claimed by the wave. The first symbol always
/// enters, so the wave is non-empty whenever `symbols` is. Symbols with
/// empty occurrence sets conflict with nothing and always join.
std::vector<int> PlanWave(const ConstraintSet& sigma,
                          const std::vector<std::string>& symbols,
                          bool exact = true);

/// PlanWave over occurrence sets the caller already computed (the COMPOSE
/// driver reuses one OccurrenceSets pass for planning and partitioning).
/// `num_constraints` bounds the indices appearing in `occ`.
std::vector<int> PlanWaveFromOccurrences(
    const std::vector<std::vector<int>>& occ, size_t num_constraints);

/// Repeats PlanWave on the not-yet-scheduled remainder until every symbol
/// is placed, always against the same `sigma`. This is the static picture
/// of the conflict graph (a greedy coloring); the COMPOSE driver re-plans
/// each wave against the *current* Σ instead, because eliminations change
/// the occurrence structure. Waves partition [0, symbols.size()).
std::vector<std::vector<int>> PlanAllWaves(
    const ConstraintSet& sigma, const std::vector<std::string>& symbols,
    bool exact = true);

}  // namespace mapcomp

#endif  // MAPCOMP_COMPOSE_SCHEDULE_H_
