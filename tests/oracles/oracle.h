#ifndef MAPCOMP_TESTS_ORACLES_ORACLE_H_
#define MAPCOMP_TESTS_ORACLES_ORACLE_H_

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/eval/evaluator.h"
#include "src/eval/materialize.h"

namespace mapcomp {
namespace oracle {

// The columnar kernel's differential oracles, linked only by the tests and
// bench_eval. The nested-loop evaluator keeps tuples as value vectors in
// `std::set`, materializes products as full nested loops with the selection
// applied afterwards, and always enumerates `D^r` in full.
// `EvalResult::Fingerprint()` must be byte-identical to the kernel's; the
// kernel may *succeed* where the oracle exhausts `max_domain_tuples`, since
// constraint-driven `σ(D^r)` enumeration needs only the pruned space.
//
// The oracle runs on the calling thread whatever `options.jobs` says. Its
// stats follow the kernel's conventions (memo hits, memo-byte refcount
// dropping), with every product a nested one. User
// operators evaluate through the set-based reference bodies below, looked
// up by name; an operator without one is kUnsupported.

Result<std::vector<EvalResult>> EvaluateMany(const std::vector<ExprPtr>& roots,
                                             const Instance& instance,
                                             const EvalOptions& options = {});
Result<EvalResult> EvaluateFull(const ExprPtr& e, const Instance& instance,
                                const EvalOptions& options = {});
Result<bool> EvaluateContainment(const ExprPtr& lhs, const ExprPtr& rhs,
                                 bool equality, const Instance& instance,
                                 const EvalOptions& options = {},
                                 EvalStats* stats = nullptr);

/// A user operator's set-semantics reference body: the node and borrowed
/// child results in, the operator's output set out.
using SetOpBody = std::function<std::set<Tuple>(
    const Expr&, const std::vector<const std::set<Tuple>*>&)>;

/// The reference body of library operator `name` (lojoin, semijoin,
/// antijoin, tc), or null.
const SetOpBody* FindSetOp(const std::string& name);

/// The feed fixpoint's differential oracle: the naive loop that evaluates
/// every feed on every pass, with the production evaluator. The
/// change-driven `mapcomp::RunFeedFixpoint` must leave byte-identical
/// instances and return the same pass count; its stats count only the
/// evaluations it ran, so they are at most this loop's.
int RunFeedFixpoint(Instance* instance, const std::vector<RelationFeed>& feeds,
                    const EvalOptions& options, int max_iterations,
                    EvalStats* stats);

}  // namespace oracle
}  // namespace mapcomp

#endif  // MAPCOMP_TESTS_ORACLES_ORACLE_H_
