#ifndef MAPCOMP_OP_EXTRA_OPS_H_
#define MAPCOMP_OP_EXTRA_OPS_H_

#include "src/algebra/expr.h"
#include "src/algebra/value.h"

namespace mapcomp {
namespace op {

class Registry;

/// The padding value produced by left outerjoin for non-matching rows.
/// (The library uses set semantics; nulls are modeled as a distinguished
/// constant, which is sufficient for the algebraic identities we exercise.)
const Value& NullValue();

/// Registers the library's extension operators. These demonstrate the
/// paper's extensibility story (§1.3) and exercise the monotone/anti/unknown
/// polarity machinery of §3.3:
///
///   lojoin[c](E1,E2)    left outerjoin — monotone in E1, unknown in E2
///   semijoin[c](E1,E2)  — monotone in both arguments
///   antijoin[c](E1,E2)  — monotone in E1, anti-monotone in E2
///   tc(E)               transitive closure of a binary relation — monotone
///
/// lojoin/semijoin/antijoin carry their join condition in the node's
/// condition slot, interpreted over the concatenated attributes of E1,E2.
///
/// Every operator evaluates through a columnar kernel (`eval_columnar`):
/// the evaluator's JoinMatcher (src/eval/join.h) for the join family, a
/// semi-naive delta fixpoint over ValueId pairs for tc. The tests gate each
/// kernel against a set-semantics reference body (tests/oracles/set_ops.cc).
void RegisterExtraOps(Registry* registry);

}  // namespace op
}  // namespace mapcomp

#endif  // MAPCOMP_OP_EXTRA_OPS_H_
