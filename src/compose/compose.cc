#include "src/compose/compose.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "src/algebra/interner.h"
#include "src/common/fault.h"
#include "src/common/wire_format.h"
#include "src/compose/simplify_constraints.h"

namespace mapcomp {

namespace {
double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// A σ2 symbol not yet eliminated, and what its last failed attempt saw.
struct PendingSymbol {
  std::string symbol;
  /// The constraints that mentioned it. Empty until an attempt fails: a
  /// symbol that no constraint mentions is always eliminated.
  ConstraintSet failed_group;
  /// Σ's operator count at a blowup-limited failure.
  std::optional<int> blowup_sigma_ops;
};

}  // namespace

std::string CompositionResult::Report() const {
  std::string out = "eliminated " + std::to_string(eliminated_count) + "/" +
                    std::to_string(total_count) + " symbols in " +
                    std::to_string(total_millis) + " ms";
  if (rounds.size() > 1) {
    out += " over " + std::to_string(rounds.size()) + " rounds";
  }
  out += "\n";
  for (const SymbolStat& s : stats) {
    out += "  " + s.symbol + ": ";
    out += s.eliminated ? std::string("eliminated via ") +
                              EliminateStepName(s.step)
                        : "kept (" + s.failure_reason + ")";
    if (s.round > 1) out += " [round " + std::to_string(s.round) + "]";
    out += " [" + std::to_string(s.size_before) + " -> " +
           std::to_string(s.size_after) + " ops, " +
           std::to_string(s.millis) + " ms]\n";
  }
  for (const std::string& w : warnings) {
    out += "  warning: " + w + "\n";
  }
  return out;
}

void ComposeOptions::AppendWireFieldsTo(std::string* out) const {
  common::PutU8(out, eliminate.enable_unfold ? 1 : 0);
  common::PutU8(out, eliminate.enable_left_compose ? 1 : 0);
  common::PutU8(out, eliminate.enable_right_compose ? 1 : 0);
  common::PutU32(out, static_cast<uint32_t>(eliminate.max_blowup_factor));
  common::PutU8(out, eliminate.keys != nullptr ? 1 : 0);
  if (eliminate.keys != nullptr) eliminate.keys->AppendTo(out);
  common::PutStringList(out, order);
  common::PutU8(out, simplify_output ? 1 : 0);
  common::PutU32(out, static_cast<uint32_t>(max_rounds));
}

void ComposeOptions::AppendTo(std::string* out) const {
  AppendWireFieldsTo(out);
  // A uid, unlike a pointer address, cannot alias a later registry
  // allocated where a destroyed one lived.
  common::PutString(out, eliminate.registry == &op::Registry::Default()
                             ? "default"
                             : std::to_string(eliminate.registry->uid()));
  common::PutU64(out, static_cast<uint64_t>(eliminate.blowup_baseline_ops));
}

std::string ComposeOptions::Fingerprint() const {
  std::string out;
  AppendTo(&out);
  return out;
}

std::string CompositionResult::Fingerprint() const {
  std::string out;
  out += "sigma{" + sigma.ToString() + "}\n";
  out += "residual{";
  for (const std::string& s : residual_sigma2) out += s + ",";
  out += "}\n";
  out += "constraints{\n" + ConstraintSetToString(constraints) + "}\n";
  out += "counts{" + std::to_string(eliminated_count) + "/" +
         std::to_string(total_count) + "}\n";
  for (const SymbolStat& s : stats) {
    out += "stat{" + s.symbol + " r" + std::to_string(s.round) + " " +
           (s.eliminated ? std::string(EliminateStepName(s.step))
                         : "kept:" + s.failure_reason) +
           " " + std::to_string(s.size_before) + "->" +
           std::to_string(s.size_after) + "}\n";
  }
  for (const RoundStat& r : rounds) {
    out += "round{" + std::to_string(r.round) + " " +
           std::to_string(r.eliminated) + "/" + std::to_string(r.attempted) +
           "}\n";
  }
  for (const std::string& w : warnings) out += "warning{" + w + "}\n";
  // Only interrupted runs carry this line, so a completed bounded run
  // fingerprints byte-identically to an unbounded one.
  if (!interrupt.ok()) {
    out += "interrupt{" + std::string(StatusCodeName(interrupt.code())) +
           "}\n";
  }
  return out;
}

CompositionResult Compose(const CompositionProblem& problem,
                          const ComposeOptions& options) {
  auto total_start = std::chrono::steady_clock::now();
  CompositionResult result;
  // One batch scope for the whole composition: the substitution/simplify
  // rewrites rebuild the same small nodes constantly, which the builder's
  // local cache absorbs without touching the shared shards.
  ExprBuilder batch;

  // Σ := Σ12 ∪ Σ23.
  ConstraintSet sigma = problem.sigma12;
  sigma.insert(sigma.end(), problem.sigma23.begin(), problem.sigma23.end());

  // Key information from every schema feeds Skolem minimization.
  Signature all_keys;
  {
    Result<Signature> merged =
        Signature::Merge(problem.sigma1, problem.sigma2);
    if (merged.ok()) {
      Result<Signature> merged3 = Signature::Merge(*merged, problem.sigma3);
      if (merged3.ok()) all_keys = *merged3;
    }
  }
  ComposeOptions opts = options;
  if (opts.eliminate.keys == nullptr) opts.eliminate.keys = &all_keys;
  // ELIMINATE polls the same token between its steps.
  opts.eliminate.cancel = options.cancel;
  const common::CancelToken& cancel = options.cancel;
  Status interrupt = Status::OK();

  std::vector<std::string> order =
      !options.order.empty()
          ? options.order
          : (!problem.elimination_order.empty() ? problem.elimination_order
                                                : problem.sigma2.names());
  result.total_count = static_cast<int>(order.size());

  // Multi-round fixpoint. Each round walks the pending symbols in user
  // order and eliminates each one from the constraints that mention it;
  // a success splices the rewritten group into Σ. ELIMINATE is
  // deterministic and reads nothing but its group and the blowup baseline,
  // so a symbol whose group is still the one it failed on would fail
  // again — unless the failure was blowup-limited and Σ's size moved. Such
  // a retry is skipped. Stops when everything is eliminated, no pending
  // symbol is worth retrying, or max_rounds is reached.
  std::vector<PendingSymbol> pending;
  pending.reserve(order.size());
  for (std::string& s : order) pending.emplace_back().symbol = std::move(s);

  int sigma_ops = OperatorCount(sigma);
  int max_rounds = std::max(1, options.max_rounds);
  for (int round = 1; round <= max_rounds && !pending.empty(); ++round) {
    interrupt = cancel.StatusAt("compose round boundary");
    if (!interrupt.ok()) break;
    auto round_start = std::chrono::steady_clock::now();
    RoundStat round_stat;
    round_stat.round = round;
    std::vector<PendingSymbol> next_pending;

    size_t next = 0;
    for (; next < pending.size(); ++next) {
      PendingSymbol& p = pending[next];
      std::vector<size_t> where;  // positions of the group in Σ
      ConstraintSet group;
      for (size_t c = 0; c < sigma.size(); ++c) {
        if (ConstraintContainsRelation(sigma[c], p.symbol)) {
          where.push_back(c);
          group.push_back(sigma[c]);
        }
      }
      if (!p.failed_group.empty() &&
          std::equal(group.begin(), group.end(), p.failed_group.begin(),
                     p.failed_group.end(), ConstraintEquals) &&
          (!p.blowup_sigma_ops || *p.blowup_sigma_ops == sigma_ops)) {
        next_pending.push_back(std::move(p));
        continue;
      }
      interrupt = cancel.StatusAt("elimination");
      if (!interrupt.ok()) break;

      auto start = std::chrono::steady_clock::now();
      SymbolStat stat;
      stat.symbol = p.symbol;
      stat.round = round;
      stat.size_before = sigma_ops;
      // The paper's blowup guard stays relative to the full Σ, not the
      // (much smaller) group.
      EliminateOptions eliminate = opts.eliminate;
      eliminate.blowup_baseline_ops = std::max(1, sigma_ops);
      common::fault::MaybeSleep(common::fault::FaultPoint::kSlowElimination);
      EliminateOutcome outcome = Eliminate(
          group, p.symbol, problem.sigma2.ArityOf(p.symbol), eliminate);
      ++round_stat.attempted;
      stat.eliminated = outcome.success;
      stat.step = outcome.step;
      stat.failure_reason = outcome.failure_reason;
      if (outcome.success) {
        // Splice: the constraints outside the group keep their positions,
        // the rewritten group follows them.
        sigma_ops += OperatorCount(outcome.constraints) - OperatorCount(group);
        size_t kept = 0;
        for (size_t c = 0, g = 0; c < sigma.size(); ++c) {
          if (g < where.size() && where[g] == c) {
            ++g;
          } else {
            sigma[kept++] = std::move(sigma[c]);
          }
        }
        sigma.resize(kept);
        sigma.insert(sigma.end(),
                     std::make_move_iterator(outcome.constraints.begin()),
                     std::make_move_iterator(outcome.constraints.end()));
        ++result.eliminated_count;
        ++round_stat.eliminated;
      } else if (!outcome.interrupted) {
        // An interrupted attempt is not a reproducible failure, so only a
        // real one is remembered.
        p.failed_group = std::move(group);
        p.blowup_sigma_ops.reset();
        if (outcome.blowup_limited) p.blowup_sigma_ops = sigma_ops;
      }
      stat.size_after = sigma_ops;
      stat.millis = MillisSince(start);
      result.stats.push_back(std::move(stat));
      if (outcome.interrupted) {
        interrupt = cancel.StatusAt("elimination");
        if (interrupt.ok()) interrupt = Status::Cancelled("elimination");
        break;
      }
      if (!outcome.success) next_pending.push_back(std::move(p));
    }
    // A fired token mid-round: every symbol not reached stays pending and
    // surfaces as a residual below.
    for (; next < pending.size(); ++next) {
      next_pending.push_back(std::move(pending[next]));
    }

    round_stat.millis = MillisSince(round_start);
    pending = std::move(next_pending);
    if (round_stat.attempted == 0) break;  // every retry was provably futile
    result.rounds.push_back(std::move(round_stat));
    if (!interrupt.ok()) break;  // partial round recorded, stop attempting
  }

  std::vector<std::string> residual;
  residual.reserve(pending.size());
  for (PendingSymbol& p : pending) residual.push_back(std::move(p.symbol));

  if (options.simplify_output) {
    sigma = SimplifyConstraintSet(std::move(sigma), opts.eliminate.registry);
  }

  // Assemble the residual signature σ1 ∪ σ2' ∪ σ3.
  Signature out_sig = problem.sigma1;
  for (const std::string& s : residual) {
    out_sig.AddOrReplaceRelation(s, problem.sigma2.ArityOf(s));
    auto key = problem.sigma2.KeyOf(s);
    if (key.has_value()) {
      Status st = out_sig.SetKey(s, *key);
      if (!st.ok()) {
        result.warnings.push_back("dropping key of residual symbol " + s +
                                  ": " + st.ToString());
      }
    }
  }
  Result<Signature> merged = Signature::Merge(out_sig, problem.sigma3);
  if (!merged.ok()) {
    result.warnings.push_back("cannot merge sigma3 into output signature: " +
                              merged.status().ToString());
  }
  result.sigma = merged.ok() ? *merged : out_sig;
  result.residual_sigma2 = std::move(residual);
  result.constraints = std::move(sigma);
  if (!interrupt.ok()) {
    result.warnings.push_back(
        std::string("composition interrupted (") +
        StatusCodeName(interrupt.code()) + "): " +
        std::to_string(result.eliminated_count) + "/" +
        std::to_string(result.total_count) + " symbols eliminated, " +
        std::to_string(result.residual_sigma2.size()) +
        " kept as residuals");
    result.interrupt = std::move(interrupt);
  }
  result.total_millis = MillisSince(total_start);
  return result;
}

}  // namespace mapcomp
