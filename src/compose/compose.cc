#include "src/compose/compose.h"

#include <algorithm>
#include <chrono>

#include "src/algebra/interner.h"
#include "src/common/fault.h"
#include "src/common/wire_format.h"
#include "src/compose/schedule.h"
#include "src/compose/simplify_constraints.h"

namespace mapcomp {

namespace {
double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// A σ2 symbol not yet eliminated. `order_index` is its position in the
/// user-specified order, used to restore that order between rounds (wave
/// scheduling pulls symbols out of sequence within a round).
struct PendingSymbol {
  std::string symbol;
  int order_index = 0;
  int failed_at = -1;  ///< sigma_version at the last failed attempt
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
  common::PutU8(out, exact_conflicts ? 1 : 0);
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
           " waves[";
    for (size_t i = 0; i < r.wave_widths.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(r.wave_widths[i]);
    }
    out += "]}\n";
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

  // Multi-round fixpoint over a wave scheduler. Each round repeatedly
  // plans one wave of constraint-disjoint pending symbols against the
  // *current* Σ and executes it; a symbol that fails stays pending for the
  // next round. ELIMINATE is deterministic and only reads the constraints
  // mentioning its symbol, so retrying a symbol against a Σ that has not
  // changed since its last failure must fail identically —
  // `sigma_version` counts successful eliminations, and a pending symbol
  // is only re-attempted once Σ has changed since it last failed. Stops
  // when everything is eliminated, no pending symbol has a fresher Σ to
  // try, or max_rounds is reached.
  std::vector<PendingSymbol> pending;
  pending.reserve(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    pending.push_back({std::move(order[i]), static_cast<int>(i), -1});
  }

  int sigma_version = 0;
  int max_rounds = std::max(1, options.max_rounds);
  for (int round = 1; round <= max_rounds && !pending.empty(); ++round) {
    interrupt = cancel.StatusAt("compose round boundary");
    if (!interrupt.ok()) break;
    auto round_start = std::chrono::steady_clock::now();
    RoundStat round_stat;
    round_stat.round = round;
    std::vector<PendingSymbol> next_pending;
    std::vector<PendingSymbol> unprocessed = std::move(pending);
    pending.clear();

    while (!unprocessed.empty()) {
      interrupt = cancel.StatusAt("wave plan boundary");
      if (!interrupt.ok()) break;
      // --- Plan one wave against the current Σ. Futile symbols (Σ is
      // exactly what they already failed against) are skipped but stay in
      // the pool: a later wave's success can revive them this round.
      std::vector<int> candidates;  // non-futile, in order
      candidates.reserve(unprocessed.size());
      for (size_t i = 0; i < unprocessed.size(); ++i) {
        if (unprocessed[i].failed_at != sigma_version) {
          candidates.push_back(static_cast<int>(i));
        }
      }
      if (candidates.empty()) {
        // Every remaining symbol is provably futile against this Σ.
        for (PendingSymbol& p : unprocessed) {
          next_pending.push_back(std::move(p));
        }
        break;
      }
      // Occurrence sets only for the candidates — futile symbols are by
      // definition mentioned in Σ, so scanning them would do exact walks
      // whose results nobody reads.
      std::vector<std::string> names;
      names.reserve(candidates.size());
      for (int i : candidates) {
        names.push_back(unprocessed[static_cast<size_t>(i)].symbol);
      }
      std::vector<std::vector<int>> occ =
          OccurrenceSets(sigma, names, options.exact_conflicts, &cancel);
      if (cancel.Fired()) {
        // The scan may have been truncated: do not plan from it.
        interrupt = cancel.StatusAt("occurrence scan");
        break;
      }
      std::vector<int> wave_local =  // indices into candidates/occ
          PlanWaveFromOccurrences(occ, sigma.size());

      std::vector<char> in_wave(unprocessed.size(), 0);
      std::vector<PendingSymbol> wave;
      std::vector<std::vector<int>> wave_occ;  // planning rows, wave order
      wave.reserve(wave_local.size());
      wave_occ.reserve(wave_local.size());
      for (int w : wave_local) {
        size_t i = static_cast<size_t>(candidates[static_cast<size_t>(w)]);
        in_wave[i] = 1;
        wave.push_back(std::move(unprocessed[i]));
        wave_occ.push_back(std::move(occ[static_cast<size_t>(w)]));
      }
      std::vector<PendingSymbol> rest;
      rest.reserve(unprocessed.size() - wave.size());
      for (size_t i = 0; i < unprocessed.size(); ++i) {
        if (!in_wave[i]) rest.push_back(std::move(unprocessed[i]));
      }
      unprocessed = std::move(rest);
      round_stat.wave_widths.push_back(static_cast<int>(wave.size()));
      round_stat.attempted += static_cast<int>(wave.size());

      if (wave.size() == 1) {
        // Singleton wave: eliminate from the full Σ, exactly like the
        // original one-at-a-time driver.
        PendingSymbol& p = wave[0];
        auto start = std::chrono::steady_clock::now();
        SymbolStat stat;
        stat.symbol = p.symbol;
        stat.round = round;
        stat.size_before = OperatorCount(sigma);
        common::fault::MaybeSleep(
            common::fault::FaultPoint::kSlowEliminationWave);
        EliminateOutcome outcome =
            Eliminate(sigma, p.symbol, problem.sigma2.ArityOf(p.symbol),
                      opts.eliminate);
        stat.eliminated = outcome.success;
        stat.step = outcome.step;
        stat.failure_reason = outcome.failure_reason;
        if (outcome.success) {
          sigma = std::move(outcome.constraints);
          ++sigma_version;
          ++result.eliminated_count;
          ++round_stat.eliminated;
        } else {
          // An interrupted attempt is not a reproducible failure: leave
          // failed_at alone so a later (hypothetical) retry is not skipped
          // as futile.
          if (!outcome.interrupted) p.failed_at = sigma_version;
          next_pending.push_back(std::move(p));
        }
        stat.size_after = OperatorCount(sigma);
        stat.millis = MillisSince(start);
        result.stats.push_back(std::move(stat));
        if (outcome.interrupted) {
          interrupt = cancel.StatusAt("elimination");
          if (interrupt.ok()) interrupt = Status::Cancelled("elimination");
          break;
        }
        continue;
      }

      // --- Wider wave: partition Σ into per-symbol groups (the exact
      // occurrence sets, pairwise disjoint by construction) plus the
      // untouched remainder, eliminate each group against the wave
      // snapshot in wave (= user) order, then merge.
      const size_t width = wave.size();
      const int size_before_wave = OperatorCount(sigma);
      const int snapshot_version = sigma_version;
      // Execution always partitions by exact occurrence; the planning rows
      // already are exact unless Bloom-only planning was requested, in
      // which case they are recomputed (an exact subset of disjoint Bloom
      // sets is still disjoint).
      if (!options.exact_conflicts) {
        std::vector<std::string> wave_names;
        for (const PendingSymbol& p : wave) wave_names.push_back(p.symbol);
        wave_occ = OccurrenceSets(sigma, wave_names, /*exact=*/true);
      }

      std::vector<int> owner(sigma.size(), -1);
      std::vector<ConstraintSet> groups(width);
      for (size_t wi = 0; wi < width; ++wi) {
        for (int c : wave_occ[wi]) {
          owner[static_cast<size_t>(c)] = static_cast<int>(wi);
          groups[wi].push_back(sigma[static_cast<size_t>(c)]);
        }
      }

      // The paper's blowup guard stays relative to the full Σ, not the
      // (much smaller) per-symbol group.
      EliminateOptions wave_opts = opts.eliminate;
      wave_opts.blowup_baseline_ops = std::max(1, size_before_wave);

      std::vector<EliminateOutcome> outcomes(width);
      ConstraintSet rewritten;  // each success's group, in wave order
      int running = size_before_wave;
      for (size_t wi = 0; wi < width; ++wi) {
        EliminateOutcome& outcome = outcomes[wi];
        SymbolStat stat;
        stat.symbol = wave[wi].symbol;
        stat.round = round;
        stat.size_before = running;
        // Per-member cancellation point: a fired token skips the rest of
        // the wave (interrupted, not failed). ELIMINATE polls the token
        // only between its steps, so a step is never torn.
        if (cancel.Fired()) {
          outcome.interrupted = true;
          outcome.failure_reason = "interrupted";
        } else {
          auto start = std::chrono::steady_clock::now();
          common::fault::MaybeSleep(
              common::fault::FaultPoint::kSlowEliminationWave);
          outcome = Eliminate(groups[wi], stat.symbol,
                              problem.sigma2.ArityOf(stat.symbol), wave_opts);
          stat.millis = MillisSince(start);
        }
        stat.eliminated = outcome.success;
        stat.step = outcome.step;
        stat.failure_reason = outcome.failure_reason;
        if (outcome.success) {
          running += OperatorCount(outcome.constraints) -
                     OperatorCount(groups[wi]);
          rewritten.insert(rewritten.end(),
                           std::make_move_iterator(outcome.constraints.begin()),
                           std::make_move_iterator(outcome.constraints.end()));
          ++sigma_version;
          ++result.eliminated_count;
          ++round_stat.eliminated;
        }
        stat.size_after = running;
        result.stats.push_back(std::move(stat));
      }

      // Merge: untouched constraints and failed groups keep their
      // positions; the successes' rewritten groups follow in wave order.
      // Group contents can only mention names that already occurred in the
      // group, so a success never re-introduces another wave symbol and
      // the merged occurrence structure of a failed symbol is unchanged —
      // which is what makes failed_at below sound.
      ConstraintSet merged;
      merged.reserve(sigma.size() + rewritten.size());
      for (size_t c = 0; c < sigma.size(); ++c) {
        if (owner[c] < 0 || !outcomes[static_cast<size_t>(owner[c])].success) {
          merged.push_back(std::move(sigma[c]));
        }
      }
      merged.insert(merged.end(), std::make_move_iterator(rewritten.begin()),
                    std::make_move_iterator(rewritten.end()));
      sigma = std::move(merged);
      // A failure in this wave saw only its own group, which no other wave
      // member touched, so it would fail identically against the merged Σ
      // — record the post-merge version and let the futility check skip it
      // until Σ changes again. The exception is a blowup-limited failure:
      // the budget is measured against the *global* snapshot size, which
      // sibling successes just changed, so such a failure is only known
      // futile against the snapshot it actually saw.
      bool wave_interrupted = false;
      for (size_t wi = 0; wi < width; ++wi) {
        if (outcomes[wi].success) continue;
        if (outcomes[wi].interrupted) {
          wave_interrupted = true;  // not a reproducible failure
        } else {
          wave[wi].failed_at =
              outcomes[wi].blowup_limited ? snapshot_version : sigma_version;
        }
        next_pending.push_back(std::move(wave[wi]));
      }
      if (wave_interrupted) {
        interrupt = cancel.StatusAt("elimination wave");
        if (interrupt.ok()) interrupt = Status::Cancelled("elimination wave");
        break;
      }
    }

    // A fired token mid-round: whatever was never pulled into a wave stays
    // pending and surfaces as residual symbols below.
    if (!interrupt.ok()) {
      for (PendingSymbol& p : unprocessed) {
        next_pending.push_back(std::move(p));
      }
    }

    round_stat.millis = MillisSince(round_start);
    pending = std::move(next_pending);
    // Wave scheduling pulls symbols out of sequence; retries and residuals
    // follow the user-specified order.
    std::sort(pending.begin(), pending.end(),
              [](const PendingSymbol& a, const PendingSymbol& b) {
                return a.order_index < b.order_index;
              });
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
