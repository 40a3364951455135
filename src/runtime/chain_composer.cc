#include "src/runtime/chain_composer.h"

#include <utility>

#include "src/common/wire_format.h"
#include "src/compose/eliminate.h"
#include "src/runtime/approx_bytes.h"

namespace mapcomp {
namespace runtime {

namespace {

/// Rolling 128-bit prefix key: two independent FNV-1a-style lanes over the
/// folded fingerprints. 128 bits keep an accidental prefix collision a
/// ~2^-64 birthday event even at millions of cached prefixes.
struct RollingKey {
  uint64_t a = 0xcbf29ce484222325ull;
  uint64_t b = 0x9ae16a3b2f90404full;

  void Fold(const std::string& s) {
    for (unsigned char c : s) {
      a = (a ^ c) * 0x100000001b3ull;
      b = (b ^ c) * 0x9ddfea08eb382d69ull;
    }
    // A length terminator so consecutive folds can't slide into each
    // other ("ab"+"c" vs "a"+"bc").
    a = (a ^ s.size()) * 0x100000001b3ull;
    b = (b ^ s.size()) * 0x9ddfea08eb382d69ull;
  }

  void FoldHash(uint64_t h) {
    for (int i = 0; i < 8; ++i) {
      unsigned char c = static_cast<unsigned char>(h & 0xff);
      a = (a ^ c) * 0x100000001b3ull;
      b = (b ^ c) * 0x9ddfea08eb382d69ull;
      h >>= 8;
    }
  }

  /// Per-link digest: signature fingerprints plus the interned structural
  /// hash of each constraint expression. ExprHash is O(1) (cached at
  /// interning), so folding a link costs O(|signatures| + #constraints) —
  /// it never re-serializes constraint expressions, which is what keeps a
  /// fully warm chain walk cheap. Constraint order and multiplicity fold
  /// in, so a revised (rotated/toggled) mapping always re-keys.
  void FoldMapping(const Mapping& m) {
    Fold(m.input.Fingerprint());
    Fold(m.output.Fingerprint());
    for (const Constraint& c : m.constraints) {
      FoldHash(static_cast<uint64_t>(c.kind));
      FoldHash(static_cast<uint64_t>(ExprHash(c.lhs)));
      FoldHash(static_cast<uint64_t>(ExprHash(c.rhs)));
    }
    FoldHash(m.constraints.size());
  }

  std::string Key() const {
    return std::to_string(a) + ":" + std::to_string(b);
  }
};

std::shared_ptr<const ChainPrefixState> SeedState(const Mapping& first) {
  auto seed = std::make_shared<ChainPrefixState>();
  seed->sigma1 = first.input;
  seed->current = first.output;
  seed->constraints = first.constraints;
  return seed;
}

/// One chain step, shared verbatim by the warm and cold paths so they
/// cannot diverge: composes prefix∘m through the service (or directly when
/// `service` is null), then retries previously-kept residual symbols
/// against the new constraint set — a later composition can shrink Σ
/// enough to recover them (§4's second-order note) — and rebuilds σ1 as
/// chain input ∪ surviving residuals. A failed service computation
/// propagates as a Status (the service never rethrows across its
/// boundary).
Result<std::shared_ptr<const ChainPrefixState>> ExtendPrefix(
    const Signature& base_input, const ChainPrefixState& prev,
    const Mapping& m, const ComposeOptions& options,
    ComposeService* service) {
  CompositionProblem problem;
  problem.sigma1 = prev.sigma1;
  problem.sigma2 = prev.current;
  problem.sigma3 = m.output;
  problem.sigma12 = prev.constraints;
  problem.sigma23 = m.constraints;

  ComposeService::ResultPtr served;
  if (service != nullptr) {
    ServedOutcome outcome =
        service->Submit(serve::ServeRequest::WithOptions(problem, options))
            .Wait();
    if (!outcome.ok()) return outcome.status();
    served = outcome.shared();
  } else {
    served = std::make_shared<const ServedResult>(
        ServedResult::FromResult(Compose(problem, options)));
  }

  auto next = std::make_shared<ChainPrefixState>();
  next->current = m.output;
  next->warnings = prev.warnings;
  next->warnings.insert(next->warnings.end(), served->warnings.begin(),
                        served->warnings.end());
  next->step_result_fingerprint = served->fingerprint;

  ConstraintSet current = served->constraints;
  std::map<std::string, int> residual_arity = prev.residual_arity;
  for (auto it = residual_arity.begin(); it != residual_arity.end();) {
    EliminateOutcome retry =
        Eliminate(current, it->first, it->second, options.eliminate);
    if (retry.success) {
      current = std::move(retry.constraints);
      it = residual_arity.erase(it);
    } else {
      ++it;
    }
  }
  for (const std::string& s : served->residual_sigma2) {
    residual_arity[s] = problem.sigma2.ArityOf(s);
  }

  next->sigma1 = base_input;
  for (const auto& [name, arity] : residual_arity) {
    next->sigma1.AddOrReplaceRelation(name, arity);
  }
  next->constraints = std::move(current);
  next->residual_arity = std::move(residual_arity);
  return std::shared_ptr<const ChainPrefixState>(std::move(next));
}

ChainResult FinishResult(const ChainPrefixState& state, int depth,
                         int prefix_hits, int steps_composed) {
  ChainResult out;
  out.mapping.input = state.sigma1;
  out.mapping.output = state.current;
  out.mapping.constraints = state.constraints;
  out.warnings = state.warnings;
  // The warm≡cold comparison surface: the composed mapping's canonical
  // bytes, then the residuals with their arities, then the warnings.
  std::string& fp = out.fingerprint;
  fp = out.mapping.Fingerprint();
  common::PutU32(&fp, static_cast<uint32_t>(state.residual_arity.size()));
  for (const auto& [name, arity] : state.residual_arity) {
    out.residual_sigma2.push_back(name);
    common::PutString(&fp, name);
    common::PutU32(&fp, static_cast<uint32_t>(arity));
  }
  common::PutStringList(&fp, state.warnings);
  out.result_fingerprint = state.step_result_fingerprint;
  out.depth = depth;
  out.prefix_hits = prefix_hits;
  out.steps_composed = steps_composed;
  return out;
}

Status ValidateChain(const std::vector<Mapping>& chain) {
  if (chain.empty()) {
    return Status::InvalidArgument("cannot compose an empty chain");
  }
  for (size_t k = 1; k < chain.size(); ++k) {
    const Signature& out = chain[k - 1].output;
    const Signature& in = chain[k].input;
    if (out.names() != in.names()) {
      return Status::InvalidArgument(
          "chain link " + std::to_string(k) +
          ": input signature does not match the previous link's output");
    }
    for (const std::string& name : in.names()) {
      if (in.ArityOf(name) != out.ArityOf(name)) {
        return Status::InvalidArgument(
            "chain link " + std::to_string(k) + ": relation " + name +
            " changes arity across the link boundary");
      }
    }
  }
  return Status::OK();
}

}  // namespace

size_t ChainPrefixState::ApproxBytes() const {
  size_t out = sizeof(ChainPrefixState);
  out += SignatureApproxBytes(sigma1);
  out += SignatureApproxBytes(current);
  out += constraints.capacity() * sizeof(Constraint);
  for (const auto& [name, arity] : residual_arity) {
    (void)arity;
    out += name.size() + 64;
  }
  out += StringsApproxBytes(warnings);
  out += step_result_fingerprint.capacity();
  return out;
}

std::string ChainStats::ToString() const {
  std::string out = "chain-composer: ";
  out += std::to_string(prefix_hits) + " prefix hits, " +
         std::to_string(prefix_misses) + " prefix misses (" +
         std::to_string(HitRate() * 100.0) + "% hit rate), " +
         std::to_string(evictions) + " evictions, " +
         std::to_string(entries) + " cached (" +
         std::to_string(cache_bytes) + " bytes, peak " +
         std::to_string(cache_bytes_peak) + ")\n";
  return out;
}

ChainComposer::ChainComposer(ComposeService* service,
                             ChainComposerOptions options)
    : service_(service),
      options_(options),
      cache_(options.cache_capacity, options.cache_bytes_capacity) {}

Result<ChainResult> ChainComposer::ComposeChain(
    const std::vector<Mapping>& chain) {
  return ComposeChain(chain, service_->default_options());
}

Result<ChainResult> ChainComposer::ComposeChain(
    const std::vector<Mapping>& chain, const ComposeOptions& options) {
  MAPCOMP_RETURN_IF_ERROR(ValidateChain(chain));
  const bool caching = options_.cache_capacity > 0;

  RollingKey key;
  key.Fold(options.Fingerprint());
  key.FoldMapping(chain[0]);
  StatePtr state = SeedState(chain[0]);

  int hits = 0, composed = 0;
  for (size_t k = 1; k < chain.size(); ++k) {
    key.FoldMapping(chain[k]);
    std::string prefix_key = caching ? key.Key() : std::string();
    if (caching) {
      // Hits and misses are tallied once per walk, below.
      std::lock_guard<std::mutex> lock(mu_);
      if (StatePtr* cached = cache_.Get(prefix_key)) {
        ++hits;
        state = *cached;
        continue;
      }
    }
    MAPCOMP_ASSIGN_OR_RETURN(
        state,
        ExtendPrefix(chain[0].input, *state, chain[k], options, service_));
    ++composed;
    if (caching) {
      size_t bytes = state->ApproxBytes();
      std::lock_guard<std::mutex> lock(mu_);
      // A racing walk may have extended the same prefix; both states are
      // identical by determinism, and Insert keeps the incumbent.
      cache_.Insert(prefix_key, state, bytes);
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.prefix_hits += static_cast<uint64_t>(hits);
    stats_.prefix_misses += static_cast<uint64_t>(composed);
  }
  return FinishResult(*state, static_cast<int>(chain.size()), hits,
                      composed);
}

ChainStats ChainComposer::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ChainStats out = stats_;
  out.evictions = cache_.evictions();
  out.entries = cache_.size();
  out.cache_bytes = cache_.bytes();
  out.cache_bytes_peak = cache_.bytes_peak();
  return out;
}

Result<ChainResult> ComposeChainCold(const std::vector<Mapping>& chain,
                                     const ComposeOptions& options) {
  MAPCOMP_RETURN_IF_ERROR(ValidateChain(chain));
  std::shared_ptr<const ChainPrefixState> state = SeedState(chain[0]);
  int composed = 0;
  for (size_t k = 1; k < chain.size(); ++k) {
    MAPCOMP_ASSIGN_OR_RETURN(
        state, ExtendPrefix(chain[0].input, *state, chain[k], options,
                            /*service=*/nullptr));
    ++composed;
  }
  return FinishResult(*state, static_cast<int>(chain.size()), /*hits=*/0,
                      composed);
}

}  // namespace runtime
}  // namespace mapcomp
