#ifndef MAPCOMP_RUNTIME_CHAIN_COMPOSER_H_
#define MAPCOMP_RUNTIME_CHAIN_COMPOSER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/runtime/byte_lru.h"
#include "src/runtime/compose_service.h"

namespace mapcomp {
namespace runtime {

/// Composition state of a chain prefix m1∘…∘mk: exactly what the next
/// composition step consumes, in the shape RunEditLoop-style accumulation
/// produces — the chain input signature extended with still-residual
/// intermediate symbols, the current rightmost signature, the accumulated
/// constraint set, and per-residual arities for later recovery retries.
/// Immutable once built; cache entries and chain results share it.
struct ChainPrefixState {
  Signature sigma1;   ///< chain input ∪ residual intermediate symbols
  Signature current;  ///< rightmost signature of the prefix (v_{k+1})
  ConstraintSet constraints;  ///< over sigma1 ∪ current
  std::map<std::string, int> residual_arity;
  std::vector<std::string> warnings;  ///< accumulated across all steps
  /// CompositionResult::Fingerprint() of the step composition that
  /// produced this state (empty for the depth-1 seed, which composes
  /// nothing). Byte-identical whether the state was computed cold or
  /// served from the prefix cache — the incremental-correctness pin.
  std::string step_result_fingerprint;

  /// Accounting unit of the prefix cache's byte bound, same conventions
  /// as ServedResult::ApproxBytes.
  size_t ApproxBytes() const;
};

/// Result of composing a full chain m1∘m2∘…∘mn.
struct ChainResult {
  /// The composed mapping: chain input (∪ residual intermediate symbols)
  /// → final version signature.
  Mapping mapping;
  /// Intermediate symbols that no step could eliminate, in first-kept
  /// order.
  std::vector<std::string> residual_sigma2;
  std::vector<std::string> warnings;
  /// Canonical bytes (src/common/wire_format.h) of the composed mapping,
  /// residuals and warnings: equal between a warm (prefix-cached) and a
  /// cold recomposition by construction, at any job count. This is what
  /// callers should compare.
  std::string fingerprint;
  /// The final step's CompositionResult::Fingerprint() (empty for a
  /// depth-1 chain). Also warm/cold-identical.
  std::string result_fingerprint;
  int depth = 0;           ///< number of mappings in the chain
  int prefix_hits = 0;     ///< cached prefix compositions reused by this call
  int steps_composed = 0;  ///< compositions actually executed by this call
};

/// Counters of one ChainComposer's prefix cache.
struct ChainStats {
  uint64_t prefix_hits = 0;
  uint64_t prefix_misses = 0;  ///< walk lookups that had to compose
  uint64_t evictions = 0;
  uint64_t entries = 0;
  uint64_t cache_bytes = 0;
  uint64_t cache_bytes_peak = 0;

  double HitRate() const {
    uint64_t total = prefix_hits + prefix_misses;
    return total == 0 ? 0.0 : static_cast<double>(prefix_hits) / total;
  }
  std::string ToString() const;
};

struct ChainComposerOptions {
  /// Prefix entries retained (LRU). 0 disables the prefix cache — every
  /// ComposeChain recomposes the full chain (the cold baseline lanes of
  /// bench_registry use this).
  size_t cache_capacity = 4096;
  /// Byte bound on retained prefix states (key + ChainPrefixState::
  /// ApproxBytes sum); 0 = entries-only bound.
  size_t cache_bytes_capacity = 0;
};

/// Incremental left-to-right chain recomposition on top of ComposeService.
///
/// A chain m1∘m2∘…∘mn is composed prefix by prefix. Each prefix is keyed
/// by a rolling fingerprint folding ComposeOptions::Fingerprint() and a
/// per-link digest of every mapping up to it: the link's
/// Signature::Fingerprint() bytes plus the interned structural hash of
/// each constraint, which separates the same links Mapping::Fingerprint()
/// does without printing constraint expressions. The (large) accumulated
/// prefix constraints never enter a key, so a warm lookup costs
/// O(link signatures + constraint count), not O(prefix). When link mk
/// changes, the keys of prefixes 1..k-1 are unchanged (cache hits) and
/// only the suffix from k recomposes: the hot path of a serving registry
/// drops from O(chain depth) compositions per edit to O(affected suffix).
/// Appending a version — the dominant registry edit — costs exactly one
/// composition.
///
/// Correctness: prefix states are deterministic functions of
/// (options, m1..mk), and every step composes through the service (which
/// is itself fingerprint-deterministic at any job count), so a warm
/// recomposition is byte-identical — ChainResult::fingerprint and every
/// step_result_fingerprint — to a cold one (pinned in
/// tests/chain_composer_test.cc). A changed prefix link changes every
/// downstream rolling key, so a stale suffix can never be served. Rolling
/// keys are 128-bit mixes; two distinct prefixes colliding is a ~2^-64
/// birthday event at registry scale, the standard content-hash-cache
/// tradeoff.
///
/// Thread-safe: concurrent ComposeChain calls on one composer share the
/// cache; racing extenders of the same prefix may both compose (the
/// service's in-flight dedup collapses the underlying work) and insert
/// identical states.
class ChainComposer {
 public:
  /// `service` must outlive the composer; step compositions are submitted
  /// to it (sharing its result cache, dedup and stats).
  explicit ChainComposer(ComposeService* service,
                         ChainComposerOptions options = {});

  /// Composes the chain under the service's default options.
  Result<ChainResult> ComposeChain(const std::vector<Mapping>& chain);
  /// Composes the chain under explicit options. Options participate in
  /// the rolling keys, so mixed-options traffic never shares prefixes.
  Result<ChainResult> ComposeChain(const std::vector<Mapping>& chain,
                                   const ComposeOptions& options);

  ChainStats Stats() const;

 private:
  using StatePtr = std::shared_ptr<const ChainPrefixState>;

  ComposeService* const service_;
  const ChainComposerOptions options_;
  mutable std::mutex mu_;
  ChainStats stats_;
  /// Owns the evictions, entries and byte counters of stats_.
  ByteLru<StatePtr> cache_;
};

/// Cold oracle: composes the chain with no prefix reuse and no service —
/// every step runs synchronously on the calling thread. The warm path
/// must match it byte for byte; tests and bench_registry's baseline lanes
/// compare against this.
Result<ChainResult> ComposeChainCold(const std::vector<Mapping>& chain,
                                     const ComposeOptions& options = {});

}  // namespace runtime
}  // namespace mapcomp

#endif  // MAPCOMP_RUNTIME_CHAIN_COMPOSER_H_
