#ifndef MAPCOMP_EVAL_VALUE_DICT_H_
#define MAPCOMP_EVAL_VALUE_DICT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/algebra/value.h"

namespace mapcomp {

/// Dense per-evaluation value identifier. Tuples become flat rows of these
/// (see TupleTable), so tuple comparison is integer comparison and rows have
/// no per-value heap allocation.
using ValueId = uint32_t;

/// Per-evaluation interning dictionary `Value` → dense `ValueId`.
///
/// The dictionary is seeded once with every value the evaluation can see up
/// front — the instance's active domain, the extra constants, and every
/// constant mentioned in the expressions — in sorted order, so over the
/// seeded range **id order is value order** (CompareValues): tables sorted
/// by id decode to canonically ordered tuple sets, D^r enumerated in id
/// order is already sorted, and ordered condition atoms (`<`, `>=`, ...)
/// compare ids directly.
///
/// Values minted *during* evaluation (Skolem terms, user-operator outputs)
/// are appended past the seeded range. Appended ids still satisfy
/// id equality ⇔ value equality (appends are interned), but not the order
/// guarantee — Compare() falls back to CompareValues for them.
///
/// Concurrency: the seeded tier is immutable after Seed and read lock-free.
/// Minting is serialized by a mutex, and minted values live in fixed-size
/// chunks whose pointers are published with release stores — so ValueOf and
/// Compare are safe from any thread that learned the id through a
/// happens-before edge (a thread or ParallelFor join), which is the only
/// way ids travel between threads. Under concurrent minting the
/// *assignment* of minted ids is schedule-dependent, but harmless: within
/// one dictionary id equality still means value equality, and every result
/// surface (ToSet, Fingerprint, sorted tables) re-canonicalizes by value.
class ValueDict {
 public:
  ValueDict() = default;
  ValueDict(const ValueDict&) = delete;
  ValueDict& operator=(const ValueDict&) = delete;
  ~ValueDict();

  /// Seeds ids 0..|universe|-1 in ascending value order. Must be called
  /// once, before any Intern, from a single thread.
  void Seed(const std::set<Value>& universe);

  /// Returns the id of `v`, appending it (unordered range) when unknown.
  /// Thread-safe after Seed.
  ValueId Intern(const Value& v);

  /// Returns the id of `v`, or nullptr when `v` was never interned. The
  /// pointer stays valid for the dictionary's lifetime.
  const ValueId* Find(const Value& v) const;

  const Value& ValueOf(ValueId id) const {
    if (id < ordered_limit_) return seeded_[id];
    const uint32_t off = id - ordered_limit_;
    const Value* chunk =
        mint_chunks_[off / kMintChunk].load(std::memory_order_acquire);
    return chunk[off % kMintChunk];
  }

  /// Three-way comparison of the denoted values. Pure id comparison within
  /// the seeded (order-preserving) range; value comparison beyond it.
  int Compare(ValueId a, ValueId b) const {
    if (a == b) return 0;
    if (a < ordered_limit_ && b < ordered_limit_) return a < b ? -1 : 1;
    return CompareValues(ValueOf(a), ValueOf(b));
  }

  size_t size() const {
    return seeded_.size() + mint_count_.load(std::memory_order_acquire);
  }
  /// Ids below this bound are in ascending value order.
  ValueId ordered_limit() const { return ordered_limit_; }

 private:
  /// Minted values are stored in chunks so already-published ids are never
  /// relocated by later growth (vector reallocation would race ValueOf).
  static constexpr uint32_t kMintChunk = 4096;
  static constexpr uint32_t kMaxMintChunks = 4096;  // ~16.7M minted values

  void EnsureMintChunksLocked();

  // Immutable after Seed: lock-free tier.
  std::vector<Value> seeded_;
  std::unordered_map<Value, ValueId, ValueHash> seeded_index_;
  ValueId ordered_limit_ = 0;

  // Minted overflow tier, guarded by mint_mu_ for writers.
  mutable std::mutex mint_mu_;
  std::unordered_map<Value, ValueId, ValueHash> mint_index_;
  std::unique_ptr<std::atomic<Value*>[]> mint_chunks_;
  std::atomic<uint32_t> mint_count_{0};
};

}  // namespace mapcomp

#endif  // MAPCOMP_EVAL_VALUE_DICT_H_
