#include "src/eval/value_dict.h"

#include <stdexcept>
#include <utility>

namespace mapcomp {

ValueDict::SeedTier::SeedTier(const std::set<Value>& universe)
    : values_(universe.begin(), universe.end()) {
  index_.reserve(values_.size());
  for (size_t i = 0; i < values_.size(); ++i) {
    index_.emplace(values_[i], static_cast<ValueId>(i));
  }
}

ValueDict::ValueDict(std::shared_ptr<const SeedTier> seed)
    : seed_(std::move(seed)),
      seeded_(seed_->values_.data()),
      ordered_limit_(static_cast<ValueId>(seed_->values_.size())) {}

ValueDict::~ValueDict() {
  if (mint_chunks_ == nullptr) return;
  const uint32_t minted = mint_count_.load(std::memory_order_acquire);
  for (uint32_t c = 0; c * kMintChunk < minted; ++c) {
    delete[] mint_chunks_[c].load(std::memory_order_relaxed);
  }
}

void ValueDict::EnsureMintChunksLocked() {
  if (mint_chunks_ != nullptr) return;
  // Zero-initialized atomic pointers; the array itself is published to
  // readers through the same happens-before edge that publishes the first
  // minted id (no reader asks for a minted id it has not been handed).
  mint_chunks_.reset(new std::atomic<Value*>[kMaxMintChunks]());
}

ValueId ValueDict::Intern(const Value& v) {
  auto it = seed_->index_.find(v);
  if (it != seed_->index_.end()) return it->second;
  std::lock_guard<std::mutex> lock(mint_mu_);
  auto mit = mint_index_.find(v);
  if (mit != mint_index_.end()) return mit->second;
  EnsureMintChunksLocked();
  const uint32_t off = mint_count_.load(std::memory_order_relaxed);
  if (off / kMintChunk >= kMaxMintChunks) {
    throw std::length_error("ValueDict: minted value capacity exceeded");
  }
  std::atomic<Value*>& slot = mint_chunks_[off / kMintChunk];
  Value* chunk = slot.load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Value[kMintChunk];
    chunk[off % kMintChunk] = v;  // write before the pointer is published
    slot.store(chunk, std::memory_order_release);
  } else {
    chunk[off % kMintChunk] = v;
  }
  const ValueId id = ordered_limit_ + static_cast<ValueId>(off);
  mint_index_.emplace(v, id);
  mint_count_.store(off + 1, std::memory_order_release);
  return id;
}

const ValueId* ValueDict::Find(const Value& v) const {
  auto it = seed_->index_.find(v);
  if (it != seed_->index_.end()) return &it->second;
  std::lock_guard<std::mutex> lock(mint_mu_);
  auto mit = mint_index_.find(v);
  return mit == mint_index_.end() ? nullptr : &mit->second;
}

}  // namespace mapcomp
