#ifndef MAPCOMP_RUNTIME_BYTE_LRU_H_
#define MAPCOMP_RUNTIME_BYTE_LRU_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace mapcomp {
namespace runtime {

/// A string-keyed LRU map bounded by entry count and, optionally, by bytes.
/// An entry's bytes are its key's size plus whatever its owner books for
/// the value, at insert or later once the value's size is known. Each key
/// is stored once: the index maps views of the keys held in the recency
/// list. Lookups take a string_view, so a probe allocates nothing. Not
/// thread-safe; owners guard it with their own mutex.
template <typename V>
class ByteLru {
 public:
  /// `max_bytes` 0 means the entry bound alone applies.
  ByteLru(size_t max_entries, size_t max_bytes)
      : max_entries_(max_entries), max_bytes_(max_bytes) {}

  // The index views keys held by the list's nodes; a copy would dangle.
  ByteLru(const ByteLru&) = delete;
  ByteLru& operator=(const ByteLru&) = delete;

  /// Adds `key` as the most recent entry, booking key.size() + `bytes`,
  /// then enforces the bounds (which may evict the new entry itself).
  /// False, with nothing changed, when `key` is already present.
  bool Insert(std::string key, V value, size_t bytes = 0) {
    if (index_.count(key) > 0) return false;
    bytes += key.size();
    order_.push_front(Node{std::move(key), std::move(value), bytes});
    index_.emplace(order_.front().key, order_.begin());
    Grow(bytes);
    return true;
  }

  /// The value under `key`, or null; does not touch recency.
  V* Peek(std::string_view key) {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->value;
  }

  /// The value under `key`, or null; a hit becomes the most recent entry.
  V* Get(std::string_view key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->value;
  }

  /// Adds `bytes` to a live entry and enforces the byte bound, which may
  /// evict this very entry. False, with nothing booked, for an absent key.
  bool Book(std::string_view key, size_t bytes) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    it->second->bytes += bytes;
    Grow(bytes);
    return true;
  }

  /// Drops `key` and releases its bytes. Not counted as an eviction.
  bool Erase(std::string_view key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    Drop(it);
    return true;
  }

  size_t size() const { return index_.size(); }
  uint64_t bytes() const { return bytes_; }
  /// High-water mark of bytes().
  uint64_t bytes_peak() const { return bytes_peak_; }
  /// Entries dropped by the bounds.
  uint64_t evictions() const { return evictions_; }

 private:
  struct Node {
    std::string key;
    V value;
    size_t bytes;
  };
  using Index =
      std::unordered_map<std::string_view, typename std::list<Node>::iterator>;

  void Grow(size_t bytes) {
    bytes_ += bytes;
    if (bytes_ > bytes_peak_) bytes_peak_ = bytes_;
    while (!order_.empty() &&
           (index_.size() > max_entries_ ||
            (max_bytes_ > 0 && bytes_ > max_bytes_))) {
      ++evictions_;
      Drop(index_.find(order_.back().key));
    }
  }

  void Drop(typename Index::iterator it) {
    auto node = it->second;
    bytes_ -= node->bytes;
    index_.erase(it);  // before the node, whose key the index views
    order_.erase(node);
  }

  const size_t max_entries_;
  const size_t max_bytes_;
  std::list<Node> order_;  ///< most recent first
  Index index_;
  uint64_t bytes_ = 0;
  uint64_t bytes_peak_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace runtime
}  // namespace mapcomp

#endif  // MAPCOMP_RUNTIME_BYTE_LRU_H_
