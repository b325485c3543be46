// Open-addressing count map: uint64 key -> positive int32 count.
//
// The structural core's image-edge *excess* table lives here. The healed
// image G records every edge of multiplicity >= 1 in its own sorted
// adjacency, so this map holds only count - 1 for the edges whose
// multiplicity is >= 2 (about one image edge in seven on churn), and never
// a 0. Flat storage, linear probing, backward-shift deletion: an excess
// change is a probe over a contiguous cell array, with no hash-node
// allocation.
//
// Key 0 is reserved as the empty marker; edge keys are slot_key(u, v) with
// u < v, whose low word is v >= 1, so 0 never occurs as a real key.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/prefetch.h"

namespace fg::util {

class FlatCountMap {
 public:
  /// Bump key's count (inserting at 1).
  void increment(uint64_t key) {
    FG_DCHECK(key != 0);
    if ((size_ + 1) * 8 > cells_.size() * 7) grow();
    size_t i = find_slot(key);
    if (cells_[i].key == 0) {
      cells_[i].key = key;
      ++size_;
    }
    ++cells_[i].count;
  }

  /// Drop key's count by one (erasing at 0) if key is present; returns
  /// whether it was. An absent key is left alone — the caller decides
  /// whether that is a bookkeeping bug.
  bool decrement(uint64_t key) {
    FG_DCHECK(key != 0);
    if (cells_.empty()) return false;
    size_t i = find_slot(key);
    if (cells_[i].key != key) return false;
    if (--cells_[i].count == 0) erase_at(i);
    return true;
  }

  /// The count stored for key (0 if absent).
  int32_t count(uint64_t key) const {
    if (cells_.empty()) return 0;
    size_t i = find_slot(key);
    return cells_[i].key == key ? cells_[i].count : 0;
  }

  /// Prefetch key's home cell (a cache hint; no effect on state).
  void prefetch(uint64_t key) const {
    if (!cells_.empty()) util::prefetch(&cells_[home_of(key)]);
  }

  /// Number of distinct keys.
  size_t size() const { return size_; }

  /// Overwrite key's count outright: count > 0 inserts or replaces,
  /// count == 0 erases (no-op if absent). The snapshot delta replay applies
  /// final-value multiplicity records through this (as count - 1) — never
  /// the engines, whose mutations are all increment/decrement.
  void set_count(uint64_t key, int32_t count) {
    FG_DCHECK(key != 0);
    FG_CHECK_MSG(count >= 0, "negative multiplicity");
    if (count == 0) {
      if (cells_.empty()) return;
      size_t i = find_slot(key);
      if (cells_[i].key == key) erase_at(i);
      return;
    }
    if ((size_ + 1) * 8 > cells_.size() * 7) grow();
    size_t i = find_slot(key);
    if (cells_[i].key == 0) {
      cells_[i].key = key;
      ++size_;
    }
    cells_[i].count = count;
  }

  /// Bulk-load distinct (key, positive count) entries into an empty map:
  /// one exact-size rehash up front, then an insert sweep that prefetches
  /// the home cell a few entries ahead so the random-access misses overlap
  /// instead of serializing. The snapshot restore path fills the table
  /// this way; the caller validates the entries first (FG_DCHECKed here).
  void load(std::span<const std::pair<uint64_t, int32_t>> entries) {
    FG_CHECK_MSG(size_ == 0, "bulk load into a non-empty count map");
    if (entries.empty()) return;
    reserve(entries.size());
    constexpr size_t kAhead = 16;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (i + kAhead < entries.size())
        __builtin_prefetch(&cells_[home_of(entries[i + kAhead].first)], 1, 1);
      const auto& [key, count] = entries[i];
      FG_DCHECK(key != 0 && count > 0);
      size_t slot = find_slot(key);
      FG_DCHECK(cells_[slot].key == 0);
      cells_[slot].key = key;
      cells_[slot].count = count;
    }
    size_ = entries.size();
  }

 private:
  struct Cell {
    uint64_t key = 0;
    int32_t count = 0;
  };

  /// Fibonacci-hashed home slot (capacity is a power of two).
  size_t home_of(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) & mask_;
  }

  /// First slot holding key, or the empty slot where it would insert.
  size_t find_slot(uint64_t key) const {
    size_t i = home_of(key);
    while (cells_[i].key != 0 && cells_[i].key != key) i = (i + 1) & mask_;
    return i;
  }

  /// Backward-shift deletion: pull displaced entries of the probe chain
  /// over the hole so lookups never need tombstones.
  void erase_at(size_t i) {
    size_t hole = i;
    size_t k = i;
    while (true) {
      k = (k + 1) & mask_;
      uint64_t key = cells_[k].key;
      if (key == 0) break;
      size_t home = home_of(key);
      if (((k - home) & mask_) >= ((k - hole) & mask_)) {
        cells_[hole] = cells_[k];
        hole = k;
      }
    }
    cells_[hole] = Cell{};
    --size_;
  }

  void reserve(size_t n) {
    size_t need = 16;
    while (need * 7 < n * 8) need <<= 1;
    if (need > cells_.size()) rehash(need);
  }

  void grow() { rehash(cells_.empty() ? 16 : cells_.size() * 2); }

  void rehash(size_t new_cap) {
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(new_cap, Cell{});
    mask_ = new_cap - 1;
    for (const Cell& c : old) {
      if (c.key == 0) continue;
      size_t i = find_slot(c.key);
      cells_[i] = c;
    }
  }

  std::vector<Cell> cells_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace fg::util
