// Reorder stage of the stream engine: a bucket ring over the slack.
//
// The engine accepts an arrival only when its timestamp is at or above the
// late floor, and the floor never moves backwards, so the buffered keys are
// monotone: every buffered edge lies in [floor, max_seen], a span of at most
// slack + 1 timestamps. That makes a comparison heap unnecessary. The buffer
// keeps one bucket per key `ts >> shift` in a ring of at most kMaxBuckets
// int32 chain heads; the chains live in one node pool with a free list, and
// one occupancy bit per bucket lets a release skip empty buckets a word at a
// time. `shift` is 0 whenever the span fits the ring, so a bucket then holds
// a single timestamp.
//
// Cost: O(1) per insert; a release visits each non-empty bucket it drains
// once and sorts a bucket's chain by (ts, src, dst) only when the chain holds
// more than one edge, which keeps the release order canonical — the order a
// batch TemporalGraph sorts into. Memory: 4 bytes per bucket head plus one
// bit per bucket (at most 256 KiB + 8 KiB), and a 24-byte pool node per
// buffered edge, bounded by the peak buffered count.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "graph/types.hpp"

namespace parcycle {

class ReorderBuffer {
 public:
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 16;

  ReorderBuffer() { reset(0, std::numeric_limits<Timestamp>::min()); }

  // Empties the buffer and sizes the ring for buffered timestamps spanning at
  // most `span` units above `floor`, the lowest timestamp a later insert may
  // carry. Callers pass max(slack, max_seen - floor).
  void reset(std::uint64_t span, Timestamp floor);

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  // Bucket geometry, exposed for tests.
  std::size_t buckets() const noexcept { return heads_.size(); }
  int shift() const noexcept { return shift_; }

  // Buffers one edge. Its timestamp must be at or above the floor of the last
  // reset or release_below and at most `span` above it.
  void insert(VertexId src, VertexId dst, Timestamp ts);

  // Hands every buffered edge with ts < floor to `emit`, in canonical
  // order, and raises the ring's floor to `floor`. The size drops by one
  // before each emit, so `emit` may read size() as the count still buffered.
  template <typename Emit>
  void release_below(Timestamp floor, Emit&& emit) {
    const std::int64_t floor_key = key_of(floor);
    while (size_ > 0) {
      const auto [idx, key] = first_occupied();
      // A bucket below the floor's is drained whole. The floor's own bucket
      // straddles the floor only when it spans several timestamps.
      if (key > floor_key || (key == floor_key && shift_ == 0)) {
        break;
      }
      cursor_key_ = key;
      take(idx, [floor](Timestamp ts) { return ts < floor; });
      emit_taken(emit);
      if (key == floor_key) {
        break;
      }
    }
    cursor_key_ = std::max(cursor_key_, floor_key);
  }

  // Hands every buffered edge to `emit`, in canonical order, and raises the
  // ring's floor to `floor`, which must not precede any edge drained.
  template <typename Emit>
  void drain(Timestamp floor, Emit&& emit) {
    while (size_ > 0) {
      const auto [idx, key] = first_occupied();
      cursor_key_ = key;
      take(idx, [](Timestamp) { return true; });
      emit_taken(emit);
    }
    assert(key_of(floor) >= cursor_key_);
    cursor_key_ = key_of(floor);
  }

  // The buffered edges in canonical order (ids kInvalidEdge).
  std::vector<TemporalEdge> sorted() const;

 private:
  struct Node {
    Timestamp ts;
    VertexId src;
    VertexId dst;
    std::int32_t next;  // pool index of the next chain node, -1 ends it
  };

  static bool canonical_less(const TemporalEdge& a, const TemporalEdge& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.src != b.src) return a.src < b.src;
    return a.dst < b.dst;
  }

  std::size_t mask() const noexcept { return heads_.size() - 1; }
  std::int64_t key_of(Timestamp ts) const noexcept { return ts >> shift_; }
  std::size_t index_of(std::int64_t key) const noexcept {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(key)) & mask();
  }

  // Index and key of the first non-empty bucket at or after the cursor,
  // wrapping around the ring; size_ must be > 0.
  std::pair<std::size_t, std::int64_t> first_occupied() const noexcept {
    const std::size_t from = index_of(cursor_key_);
    const std::size_t word_mask = occupied_.size() - 1;
    std::size_t word = from >> 6;
    std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (from & 63));
    while (bits == 0) {
      word = (word + 1) & word_mask;
      bits = occupied_[word];
    }
    const std::size_t idx =
        (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
    return {idx, cursor_key_ + static_cast<std::int64_t>((idx - from) & mask())};
  }

  // Unlinks the nodes of bucket `idx` whose ts satisfies `pred` into taken_,
  // sorted canonically. The nodes return to the free list.
  template <typename Pred>
  void take(std::size_t idx, Pred pred) {
    taken_.clear();
    std::int32_t* link = &heads_[idx];
    while (*link >= 0) {
      Node& node = nodes_[static_cast<std::size_t>(*link)];
      if (!pred(node.ts)) {
        link = &node.next;
        continue;
      }
      taken_.push_back(TemporalEdge{node.src, node.dst, node.ts, kInvalidEdge});
      const std::int32_t freed = *link;
      *link = node.next;
      node.next = free_;
      free_ = freed;
    }
    if (heads_[idx] < 0) {
      occupied_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    }
    if (taken_.size() > 1) {
      std::sort(taken_.begin(), taken_.end(), canonical_less);
    }
  }

  template <typename Emit>
  void emit_taken(Emit& emit) {
    for (const TemporalEdge& edge : taken_) {
      size_ -= 1;
      emit(edge);
    }
  }

  std::vector<std::int32_t> heads_;      // per bucket: first node, -1 = empty
  std::vector<std::uint64_t> occupied_;  // one bit per non-empty bucket
  std::vector<Node> nodes_;
  std::int32_t free_ = -1;  // free-list head in nodes_
  std::vector<TemporalEdge> taken_;  // one released bucket, sorted
  std::size_t size_ = 0;
  int shift_ = 0;
  // Key of the lowest bucket that may be non-empty; every buffered key lies
  // in [cursor_key_, cursor_key_ + buckets()).
  std::int64_t cursor_key_ = 0;
};

}  // namespace parcycle
