#include "stream/reorder_buffer.hpp"

#include <stdexcept>

namespace parcycle {

void ReorderBuffer::reset(std::uint64_t span, Timestamp floor) {
  // Buffered keys run from key_of(floor) to key_of(floor + span): span + 1
  // buckets at shift 0, at most (span >> shift) + 2 above it.
  std::size_t buckets = kMaxBuckets;
  shift_ = 0;
  if (span < kMaxBuckets) {
    buckets = std::bit_ceil(static_cast<std::size_t>(span) + 1);
  } else {
    shift_ = 1;
    while ((span >> shift_) + 2 > kMaxBuckets) {
      shift_ += 1;
    }
  }
  heads_.assign(buckets, -1);
  occupied_.assign(std::max<std::size_t>(1, buckets / 64), 0);
  nodes_.clear();
  free_ = -1;
  size_ = 0;
  cursor_key_ = key_of(floor);
}

void ReorderBuffer::insert(VertexId src, VertexId dst, Timestamp ts) {
  const std::int64_t key = key_of(ts);
  assert(key >= cursor_key_ &&
         static_cast<std::uint64_t>(key) -
                 static_cast<std::uint64_t>(cursor_key_) <
             heads_.size());
  const std::size_t idx = index_of(key);
  std::int32_t node = free_;
  if (node >= 0) {
    free_ = nodes_[static_cast<std::size_t>(node)].next;
    nodes_[static_cast<std::size_t>(node)] = Node{ts, src, dst, heads_[idx]};
  } else {
    if (nodes_.size() >=
        static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max())) {
      throw std::length_error("ReorderBuffer: node pool exhausted");
    }
    node = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(Node{ts, src, dst, heads_[idx]});
  }
  heads_[idx] = node;
  occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
  size_ += 1;
}

std::vector<TemporalEdge> ReorderBuffer::sorted() const {
  std::vector<TemporalEdge> edges;
  edges.reserve(size_);
  for (const std::int32_t head : heads_) {
    for (std::int32_t n = head; n >= 0;
         n = nodes_[static_cast<std::size_t>(n)].next) {
      const Node& node = nodes_[static_cast<std::size_t>(n)];
      edges.push_back(TemporalEdge{node.src, node.dst, node.ts, kInvalidEdge});
    }
  }
  std::sort(edges.begin(), edges.end(), canonical_less);
  return edges;
}

}  // namespace parcycle
