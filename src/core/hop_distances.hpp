// Hop distances to a target over reverse edges: an epoch-stamped reverse BFS
// bounded in depth, which BC-DFS's static and windowed distance prunes
// (core/hc_dfs.cpp) and the stream's reverse-BFS prune
// (stream/incremental.cpp) share. A vertex whose shortest route to the
// target needs more hops than a search has left cannot lie on any cycle it
// reports. Each BFS opens a new epoch, so consecutive searches clear in
// O(1). Immutable between two BFS runs, so every task of a fine search reads
// one instance without repair.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/types.hpp"
#include "robust/budget.hpp"

namespace parcycle {

class HopDistances {
 public:
  static constexpr std::int32_t kUnreachable =
      std::numeric_limits<std::int32_t>::max();

  // Covers vertex ids < n; growing keeps the current marks.
  void init(VertexId n) {
    if (n > stamp_.size()) {
      stamp_.resize(n, 0);
      dist_.resize(n, 0);
    }
  }

  // Hops from v to the target of the last BFS, or kUnreachable when the BFS
  // did not reach v.
  std::int32_t distance(VertexId v) const noexcept {
    return stamp_[v] == epoch_ ? dist_[v] : kUnreachable;
  }

  // Reverse BFS from `target`, expanding only vertices fewer than
  // `max_depth` hops away (every vertex when max_depth < 0). in_edges(v) is
  // the range of v's in-edges, and tail(e) the vertex edge e leaves, or
  // kInvalidVertex for an edge the caller rejects. With a budget, each
  // expanded vertex first charges it for its whole range; returns false when
  // the budget expired, and the distances are then incomplete.
  template <typename InEdges, typename Tail>
  bool compute(VertexId target, std::int32_t max_depth,
               const InEdges& in_edges, const Tail& tail,
               SearchBudgetState* budget = nullptr) {
    begin_epoch();
    stamp_[target] = epoch_;
    dist_[target] = 0;
    queue_.clear();
    queue_.push_back(target);
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const VertexId v = queue_[head];
      const std::int32_t d = dist_[v];
      if (max_depth >= 0 && d >= max_depth) {
        continue;
      }
      const auto edges = in_edges(v);
      if (budget != nullptr && !budget->charge(edges.size())) {
        return false;
      }
      for (const auto& e : edges) {
        const VertexId u = tail(e);
        if (u != kInvalidVertex && stamp_[u] != epoch_) {
          stamp_[u] = epoch_;
          dist_[u] = d + 1;
          queue_.push_back(u);
        }
      }
    }
    return true;
  }

 private:
  // Opens a fresh epoch. On the (rare) 32-bit wrap the stamps are cleared so
  // a mark from 2^32 searches ago can never alias the new epoch: O(V) once
  // per 4.3e9 searches.
  void begin_epoch() noexcept {
    epoch_ += 1;
    if (epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      epoch_ = 1;
    }
  }

  std::vector<std::uint32_t> stamp_;
  std::vector<std::int32_t> dist_;
  std::uint32_t epoch_ = 0;
  std::vector<VertexId> queue_;
};

}  // namespace parcycle
