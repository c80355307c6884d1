// Mutable search state of the hop-constrained BC-DFS enumerator: the current
// path Pi, the per-vertex barrier values, and the rollback trail.
//
// A barrier bar(v) = b records that the search has already failed to close a
// cycle from v with b remaining hops, so any revisit of v with budget <= b is
// pruned. Barriers are sound under the following discipline (the BC-DFS
// invariant): entries recorded inside a *failed* subtree stay valid as the
// path unwinds — when the subtree root u pops after failure, its own barrier
// certifies that no admissible completion runs through u, so the deeper
// entries cannot be invalidated by u leaving the path. Entries recorded
// inside a *successful* subtree carry no such certificate, so the exit of a
// vertex whose subtree reported a cycle rolls the trail back to the position
// it had when that vertex was pushed ("barriers are relaxed on cycle
// discovery"). Compared with Johnson's blocked sets this trades the Blist
// machinery and its recursive unblocking for a simple LIFO undo, which keeps
// the exit critical section of the fine-grained variant short.
//
// One instance is owned by one thread at a time. The fine-grained parallel
// variant transfers state between threads with copy-on-steal: a stolen task
// copies the victim's state under `lock()` and repairs it by truncating the
// path to the task's spawn-time prefix and rolling the trail back to the
// spawn-time mark (every barrier recorded after the spawn may belong to a
// subtree whose success/failure verdict the thief cannot know).
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/temporal_graph.hpp"
#include "graph/types.hpp"
#include "support/dynamic_bitset.hpp"
#include "support/spinlock.hpp"
#include "support/stats.hpp"

namespace parcycle {

class HcState {
 public:
  // A fresh vertex prunes nothing: every visit arrives with budget >= 1.
  static constexpr std::int32_t kNoBarrier = 0;

  HcState() = default;
  explicit HcState(VertexId capacity) { init(capacity); }

  void init(VertexId capacity) {
    capacity_ = capacity;
    path_.assign(capacity + 1, kInvalidVertex);
    path_edges_.assign(capacity + 1, kInvalidEdge);
    marks_.assign(capacity + 1, 0);
    path_len_ = 0;
    bar_.assign(capacity, kNoBarrier);
    on_path_.resize(capacity);
    touched_mark_.resize(capacity);
    touched_.clear();
    trail_.clear();
  }

  VertexId capacity() const noexcept { return capacity_; }

  // O(touched) reset between searches.
  void reset() {
    for (std::size_t i = 0; i < path_len_; ++i) {
      on_path_.reset(path_[i]);
    }
    path_len_ = 0;
    for (const VertexId v : touched_) {
      bar_[v] = kNoBarrier;
      touched_mark_.reset(v);
    }
    touched_.clear();
    trail_.clear();
    counters = WorkCounters{};
  }

  // ---- path -----------------------------------------------------------

  std::size_t path_length() const noexcept { return path_len_; }
  VertexId path_vertex(std::size_t i) const noexcept { return path_[i]; }
  EdgeId path_edge(std::size_t i) const noexcept { return path_edges_[i]; }
  const VertexId* path_data() const noexcept { return path_.data(); }
  VertexId frontier() const noexcept { return path_[path_len_ - 1]; }

  void push(VertexId v, EdgeId via_edge) {
    assert(path_len_ <= capacity_);
    path_[path_len_] = v;
    path_edges_[path_len_] = via_edge;
    marks_[path_len_] = trail_.size();
    path_len_ += 1;
    on_path_.set(v);
  }

  // Pops the frontier; its barrier fate must already have been decided by
  // exit_success / exit_failure.
  void pop() {
    assert(path_len_ > 0);
    path_len_ -= 1;
    on_path_.reset(path_[path_len_]);
  }

  bool on_path(VertexId v) const noexcept { return on_path_.test(v); }

  // ---- barriers --------------------------------------------------------

  // May vertex v be entered with `rem` edges of budget left?
  bool can_visit(VertexId v, std::int32_t rem) const noexcept {
    return !on_path_.test(v) && rem > bar_[v];
  }

  std::int32_t barrier(VertexId v) const noexcept { return bar_[v]; }

  // Frontier exit when its subtree yielded a cycle: the subtree's barrier
  // entries lose their failure certificates, undo them all.
  void exit_success(VertexId v) {
    assert(path_len_ > 0 && path_[path_len_ - 1] == v);
    (void)v;
    rollback_to(marks_[path_len_ - 1]);
  }

  // Frontier exit without a cycle: no completion with <= rem hops exists, so
  // raise the barrier (trail-recorded so an ancestor's success can undo it).
  void exit_failure(VertexId v, std::int32_t rem) {
    assert(path_len_ > 0 && path_[path_len_ - 1] == v);
    raise_barrier(v, rem);
  }

  void raise_barrier(VertexId v, std::int32_t rem) {
    if (rem <= bar_[v]) {
      return;
    }
    mark_touched(v);
    trail_.push_back({v, bar_[v]});
    bar_[v] = rem;
  }

  // ---- trail -----------------------------------------------------------

  // Restores every barrier recorded at or after `mark`, newest first.
  void rollback_to(std::size_t mark) {
    assert(mark <= trail_.size());
    while (trail_.size() > mark) {
      const TrailEntry entry = trail_.back();
      trail_.pop_back();
      bar_[entry.vertex] = entry.old_barrier;
      counters.unblock_operations += 1;
    }
  }

  // ---- copy-on-steal ---------------------------------------------------

  Spinlock& lock() noexcept { return lock_; }

  // Copies `victim` into *this (which must be reset and have the same
  // capacity). Caller holds victim.lock().
  void copy_from(const HcState& victim) {
    assert(capacity_ == victim.capacity_);
    assert(path_len_ == 0 && touched_.empty() && trail_.empty());
    path_len_ = victim.path_len_;
    for (std::size_t i = 0; i < path_len_; ++i) {
      path_[i] = victim.path_[i];
      path_edges_[i] = victim.path_edges_[i];
      marks_[i] = victim.marks_[i];
      on_path_.set(path_[i]);
    }
    for (const VertexId v : victim.touched_) {
      mark_touched(v);
      bar_[v] = victim.bar_[v];
    }
    trail_ = victim.trail_;
    counters.state_copies += 1;
  }

  // A task's position at its spawn: the path prefix and the trail size. A
  // task run in place on its creator's state only needs the path back at the
  // prefix: the trail may have grown with still-valid sibling barriers.
  struct Mark {
    std::size_t path_len;
    std::size_t trail_len;
  };
  Mark mark() const noexcept { return {path_len_, trail_.size()}; }

  // Repair after a steal: undo every barrier recorded after the task was
  // spawned (their subtrees' verdicts belong to the victim), then truncate
  // the path to the spawn-time prefix. The victim's trail never shrinks
  // below the spawn-time mark while the task is pending — rollbacks happen
  // only on the successful exit of vertices pushed after the spawn, whose
  // push marks are at least the spawn mark — so `mark.trail_len` is exact.
  void repair_to_prefix(const Mark& mark) {
    assert(mark.trail_len <= trail_.size());
    rollback_to(mark.trail_len);
    while (path_len_ > mark.path_len) {
      pop();
    }
  }

  // Truncates the path and undoes the entire trail: the "naive state
  // restoration" strawman (keeps only path-induced pruning).
  void naive_restore_to_prefix(std::size_t prefix_len) {
    rollback_to(0);
    while (path_len_ > prefix_len) {
      pop();
    }
  }

  WorkCounters counters;

 private:
  struct TrailEntry {
    VertexId vertex;
    std::int32_t old_barrier;
  };

  void mark_touched(VertexId v) {
    if (touched_mark_.test_and_set(v)) {
      touched_.push_back(v);
    }
  }

  VertexId capacity_ = 0;
  std::vector<VertexId> path_;
  std::vector<EdgeId> path_edges_;
  std::vector<std::size_t> marks_;  // trail size when path_[i] was pushed
  std::size_t path_len_ = 0;
  std::vector<std::int32_t> bar_;
  DynamicBitset on_path_;
  std::vector<VertexId> touched_;
  DynamicBitset touched_mark_;
  std::vector<TrailEntry> trail_;
  Spinlock lock_;
};

// Hop distances to the search target, used as the static pruning half of
// BC-DFS: a vertex whose shortest admissible route back to the target needs
// more hops than the remaining budget cannot lie on any reported cycle.
// Epoch-stamped so consecutive searches clear in O(touched). Immutable during
// a search, so the fine-grained variant shares one instance per root search
// across all of its tasks without repair.
class HcDistScratch {
 public:
  static constexpr std::int32_t kUnreachable =
      std::numeric_limits<std::int32_t>::max();

  void init(VertexId n) {
    stamp_.assign(n, 0);
    dist_.assign(n, 0);
    epoch_ = 0;
  }

  // Reverse BFS from `root` over in-neighbors within the subgraph induced by
  // {v >= root}, bounded at `max_depth` hops. Returns true when root has at
  // least one admissible in-neighbor (otherwise no cycle is rooted here).
  bool compute_static(const Digraph& graph, VertexId root,
                      std::int32_t max_depth);

  // Reverse BFS from the start edge's tail over admissible in-edges
  // (id > e0, ts in [t0, hi]), bounded at `max_depth` hops.
  void compute_windowed(const TemporalGraph& graph, VertexId tail, EdgeId e0,
                        Timestamp t0, Timestamp hi, std::int32_t max_depth);

  // Hops needed to reach the target from v, or kUnreachable when v cannot
  // reach it within the computed bound.
  std::int32_t dist_to_target(VertexId v) const noexcept {
    return stamp_[v] == epoch_ ? dist_[v] : kUnreachable;
  }

 private:
  void begin_epoch(VertexId target) {
    epoch_ += 1;
    queue_.clear();
    stamp_[target] = epoch_;
    dist_[target] = 0;
    queue_.push_back(target);
  }

  std::vector<std::uint32_t> stamp_;
  std::vector<std::int32_t> dist_;
  std::uint32_t epoch_ = 0;
  std::vector<VertexId> queue_;
};

}  // namespace parcycle
