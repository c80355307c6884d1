// Mutable search state of the hop-constrained BC-DFS enumerator: the current
// path Pi (a SearchPath), the per-vertex barrier values, and the rollback
// trail.
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

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "core/search_path.hpp"
#include "graph/types.hpp"
#include "support/dynamic_bitset.hpp"

namespace parcycle {

class HcState : public SearchPath {
 public:
  // A fresh vertex prunes nothing: every visit arrives with budget >= 1.
  static constexpr std::int32_t kNoBarrier = 0;

  explicit HcState(VertexId capacity)
      : SearchPath(capacity),
        marks_(capacity + 1, 0),
        bar_(capacity, kNoBarrier) {
    touched_mark_.resize(capacity);
  }

  // O(touched) reset between searches.
  void reset() {
    SearchPath::reset();
    for (const VertexId v : touched_) {
      bar_[v] = kNoBarrier;
      touched_mark_.reset(v);
    }
    touched_.clear();
    trail_.clear();
  }

  // ---- path -----------------------------------------------------------

  // Pushes v and remembers the trail size at its push. pop() leaves its
  // barrier fate to exit_success / exit_failure.
  void push(VertexId v, EdgeId via_edge) {
    marks_[path_length()] = trail_.size();
    SearchPath::push(v, via_edge);
  }

  // ---- barriers --------------------------------------------------------

  // May vertex v be entered with `rem` edges of budget left?
  bool can_visit(VertexId v, std::int32_t rem) const noexcept {
    return !on_path(v) && rem > bar_[v];
  }

  std::int32_t barrier(VertexId v) const noexcept { return bar_[v]; }

  // Frontier exit when its subtree yielded a cycle: the subtree's barrier
  // entries lose their failure certificates, undo them all.
  void exit_success(VertexId v) {
    assert(path_length() > 0 && frontier() == v);
    (void)v;
    rollback_to(marks_[path_length() - 1]);
  }

  // Frontier exit without a cycle: no completion with <= rem hops exists, so
  // raise the barrier (trail-recorded so an ancestor's success can undo it).
  void exit_failure(VertexId v, std::int32_t rem) {
    assert(path_length() > 0 && frontier() == v);
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

  // Copies `victim`'s path, barriers and trail into *this (which must be
  // reset and have the same capacity). Caller holds victim.lock().
  void copy_from(const HcState& victim) {
    assert(capacity() == victim.capacity());
    assert(touched_.empty() && trail_.empty());
    SearchPath::copy_from(victim);
    std::copy_n(victim.marks_.begin(), path_length(), marks_.begin());
    for (const VertexId v : victim.touched_) {
      mark_touched(v);
      bar_[v] = victim.bar_[v];
    }
    trail_ = victim.trail_;
  }

  // A task's position at its spawn: the path prefix and the trail size. A
  // task run in place on its creator's state only needs the path back at the
  // prefix: the trail may have grown with still-valid sibling barriers.
  struct Mark {
    std::size_t path_len;
    std::size_t trail_len;
  };
  Mark mark() const noexcept { return {path_length(), trail_.size()}; }

  // Repair after a steal: undo every barrier recorded after the task was
  // spawned (their subtrees' verdicts belong to the victim), then truncate
  // the path to the spawn-time prefix. The victim's trail never shrinks
  // below the spawn-time mark while the task is pending — rollbacks happen
  // only on the successful exit of vertices pushed after the spawn, whose
  // push marks are at least the spawn mark — so `mark.trail_len` is exact.
  void repair_to_prefix(const Mark& mark) {
    rollback_to(mark.trail_len);
    truncate(mark.path_len);
  }

  // Truncates the path and undoes the entire trail: the "naive state
  // restoration" strawman (keeps only path-induced pruning).
  void naive_restore_to_prefix(std::size_t prefix_len) {
    rollback_to(0);
    truncate(prefix_len);
  }

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

  std::vector<std::size_t> marks_;  // trail size when path vertex i was pushed
  std::vector<std::int32_t> bar_;
  std::vector<VertexId> touched_;
  DynamicBitset touched_mark_;
  std::vector<TrailEntry> trail_;
};

}  // namespace parcycle
