// Mutable search state of the Johnson algorithm: the current path Pi, the
// blocked-vertex bookkeeping (Blk), and the unblock lists (Blist).
//
// One instance is owned by one thread at a time. The fine-grained parallel
// algorithm transfers state between threads with copy-on-steal: a stolen task
// copies the victim's state under `lock()` and then repairs it by truncating
// the path to the task's spawn-time prefix while recursively unblocking every
// removed vertex (Section 5 of the paper).
//
// Blocking is budget-aware so the same machinery implements cycle-length
// constraints: `fail_rem[v]` records the largest remaining-edge budget with
// which the search has already failed at v. A vertex may be visited only with
// a strictly larger budget. With unbounded search every visit uses the same
// budget constant, which degenerates to Johnson's boolean blocked set.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "graph/types.hpp"
#include "support/dynamic_bitset.hpp"
#include "support/spinlock.hpp"
#include "support/stats.hpp"

namespace parcycle {

class JohnsonState {
 public:
  // Budget value used while a vertex sits on the current path: blocks every
  // revisit regardless of budget.
  static constexpr std::int32_t kOnPath = std::numeric_limits<std::int32_t>::max();
  static constexpr std::int32_t kUnblocked = -1;

  JohnsonState() = default;
  explicit JohnsonState(VertexId capacity) { init(capacity); }

  void init(VertexId capacity) {
    capacity_ = capacity;
    path_.assign(capacity + 1, kInvalidVertex);
    path_edges_.assign(capacity + 1, kInvalidEdge);
    path_len_ = 0;
    fail_rem_.assign(capacity, kUnblocked);
    on_path_.resize(capacity);
    blist_.assign(capacity, {});
    touched_mark_.resize(capacity);
    touched_.clear();
  }

  VertexId capacity() const noexcept { return capacity_; }

  // O(touched) reset between searches.
  void reset() {
    for (std::size_t i = 0; i < path_len_; ++i) {
      on_path_.reset(path_[i]);
    }
    path_len_ = 0;
    for (const VertexId v : touched_) {
      fail_rem_[v] = kUnblocked;
      blist_[v].clear();
      touched_mark_.reset(v);
    }
    touched_.clear();
    counters = WorkCounters{};
  }

  // ---- path -----------------------------------------------------------

  std::size_t path_length() const noexcept { return path_len_; }
  VertexId path_vertex(std::size_t i) const noexcept { return path_[i]; }
  EdgeId path_edge(std::size_t i) const noexcept { return path_edges_[i]; }
  const VertexId* path_data() const noexcept { return path_.data(); }
  const EdgeId* path_edge_data() const noexcept { return path_edges_.data(); }
  VertexId frontier() const noexcept { return path_[path_len_ - 1]; }

  void push(VertexId v, EdgeId via_edge) {
    assert(path_len_ <= capacity_);
    path_[path_len_] = v;
    path_edges_[path_len_] = via_edge;
    path_len_ += 1;
    on_path_.set(v);
    mark_touched(v);
    fail_rem_[v] = kOnPath;
  }

  // Pops the frontier; its blocked status must already have been decided by
  // exit_success / exit_failure.
  void pop() {
    assert(path_len_ > 0);
    path_len_ -= 1;
    on_path_.reset(path_[path_len_]);
  }

  bool on_path(VertexId v) const noexcept { return on_path_.test(v); }

  // ---- blocking --------------------------------------------------------

  // May vertex v be entered with `rem` edges of budget left?
  bool can_visit(VertexId v, std::int32_t rem) const noexcept {
    return !on_path_.test(v) && rem > fail_rem_[v];
  }

  bool is_blocked(VertexId v, std::int32_t rem) const noexcept {
    return rem <= fail_rem_[v];
  }

  // Frontier exit when its subtree yielded a cycle: recursive unblocking.
  void exit_success(VertexId v) { unblock(v); }

  // Frontier exit without a cycle: record the failed budget. The caller then
  // registers v on the Blist of each relevant neighbor via blist_add.
  void exit_failure(VertexId v, std::int32_t rem) {
    mark_touched(v);
    fail_rem_[v] = rem;
  }

  // Registers "unblock v when w is unblocked".
  void blist_add(VertexId w, VertexId v) {
    auto& list = blist_[w];
    for (const VertexId existing : list) {
      if (existing == v) {
        return;
      }
    }
    mark_touched(w);
    list.push_back(v);
  }

  // Johnson's recursive unblocking procedure (iterative implementation).
  void unblock(VertexId v) {
    unblock_stack_.clear();
    unblock_stack_.push_back(v);
    while (!unblock_stack_.empty()) {
      const VertexId u = unblock_stack_.back();
      unblock_stack_.pop_back();
      if (fail_rem_[u] == kUnblocked) {
        continue;
      }
      counters.unblock_operations += 1;
      fail_rem_[u] = kUnblocked;
      for (const VertexId dependent : blist_[u]) {
        if (fail_rem_[dependent] != kUnblocked && !on_path_.test(dependent)) {
          unblock_stack_.push_back(dependent);
        }
      }
      blist_[u].clear();
    }
  }

  // ---- copy-on-steal ---------------------------------------------------

  Spinlock& lock() noexcept { return lock_; }

  // Copies `victim` into *this (which must be reset and have the same
  // capacity). Caller holds victim.lock().
  void copy_from(const JohnsonState& victim) {
    assert(capacity_ == victim.capacity_);
    assert(path_len_ == 0 && touched_.empty());
    path_len_ = victim.path_len_;
    for (std::size_t i = 0; i < path_len_; ++i) {
      path_[i] = victim.path_[i];
      path_edges_[i] = victim.path_edges_[i];
      on_path_.set(path_[i]);
    }
    for (const VertexId v : victim.touched_) {
      mark_touched(v);
      fail_rem_[v] = victim.fail_rem_[v];
      blist_[v] = victim.blist_[v];
    }
    counters.state_copies += 1;
  }

  // A task's position at its spawn: what a stolen copy is repaired back to.
  struct Mark {
    std::size_t path_len;
  };
  Mark mark() const noexcept { return {path_len_}; }
  void repair_to_prefix(const Mark& mark) { repair_to_prefix(mark.path_len); }

  // Repair after a steal: truncate the path to `prefix_len` and recursively
  // unblock every vertex the victim had appended after the task was spawned
  // (Pi_1 \ Pi_2 in the paper's notation).
  void repair_to_prefix(std::size_t prefix_len) {
    while (path_len_ > prefix_len) {
      const VertexId v = path_[path_len_ - 1];
      pop();
      unblock(v);
    }
  }

  // Truncates the path and clears blocking entirely below the prefix: the
  // "naive state restoration" strawman (keeps only path-induced blocking).
  void naive_restore_to_prefix(std::size_t prefix_len) {
    while (path_len_ > prefix_len) {
      pop();
    }
    for (const VertexId v : touched_) {
      if (!on_path_.test(v)) {
        fail_rem_[v] = kUnblocked;
      }
      blist_[v].clear();
    }
  }

  WorkCounters counters;

 private:
  void mark_touched(VertexId v) {
    if (touched_mark_.test_and_set(v)) {
      touched_.push_back(v);
    }
  }

  VertexId capacity_ = 0;
  std::vector<VertexId> path_;
  std::vector<EdgeId> path_edges_;
  std::size_t path_len_ = 0;
  std::vector<std::int32_t> fail_rem_;
  DynamicBitset on_path_;
  std::vector<std::vector<VertexId>> blist_;
  std::vector<VertexId> touched_;
  DynamicBitset touched_mark_;
  std::vector<VertexId> unblock_stack_;
  Spinlock lock_;
};

// Thread-safe pool of reusable per-search scratch objects. The coarse drivers
// check one out for the lifetime of one root search; the fine drivers check
// one out per 256-start block of roots. A stolen task that copies its
// creator's state checks one out for that copy. Contention is one lock per
// checkout.
template <typename T>
class ScratchPool {
 public:
  template <typename MakeFn>
  explicit ScratchPool(MakeFn&& make) : make_(std::forward<MakeFn>(make)) {}

  std::unique_ptr<T> acquire() {
    {
      LockGuard<Spinlock> guard(lock_);
      if (!free_.empty()) {
        std::unique_ptr<T> item = std::move(free_.back());
        free_.pop_back();
        return item;
      }
    }
    return make_();
  }

  void release(std::unique_ptr<T> item) {
    LockGuard<Spinlock> guard(lock_);
    free_.push_back(std::move(item));
  }

 private:
  std::function<std::unique_ptr<T>()> make_;
  Spinlock lock_;
  std::vector<std::unique_ptr<T>> free_;
};

}  // namespace parcycle
