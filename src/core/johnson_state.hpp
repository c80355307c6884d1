// Mutable search state of the Johnson algorithm: the current path Pi (a
// SearchPath), the blocked-vertex bookkeeping (Blk), and the unblock lists
// (Blist).
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
#include <limits>
#include <vector>

#include "core/search_path.hpp"
#include "graph/types.hpp"
#include "support/dynamic_bitset.hpp"

namespace parcycle {

class JohnsonState : public SearchPath {
 public:
  // Budget value used while a vertex sits on the current path: blocks every
  // revisit regardless of budget.
  static constexpr std::int32_t kOnPath = std::numeric_limits<std::int32_t>::max();
  static constexpr std::int32_t kUnblocked = -1;

  explicit JohnsonState(VertexId capacity)
      : SearchPath(capacity),
        fail_rem_(capacity, kUnblocked),
        blist_(capacity) {
    touched_mark_.resize(capacity);
  }

  // O(touched) reset between searches.
  void reset() {
    SearchPath::reset();
    for (const VertexId v : touched_) {
      fail_rem_[v] = kUnblocked;
      blist_[v].clear();
      touched_mark_.reset(v);
    }
    touched_.clear();
  }

  // ---- path -----------------------------------------------------------

  // Pushes v, which blocks every revisit while it is on the path. pop()
  // leaves its blocked status to exit_success / exit_failure.
  void push(VertexId v, EdgeId via_edge) {
    SearchPath::push(v, via_edge);
    mark_touched(v);
    fail_rem_[v] = kOnPath;
  }

  // ---- blocking --------------------------------------------------------

  // May vertex v be entered with `rem` edges of budget left?
  bool can_visit(VertexId v, std::int32_t rem) const noexcept {
    return !on_path(v) && rem > fail_rem_[v];
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
        if (fail_rem_[dependent] != kUnblocked && !on_path(dependent)) {
          unblock_stack_.push_back(dependent);
        }
      }
      blist_[u].clear();
    }
  }

  // ---- copy-on-steal ---------------------------------------------------

  // Copies `victim`'s path and blocking into *this (which must be reset and
  // have the same capacity). Caller holds victim.lock().
  void copy_from(const JohnsonState& victim) {
    assert(capacity() == victim.capacity() && touched_.empty());
    SearchPath::copy_from(victim);
    for (const VertexId v : victim.touched_) {
      mark_touched(v);
      fail_rem_[v] = victim.fail_rem_[v];
      blist_[v] = victim.blist_[v];
    }
  }

  // Repair after a steal: truncate the path to the spawn-time prefix and
  // recursively unblock every vertex the victim had appended after the task
  // was spawned (Pi_1 \ Pi_2 in the paper's notation).
  void repair_to_prefix(const Mark& mark) {
    while (path_length() > mark.path_len) {
      const VertexId v = frontier();
      pop();
      unblock(v);
    }
  }

  // Truncates the path and clears blocking entirely below the prefix: the
  // "naive state restoration" strawman (keeps only path-induced blocking).
  void naive_restore_to_prefix(std::size_t prefix_len) {
    truncate(prefix_len);
    for (const VertexId v : touched_) {
      if (!on_path(v)) {
        fail_rem_[v] = kUnblocked;
      }
      blist_[v].clear();
    }
  }

 private:
  void mark_touched(VertexId v) {
    if (touched_mark_.test_and_set(v)) {
      touched_.push_back(v);
    }
  }

  std::vector<std::int32_t> fail_rem_;
  std::vector<std::vector<VertexId>> blist_;
  std::vector<VertexId> touched_;
  DynamicBitset touched_mark_;
  std::vector<VertexId> unblock_stack_;
};

}  // namespace parcycle
