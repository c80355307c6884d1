// Search state for temporal cycle enumeration with 2SCENT-style pruning
// (Kumar & Calders, PVLDB 2018), as adapted by Section 7 of the paper.
//
// Two optimisations over a plain time-respecting DFS:
//
//  * Closing times: ct[v] is a timestamp such that arriving at v at any time
//    >= ct[v] provably cannot close a temporal cycle. It generalises
//    Johnson's blocked set (blocked == ct[v] = -inf side; unblocked ==
//    ct[v] = +inf). Failures lower ct; successes and the unblock-list
//    cascade raise it. Raising is always sound (it only re-enables search).
//
//  * Path bundles: one recursive call carries, per path hop, the whole set of
//    usable parallel edges with per-arrival instance counts, so a vertex
//    sequence shared by many temporal cycles is walked once. Counts compose
//    by prefix sums; explicit cycles are expanded only when a sink asks.
//
// The unblock lists U[v] hold (u, t_e) records meaning: u failed while the
// edge u -> v @ t_e was unusable because t_e >= ct[v]; if ct[v] ever rises
// above t_e, u must be re-enabled for arrivals < t_e (raise ct[u] to t_e).
//
// Copy-on-steal follows the same protocol as JohnsonState: every structural
// mutation happens under lock(), a thief copies under the victim's lock and
// repairs by popping the path suffix while fully raising the closing time of
// each popped vertex.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

#include "graph/temporal_graph.hpp"
#include "graph/types.hpp"
#include "support/dynamic_bitset.hpp"
#include "support/spinlock.hpp"
#include "support/stats.hpp"

namespace parcycle {

// One usable edge of a path hop, with the number of time-respecting path
// instances that arrive through it (the bundle DP value).
struct BundleEdge {
  Timestamp ts;
  EdgeId id;
  std::uint64_t instances;
};

class ClosingTimeState {
 public:
  static constexpr Timestamp kNever = std::numeric_limits<Timestamp>::max();

  ClosingTimeState() = default;
  explicit ClosingTimeState(VertexId capacity) { init(capacity); }

  void init(VertexId capacity) {
    capacity_ = capacity;
    hops_.clear();
    path_len_ = 0;
    on_path_.resize(capacity);
    ct_.assign(capacity, kNever);
    ulists_.assign(capacity, {});
    touched_mark_.resize(capacity);
    touched_.clear();
  }

  VertexId capacity() const noexcept { return capacity_; }

  void reset() {
    for (std::size_t i = 0; i < path_len_; ++i) {
      on_path_.reset(hops_[i].vertex);
    }
    path_len_ = 0;
    for (const VertexId v : touched_) {
      ct_[v] = kNever;
      ulists_[v].clear();
      touched_mark_.reset(v);
    }
    touched_.clear();
    counters = WorkCounters{};
  }

  // ---- path / bundles -----------------------------------------------------

  struct Hop {
    VertexId vertex = kInvalidVertex;
    // Usable parallel edges into this vertex, ascending by ts. Non-bundled
    // searches store exactly one entry.
    std::vector<BundleEdge> edges;
  };

  std::size_t path_length() const noexcept { return path_len_; }
  const Hop& hop(std::size_t i) const noexcept { return hops_[i]; }
  VertexId frontier() const noexcept { return hops_[path_len_ - 1].vertex; }
  bool on_path(VertexId v) const noexcept { return on_path_.test(v); }

  // Pushes a hop; the returned Hop's edge list is cleared and ready to fill.
  Hop& push(VertexId v) {
    if (path_len_ == hops_.size()) {
      hops_.emplace_back();
    }
    Hop& hop = hops_[path_len_];
    hop.vertex = v;
    hop.edges.clear();
    path_len_ += 1;
    on_path_.set(v);
    return hop;
  }

  void pop() {
    assert(path_len_ > 0);
    path_len_ -= 1;
    on_path_.reset(hops_[path_len_].vertex);
  }

  // ---- explore frames -------------------------------------------------------

  // Scratch of the explore call at one path depth: the out-edges it walks
  // and the ranges of them it spawned as tasks. A call at depth d only
  // nests calls at depths > d on the same state, so no two live calls share
  // a frame; the buffers keep their capacity across calls and are never
  // copied on steal (a state is only ever run by one worker at a time).
  struct Frame {
    std::vector<TemporalGraph::OutEdge> edges;
    std::vector<std::pair<std::size_t, std::size_t>> spawned;
  };

  // The frame of depth `depth`; a deque, so growing it for a nested call
  // leaves the outer calls' references valid.
  Frame& frame(std::size_t depth) {
    while (frames_.size() <= depth) {
      frames_.emplace_back();
    }
    return frames_[depth];
  }

  // ---- closing times ------------------------------------------------------

  Timestamp closing_time(VertexId v) const noexcept { return ct_[v]; }

  // May an edge arriving at v at time `ts` still close a cycle?
  bool arrival_open(VertexId v, Timestamp ts) const noexcept {
    return ts < ct_[v];
  }

  // Failure: arrivals at v at time >= `ts` provably fail.
  void lower_closing_time(VertexId v, Timestamp ts) {
    if (ts < ct_[v]) {
      mark_touched(v);
      ct_[v] = ts;
    }
  }

  // Registers "if ct[w] rises above t_e, re-enable u for arrivals < t_e".
  void register_unblock(VertexId w, VertexId u, Timestamp t_e) {
    mark_touched(w);
    auto& list = ulists_[w];
    for (const auto& entry : list) {
      if (entry.waiter == u && entry.edge_ts == t_e) {
        return;
      }
    }
    list.push_back(UEntry{u, t_e});
  }

  // Raises ct[v] to at least `new_ct` and cascades through the unblock
  // lists (2SCENT's unblock procedure; Johnson's recursive unblocking when
  // new_ct == kNever).
  void raise_closing_time(VertexId v, Timestamp new_ct) {
    raise_stack_.clear();
    raise_stack_.push_back(RaiseOp{v, new_ct});
    while (!raise_stack_.empty()) {
      const RaiseOp op = raise_stack_.back();
      raise_stack_.pop_back();
      if (op.to <= ct_[op.vertex]) {
        continue;
      }
      counters.unblock_operations += 1;
      mark_touched(op.vertex);
      ct_[op.vertex] = op.to;
      auto& list = ulists_[op.vertex];
      std::size_t keep = 0;
      for (std::size_t i = 0; i < list.size(); ++i) {
        const UEntry entry = list[i];
        if (entry.edge_ts < op.to) {
          // The edge into op.vertex is usable again; its waiter may retry
          // with arrivals before the edge's timestamp.
          raise_stack_.push_back(RaiseOp{entry.waiter, entry.edge_ts});
        } else {
          list[keep++] = entry;
        }
      }
      list.resize(keep);
    }
  }

  // ---- copy-on-steal --------------------------------------------------------

  Spinlock& lock() noexcept { return lock_; }

  // Copies `victim` into *this (reset, same capacity). Caller holds
  // victim.lock().
  void copy_from(const ClosingTimeState& victim) {
    assert(capacity_ == victim.capacity_);
    assert(path_len_ == 0 && touched_.empty());
    for (std::size_t i = 0; i < victim.path_len_; ++i) {
      Hop& hop = push(victim.hops_[i].vertex);
      hop.edges = victim.hops_[i].edges;
    }
    for (const VertexId v : victim.touched_) {
      mark_touched(v);
      ct_[v] = victim.ct_[v];
      ulists_[v] = victim.ulists_[v];
    }
    counters.state_copies += 1;
  }

  // A task's position at its spawn: what a stolen copy is repaired back to.
  struct Mark {
    std::size_t path_len;
  };
  Mark mark() const noexcept { return {path_len_}; }
  void repair_to_prefix(const Mark& mark) { repair_to_prefix(mark.path_len); }

  // Post-steal repair: truncate to the spawn-time prefix, fully re-opening
  // every vertex the victim had appended since (the temporal analogue of the
  // recursive-unblocking repair of Section 5).
  void repair_to_prefix(std::size_t prefix_len) {
    while (path_len_ > prefix_len) {
      const VertexId v = frontier();
      pop();
      raise_closing_time(v, kNever);
    }
  }

  // Ablation strawman: truncate and drop all blocking knowledge.
  void naive_restore_to_prefix(std::size_t prefix_len) {
    while (path_len_ > prefix_len) {
      pop();
    }
    for (const VertexId v : touched_) {
      ct_[v] = kNever;
      ulists_[v].clear();
    }
  }

  WorkCounters counters;

 private:
  struct UEntry {
    VertexId waiter;
    Timestamp edge_ts;
  };
  struct RaiseOp {
    VertexId vertex;
    Timestamp to;
  };

  void mark_touched(VertexId v) {
    if (touched_mark_.test_and_set(v)) {
      touched_.push_back(v);
    }
  }

  VertexId capacity_ = 0;
  std::vector<Hop> hops_;
  std::size_t path_len_ = 0;
  std::deque<Frame> frames_;
  DynamicBitset on_path_;
  std::vector<Timestamp> ct_;
  std::vector<std::vector<UEntry>> ulists_;
  std::vector<VertexId> touched_;
  DynamicBitset touched_mark_;
  std::vector<RaiseOp> raise_stack_;
  Spinlock lock_;
};

}  // namespace parcycle
