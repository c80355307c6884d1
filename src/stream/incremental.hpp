// Incremental temporal cycle enumeration: the cycles closed by one arriving
// edge.
//
// A temporal cycle (strictly increasing edge timestamps, span <= delta) is
// closed by its unique maximum-timestamp edge. When (u -> v, t) arrives, the
// cycles it closes are exactly the strictly-time-increasing paths
// v -> ... -> u whose edges all have ts in [t - delta, t - 1], plus the
// closing edge itself — so replaying a stream edge-by-edge enumerates every
// temporal cycle of the batch semantics exactly once, as it forms. This is
// the online framing of 2SCENT and of the journal version of the paper; the
// search itself is the library's time-respecting DFS seeded at v with target
// u, run against the live SlidingWindowGraph instead of a frozen CSR.
//
// Both entry points run one DFS visit, written once over a spawner the way
// the batch drivers' searches are (core/driver.hpp), after one shared
// prologue: the lane settle test and the optional pruning (a hop-aware
// reverse BFS from the target over the window, gated by
// EnumOptions::use_cycle_union).
//  * cycles_closed_by_edge       — the visit on roots::SerialSpawner: a
//    plain recursive loop on caller-owned scratch;
//  * fine_cycles_closed_by_edge  — the visit on a fine run: any branch may
//    become a scheduler task. A task that its creator's worker runs in place
//    extends the creator's path; a stolen one copies the creator's path
//    under its lock into a scratch drawn from a pool and truncates it back
//    to the branch's prefix (copy-on-steal). The search keeps no blocking
//    state, so cycle and edge-visit counts are schedule-independent.
//
// EnumOptions::max_cycle_length bounds the cycle length as in the batch
// algorithms; path_bundling is ignored (per-edge searches walk individual
// edges). A self-loop arrival closes a 1-cycle immediately.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/cycle_types.hpp"
#include "core/options.hpp"
#include "graph/types.hpp"
#include "robust/budget.hpp"
#include "stream/sliding_window_graph.hpp"
#include "support/dynamic_bitset.hpp"
#include "support/scheduler.hpp"
#include "support/spinlock.hpp"
#include "support/stats.hpp"

namespace parcycle {

template <typename T>
class ScratchPool;

// Reusable per-searcher scratch: epoch-stamped reverse-BFS distances plus the
// DFS path state. Not thread-safe, apart from the copy-on-steal contract
// below; the engine pools them.
class StreamSearchScratch {
 public:
  // Grows the scratch to cover vertex ids < n; cheap when already large
  // enough (the streaming vertex set grows monotonically).
  void ensure(VertexId n);

  // -- reverse-BFS prune marks (one epoch per per-edge search) --------------

  // Opens a fresh epoch, invalidating all marks in O(1). On the (rare)
  // 32-bit wrap the stamps are cleared so a mark from 2^32 searches ago can
  // never alias the new epoch — O(V) once per 4.3e9 searches.
  void begin_epoch() noexcept {
    epoch_ += 1;
    if (epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      epoch_ = 1;
    }
  }
  void mark(VertexId v, std::int32_t dist) noexcept {
    stamp_[v] = epoch_;
    dist_[v] = dist;
  }
  bool reached(VertexId v) const noexcept { return stamp_[v] == epoch_; }
  // Minimum hops to the target over window-restricted reverse edges; valid
  // only when reached(v).
  std::int32_t distance(VertexId v) const noexcept { return dist_[v]; }

  // -- DFS path state ---------------------------------------------------------
  // The path from the closing edge's head: path_edges[i] enters
  // path_vertices[i + 1], and on_path holds the path's vertices. A fine
  // search changes the path only under lock(), and a branch stolen by
  // another worker copies it from there (copy_from) and truncates it back to
  // the branch's spawn-time Mark. The search keeps no blocking state, so that
  // truncation is the whole repair.
  DynamicBitset on_path;
  std::vector<VertexId> path_vertices;
  std::vector<EdgeId> path_edges;
  std::vector<VertexId> bfs_queue;
  // The counters of the search on this scratch, or of a stolen branch's.
  WorkCounters counters;

  std::size_t path_length() const noexcept { return path_vertices.size(); }
  // Pushes the head (no entering edge), or a vertex entered by `via`.
  void push(VertexId v) {
    path_vertices.push_back(v);
    on_path.set(v);
  }
  void push(VertexId v, EdgeId via) {
    path_edges.push_back(via);
    push(v);
  }
  void pop() { truncate(path_length() - 1); }
  // Keeps the first `len` path vertices and the edges between them.
  void truncate(std::size_t len) {
    while (path_vertices.size() > len) {
      on_path.reset(path_vertices.back());
      path_vertices.pop_back();
    }
    path_edges.resize(len == 0 ? 0 : len - 1);
  }
  // An empty path and zeroed counters.
  void reset() {
    truncate(0);
    counters = WorkCounters{};
  }

  Spinlock& lock() noexcept { return lock_; }
  // Copies `victim`'s path into this reset scratch. Caller holds
  // victim.lock().
  void copy_from(const StreamSearchScratch& victim);
  // A branch's position at its spawn: what a stolen copy is truncated to.
  struct Mark {
    std::size_t path_len;
  };
  Mark mark() const noexcept { return {path_length()}; }
  void repair_to_prefix(const Mark& mark) { truncate(mark.path_len); }
  // With no blocking state to drop, the ablation restore is the same.
  void naive_restore_to_prefix(std::size_t len) { truncate(len); }

 private:
  std::vector<std::uint32_t> stamp_;
  std::vector<std::int32_t> dist_;
  std::uint32_t epoch_ = 0;
  Spinlock lock_;
};

// Out-edges of one vertex inside a search window.
using StreamOutEdges = std::span<const SlidingWindowGraph::OutEdge>;

// Enumerates the cycles closed by `closing` (which must already be ingested,
// or at least have no bearing on the window: the search only reads edges with
// ts < closing.ts). Counters accumulate into `work`; cycles are reported to
// `sink` (nullable) with the closing hop last, in the library's canonical
// vertex/edge lockstep convention. Returns the number of cycles closed.
//
// `budget` (nullable) is the cooperative deadline: every edge the search (or
// its reverse-BFS prune) touches charges it, and once it expires the search
// unwinds, reporting only the cycles found so far — a PARTIAL lower bound,
// recorded once in work.searches_truncated. In the serial variant the
// truncation point is deterministic for an edge-visit cap; under the fine
// variant concurrent branches share the budget, so only the fact of
// truncation is schedule-independent.
std::uint64_t cycles_closed_by_edge(const SlidingWindowGraph& graph,
                                    const TemporalEdge& closing,
                                    Timestamp window,
                                    const EnumOptions& options,
                                    StreamSearchScratch& scratch,
                                    WorkCounters& work,
                                    CycleSink* sink = nullptr,
                                    SearchBudgetState* budget = nullptr);

// One edge-lane: a closing edge searched under one window length. Its settle
// decision is made once, before any search (or clock read): the lane settles
// — no search runs — when the closing edge is a self-loop (it closes its own
// 1-cycle and nothing else), when the window is empty or ts is the
// Timestamp minimum, when the head has no live out-edge in
// [ts - window, ts - 1], or when the tail has no live in-edge there. The
// tail is looked up only when the head is not empty.
struct EdgeLane {
  // The head's in-window out-edges: the search's root step, and the
  // engine's escalation frontier. Empty for a self-loop.
  StreamOutEdges head_out;
  bool settled = false;
};

EdgeLane settle_edge_lane(const SlidingWindowGraph& graph,
                          const TemporalEdge& closing, Timestamp window);

// The same search for a caller that already settled the lane: `lane` must
// equal settle_edge_lane(graph, closing, window). The engine reads the
// frontier off it and times only the lanes that did not settle; a settled
// lane passed here closes only a self-loop's 1-cycle
// (roots::take_self_loop) and searches nothing.
std::uint64_t cycles_closed_by_edge(const SlidingWindowGraph& graph,
                                    const TemporalEdge& closing,
                                    Timestamp window, const EdgeLane& lane,
                                    const EnumOptions& options,
                                    StreamSearchScratch& scratch,
                                    WorkCounters& work, CycleSink* sink,
                                    SearchBudgetState* budget);

// Fine-grained variant: branches spawn as tasks on `sched` per `popts`
// (fine::should_spawn: kAdaptive keeps the local deque shallow and never
// spawns on one worker; kAlways mirrors the paper's every-call-a-task model),
// and none once the budget expired. A stolen branch copies its creator's
// path into a scratch of `pool`, which gets it back reset. Must be called
// from a worker thread of `sched` (the engine calls it from batch tasks).
// Counter totals are merged into `work` before returning; cycles and visits
// are those of the serial search on every schedule, because the search
// carries no shared blocking state.
std::uint64_t fine_cycles_closed_by_edge(
    const SlidingWindowGraph& graph, const TemporalEdge& closing,
    Timestamp window, const EdgeLane& lane, Scheduler& sched,
    const EnumOptions& options, const ParallelOptions& popts,
    StreamSearchScratch& scratch, ScratchPool<StreamSearchScratch>& pool,
    WorkCounters& work, CycleSink* sink, SearchBudgetState* budget);

}  // namespace parcycle
