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
// Two variants share the pruning (a hop-aware reverse BFS from the target
// over the window, gated by EnumOptions::use_cycle_union):
//  * cycles_closed_by_edge       — serial DFS on caller-owned scratch;
//  * fine_cycles_closed_by_edge  — fine-grained: every branch of the DFS may
//    become a scheduler task carrying its own path copy (no shared blocking
//    state, so cycle and edge-visit counts are schedule-independent).
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

namespace parcycle {

// Reusable per-searcher scratch: epoch-stamped reverse-BFS distances plus the
// serial DFS path buffers. Not thread-safe; the engine keeps one per worker.
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

  // -- DFS state (serial variant) -------------------------------------------
  DynamicBitset on_path;
  std::vector<VertexId> path_vertices;
  std::vector<EdgeId> path_edges;
  std::vector<VertexId> bfs_queue;

 private:
  std::vector<std::uint32_t> stamp_;
  std::vector<std::int32_t> dist_;
  std::uint32_t epoch_ = 0;
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

// Fine-grained variant: branches spawn as tasks on `sched` per `popts`
// (kAdaptive keeps the local deque shallow; kAlways mirrors the paper's
// every-call-a-task model). Must be called from a worker thread of `sched`
// (the engine calls it from batch tasks). Counter totals are merged into
// `work` before returning; they are schedule-independent because the search
// carries no shared blocking state.
std::uint64_t fine_cycles_closed_by_edge(const SlidingWindowGraph& graph,
                                         const TemporalEdge& closing,
                                         Timestamp window, Scheduler& sched,
                                         const EnumOptions& options,
                                         const ParallelOptions& popts,
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

// The cycles a settled lane closes: a self-loop's 1-cycle, counted into
// `work` and reported to `sink` (nullable); 0 for any other settled lane.
std::uint64_t settled_lane_cycles(const TemporalEdge& closing,
                                  WorkCounters& work, CycleSink* sink);

// The same two searches for a caller that already settled the lane:
// `lane` must equal settle_edge_lane(graph, closing, window). The engine
// reads the frontier off it and times only the lanes that did not settle;
// a settled lane passed here closes settled_lane_cycles and searches nothing.
std::uint64_t cycles_closed_by_edge(const SlidingWindowGraph& graph,
                                    const TemporalEdge& closing,
                                    Timestamp window, const EdgeLane& lane,
                                    const EnumOptions& options,
                                    StreamSearchScratch& scratch,
                                    WorkCounters& work, CycleSink* sink,
                                    SearchBudgetState* budget);
std::uint64_t fine_cycles_closed_by_edge(
    const SlidingWindowGraph& graph, const TemporalEdge& closing,
    Timestamp window, const EdgeLane& lane, Scheduler& sched,
    const EnumOptions& options, const ParallelOptions& popts,
    StreamSearchScratch& scratch, WorkCounters& work, CycleSink* sink,
    SearchBudgetState* budget);

}  // namespace parcycle
