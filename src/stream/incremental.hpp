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
// reverse BFS from the target over the window, core/hop_distances.hpp,
// gated by EnumOptions::use_cycle_union).
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

#include <cstdint>
#include <span>

#include "core/cycle_types.hpp"
#include "core/hop_distances.hpp"
#include "core/options.hpp"
#include "core/search_path.hpp"
#include "graph/types.hpp"
#include "robust/budget.hpp"
#include "stream/sliding_window_graph.hpp"
#include "support/scheduler.hpp"
#include "support/scratch_pool.hpp"
#include "support/stats.hpp"

namespace parcycle {

// Reusable per-searcher scratch: the DFS path (a SearchPath: a fine search
// changes it only under lock(), and a branch stolen by another worker copies
// it from there and truncates it back to the branch's spawn-time Mark; the
// search keeps no blocking state, so that truncation is the whole repair)
// and the reverse-BFS prune's hop distances. Not thread-safe, apart from that
// copy-on-steal contract; the engine pools them.
class StreamSearchScratch : public SearchPath {
 public:
  // Grows the scratch to cover vertex ids < n; cheap when already large
  // enough (the streaming vertex set grows monotonically).
  void ensure(VertexId n) {
    SearchPath::ensure(n);
    prune.init(n);
  }

  // Hop distances to the closing edge's tail over the window's reverse
  // edges, one BFS per pruned search.
  HopDistances prune;
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
