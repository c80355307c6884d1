// Serial hop-constrained cycle enumeration via barrier-pruned DFS (BC-DFS).
//
// Enumerates every simple cycle with at most `max_hops` edges, in two
// flavours mirroring the Johnson API:
//
//  * hc_simple_cycles: static digraphs, smallest-vertex rooting.
//  * hc_windowed_cycles: simple cycles of a temporal graph whose edges fit in
//    a sliding window, minimum-edge rooting (cycles are edge-identified).
//
// Unlike the budget-aware blocking that EnumOptions::max_cycle_length bolts
// onto Johnson/Read-Tarjan, BC-DFS is built for short-cycle queries: a
// bounded reverse BFS from the target prunes every vertex whose way back
// needs more hops than the remaining budget (static pruning), and per-vertex
// barrier values record failed budgets with a LIFO rollback trail instead of
// Johnson's Blist bookkeeping (dynamic pruning; see hc_state.hpp for the
// invariant). This is the journal extension of the source paper
// (arXiv:2301.01068) adapted from Peng et al.'s hop-constrained path
// enumerator.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cycle_types.hpp"
#include "core/hc_state.hpp"
#include "core/options.hpp"
#include "core/window_context.hpp"
#include "graph/digraph.hpp"
#include "graph/temporal_graph.hpp"

namespace parcycle {

// All simple cycles of `graph` with at most `max_hops` edges. max_hops < 1
// yields no cycles; max_hops == 1 yields exactly the self-loops.
EnumResult hc_simple_cycles(const Digraph& graph, int max_hops,
                            const EnumOptions& options = {},
                            CycleSink* sink = nullptr);

// All simple cycles with at most `max_hops` edges whose edges fit in a
// sliding window of the given size. Cycles are edge-identified and reported
// once, from their minimum (timestamp, id) edge — the same canonicalisation
// as johnson_windowed_cycles.
EnumResult hc_windowed_cycles(const TemporalGraph& graph, Timestamp window,
                              int max_hops, const EnumOptions& options = {},
                              CycleSink* sink = nullptr);

namespace detail {

// Search core for one starting edge of the windowed enumeration; shared by
// the serial driver (hc_dfs.cpp) and the fine-grained one (fine_hc_dfs.cpp).
class HcWindowedSearch {
 public:
  HcWindowedSearch(const TemporalGraph& graph, Timestamp window, int max_hops,
                   CycleSink* sink)
      : graph_(graph), window_(window), max_hops_(max_hops), sink_(sink) {}

  // Fills `ctx` and the distance scratch for starting edge e0. Returns false
  // when no hop-bounded cycle can pass through e0 (head cannot reach tail
  // back within max_hops - 1 admissible hops).
  static bool prepare_start(const TemporalGraph& graph, const TemporalEdge& e0,
                            Timestamp window, int max_hops,
                            HcDistScratch& dist, StartContext& ctx);

  // Reports the cycle currently on `state`'s path, closed by `closing_edge`.
  static void report_cycle(const HcState& state, EdgeId closing_edge,
                           CycleSink* sink, std::vector<EdgeId>& edge_scratch);

  // Runs the search for starting edge e0 on a reset state; returns false
  // when it skipped e0 without touching the state. Counters accumulate into
  // state.counters.
  bool search_from(const TemporalEdge& e0, HcState& state,
                   HcDistScratch& dist);

 private:
  bool circuit(VertexId v, EdgeId via_edge, std::int32_t rem);

  const TemporalGraph& graph_;
  Timestamp window_;
  int max_hops_;
  CycleSink* sink_;
  HcState* state_ = nullptr;
  const HcDistScratch* dist_ = nullptr;
  StartContext ctx_;
  std::vector<EdgeId> edge_scratch_;
};

}  // namespace detail

}  // namespace parcycle
