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

#include "core/cycle_types.hpp"
#include "core/options.hpp"
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

}  // namespace parcycle
