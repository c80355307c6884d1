// The per-root adjacency of the simple-cycle searches, shared by the
// Read-Tarjan call (core/read_tarjan_impl.hpp) and the Johnson-family visit
// (core/johnson_impl.hpp). A policy is a small struct the root setup builds
// and every call of that root shares; the members both searches read are
//   out_edges(u, arrival)   the out-edges scanned at u: Digraph neighbours
//                           or TemporalGraph::OutEdge, read via as_hop
//   skipped(hop)            edges passed over without being counted
//   closing()               the vertex that closes the cycle
//   allowed(v)              the cycle-union test
// and Read-Tarjan also reads the Marks, mark and kBoundedMarksSurvive
// members (core/read_tarjan_impl.hpp). kEdgeIds says whether hops carry
// edge ids, and so whether cycles are reported with their edges.
#pragma once

#include <cstdint>
#include <span>

#include "core/options.hpp"
#include "core/rt_state.hpp"
#include "core/window_context.hpp"
#include "graph/digraph.hpp"
#include "graph/scc.hpp"
#include "graph/temporal_graph.hpp"

namespace parcycle::detail {

inline RTHop as_hop(VertexId w) { return RTHop{0, w, kInvalidEdge}; }
inline RTHop as_hop(const TemporalGraph::OutEdge& e) {
  return RTHop{e.ts, e.dst, e.id};
}

// Static graphs: cycles rooted at their smallest vertex; the search from
// root s is confined to the SCC of s within the subgraph {v >= s}.
struct StaticPolicy {
  using Marks = BudgetMarks;
  static constexpr bool kBoundedMarksSurvive = true;
  static constexpr bool kEdgeIds = false;

  const Digraph& graph;
  const SccResult& scc;
  VertexId root;
  VertexId root_component;

  std::span<const VertexId> out_edges(VertexId u, Timestamp) const {
    return graph.out_neighbors(u);
  }
  bool skipped(const RTHop& hop) const {
    return hop.v < root || scc.component[hop.v] != root_component;
  }
  VertexId closing() const { return root; }
  static bool allowed(VertexId) { return true; }
  static std::int32_t mark(const RTHop&, std::int32_t next) { return next; }
};

// Windowed simple cycles: minimum-edge rooting over the edges of e0's
// window with id > e0.
struct WindowedPolicy {
  using Marks = BudgetMarks;
  static constexpr bool kBoundedMarksSurvive = true;
  static constexpr bool kEdgeIds = true;

  const TemporalGraph& graph;
  StartContext ctx;

  auto out_edges(VertexId u, Timestamp) const {
    return graph.out_edges_in_window(u, ctx.t0, ctx.hi);
  }
  bool skipped(const RTHop& hop) const { return hop.edge <= ctx.e0; }
  VertexId closing() const { return ctx.tail; }
  bool allowed(VertexId v) const { return ctx.vertex_allowed(v); }
  static std::int32_t mark(const RTHop&, std::int32_t next) { return next; }
};

// The root setup of a windowed simple-cycle search from e0, not a
// self-loop: fills `ctx` with e0's window and, with cycle-unions on, its
// union in `cycle_union`. Returns false when no cycle of two or more edges
// can pass through e0, tested cheapest first: the length bound admits only
// self-loops, the head has no admissible out-edge or the tail no admissible
// in-edge, or the union finds the tail unreachable.
inline bool windowed_root(const TemporalGraph& graph, const TemporalEdge& e0,
                          Timestamp window, const EnumOptions& options,
                          CycleUnionScratch& cycle_union, StartContext& ctx) {
  if (options.max_cycle_length == 1) {
    return false;
  }
  ctx.e0 = e0.id;
  ctx.tail = e0.src;
  ctx.head = e0.dst;
  ctx.t0 = e0.ts;
  ctx.hi = saturating_add(e0.ts, window);
  ctx.cycle_union = nullptr;
  if (graph.out_edges_in_window(e0.dst, ctx.t0, ctx.hi).empty() ||
      graph.in_edges_in_window(e0.src, ctx.t0, ctx.hi).empty()) {
    return false;
  }
  if (options.use_cycle_union) {
    if (!cycle_union.compute(graph, ctx)) {
      return false;
    }
    ctx.cycle_union = &cycle_union;
  }
  return true;
}

}  // namespace parcycle::detail
