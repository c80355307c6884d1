#include "core/hc_dfs.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <span>

#include "core/driver.hpp"
#include "core/fine_hc_dfs.hpp"
#include "core/hc_state.hpp"
#include "core/hop_distances.hpp"
#include "core/johnson_impl.hpp"

namespace parcycle {

namespace {

// BC-DFS over the subgraph induced by {v >= start}; cycles are rooted at
// their smallest vertex. No SCC filter: the hop distances already admit only
// vertices that reach the start back.
struct HcStaticPolicy {
  static constexpr bool kEdgeIds = false;

  const Digraph& graph;
  VertexId start;

  std::span<const VertexId> out_edges(VertexId u, Timestamp) const {
    return graph.out_neighbors(u);
  }
  bool skipped(const RTHop& hop) const { return hop.v < start; }
  VertexId closing() const { return start; }
  static bool allowed(VertexId) { return true; }
};

// Fills `ctx` and the hop distances to the tail for starting edge e0, over
// its admissible in-edges (id > e0, ts in [t0, hi]). Returns false when no
// hop-bounded cycle can pass through e0 (head cannot reach tail back within
// max_hops - 1 admissible hops).
bool prepare_start(const TemporalGraph& graph, const TemporalEdge& e0,
                   Timestamp window, int max_hops, HopDistances& dist,
                   StartContext& ctx) {
  assert(e0.src != e0.dst && "self-loops are handled by the driver");
  if (max_hops < 2) {
    return false;  // a non-self-loop cycle needs at least two edges
  }
  ctx.e0 = e0.id;
  ctx.tail = e0.src;
  ctx.head = e0.dst;
  ctx.t0 = e0.ts;
  ctx.hi = saturating_add(e0.ts, window);
  ctx.cycle_union = nullptr;  // HC pruning lives in the hop distances instead
  // Cheap rejection: the head must have an admissible out-edge and the tail
  // an admissible in-edge.
  if (graph.out_edges_in_window(e0.dst, ctx.t0, ctx.hi).empty() ||
      graph.in_edges_in_window(e0.src, ctx.t0, ctx.hi).empty()) {
    return false;
  }
  dist.compute(
      ctx.tail, max_hops - 1,
      [&](VertexId v) { return graph.in_edges_in_window(v, ctx.t0, ctx.hi); },
      [e0 = ctx.e0](const TemporalGraph::InEdge& e) {
        return e.id > e0 ? e.src : kInvalidVertex;
      });
  // The head enters with max_hops - 1 remaining hops; the BFS bound equals
  // that, so reachability alone decides.
  return dist.distance(ctx.head) != HopDistances::kUnreachable;
}

// The per-start hook of the serial and fine windowed drivers.
auto windowed_start(int max_hops) {
  return [max_hops](auto& run, const TemporalEdge& e0, HopDistances& dist,
                    HcState& state) {
    StartContext ctx;
    if (!prepare_start(run.graph, e0, run.window, max_hops, dist, ctx)) {
      return false;
    }
    detail::windowed_circuit(run, ctx, state, true, max_hops - 1, &dist);
    return true;
  };
}

}  // namespace

// ---- public drivers ---------------------------------------------------------

EnumResult hc_simple_cycles(const Digraph& graph, int max_hops,
                            const EnumOptions& options, CycleSink* sink) {
  (void)options;  // reserved: BC-DFS has no tunables yet
  if (max_hops < 1) {
    return {};
  }
  const VertexId n = graph.num_vertices();
  const auto make_dist = [n] {
    auto dist = std::make_unique<HopDistances>();
    dist->init(n);
    return dist;
  };
  return EnumResult::of(roots::serial_loop<HcState>(
      n, n, make_dist,
      [&](std::size_t s, HopDistances& dist, HcState& state) {
        const auto root = static_cast<VertexId>(s);
        // Over the subgraph induced by {v >= root}. Skipped when nothing
        // (not even a self-loop) closes back into the root.
        if (graph.out_degree(root) == 0 ||
            std::ranges::none_of(graph.in_neighbors(root),
                                 [root](VertexId u) { return u >= root; })) {
          return false;
        }
        dist.compute(
            root, max_hops - 1,
            [&graph](VertexId v) { return graph.in_neighbors(v); },
            [root](VertexId u) { return u >= root ? u : kInvalidVertex; });
        detail::CircuitSearch<roots::SerialSpawner<HcState>, HcStaticPolicy>
            search{{}, {graph, root}, sink, true, &dist};
        detail::circuit(search, state, root, kInvalidEdge, max_hops);
        return true;
      }));
}

EnumResult hc_windowed_cycles(const TemporalGraph& graph, Timestamp window,
                              int max_hops, const EnumOptions& options,
                              CycleSink* sink) {
  if (max_hops < 1) {
    return {};
  }
  return roots::StartRun<HcState, HopDistances>{graph, window, options, sink}
      .serial(windowed_start(max_hops));
}

EnumResult fine_hc_windowed_cycles(const TemporalGraph& graph,
                                   Timestamp window, int max_hops,
                                   Scheduler& sched,
                                   const EnumOptions& options,
                                   const ParallelOptions& popts,
                                   CycleSink* sink) {
  if (max_hops < 1) {
    return {};
  }
  fine::FineRun<HcState, HopDistances> run{graph, window, sched,
                                           options, popts, sink};
  run.run_roots(windowed_start(max_hops));
  return run.result();
}

}  // namespace parcycle
