#include "core/hc_dfs.hpp"

#include <cassert>
#include <memory>
#include <span>

#include "core/driver.hpp"
#include "core/fine_hc_dfs.hpp"
#include "core/hc_state.hpp"
#include "core/johnson_impl.hpp"

namespace parcycle {

// ---- HcDistScratch ---------------------------------------------------------

bool HcDistScratch::compute_static(const Digraph& graph, VertexId root,
                                   std::int32_t max_depth) {
  begin_epoch(root);
  bool has_admissible_in_edge = false;
  for (std::size_t qi = 0; qi < queue_.size(); ++qi) {
    const VertexId v = queue_[qi];
    // The root's in-neighbors are scanned even at depth bound 0 so that a
    // lone self-loop (a one-hop cycle) still reports an admissible edge.
    const bool expand = dist_[v] < max_depth;
    if (!expand && v != root) {
      continue;
    }
    for (const VertexId u : graph.in_neighbors(v)) {
      if (u < root) {
        continue;
      }
      if (v == root) {
        has_admissible_in_edge = true;
      }
      if (expand && stamp_[u] != epoch_) {
        stamp_[u] = epoch_;
        dist_[u] = dist_[v] + 1;
        queue_.push_back(u);
      }
    }
  }
  return has_admissible_in_edge;
}

void HcDistScratch::compute_windowed(const TemporalGraph& graph, VertexId tail,
                                     EdgeId e0, Timestamp t0, Timestamp hi,
                                     std::int32_t max_depth) {
  begin_epoch(tail);
  for (std::size_t qi = 0; qi < queue_.size(); ++qi) {
    const VertexId v = queue_[qi];
    if (dist_[v] >= max_depth) {
      continue;
    }
    for (const auto& e : graph.in_edges_in_window(v, t0, hi)) {
      if (e.id > e0 && stamp_[e.src] != epoch_) {
        stamp_[e.src] = epoch_;
        dist_[e.src] = dist_[v] + 1;
        queue_.push_back(e.src);
      }
    }
  }
}

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

// Fills `ctx` and the distance scratch for starting edge e0. Returns false
// when no hop-bounded cycle can pass through e0 (head cannot reach tail
// back within max_hops - 1 admissible hops).
bool prepare_start(const TemporalGraph& graph, const TemporalEdge& e0,
                   Timestamp window, int max_hops, HcDistScratch& dist,
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
  ctx.cycle_union = nullptr;  // HC pruning lives in HcDistScratch instead
  // Cheap rejection: the head must have an admissible out-edge and the tail
  // an admissible in-edge.
  if (graph.out_edges_in_window(e0.dst, ctx.t0, ctx.hi).empty() ||
      graph.in_edges_in_window(e0.src, ctx.t0, ctx.hi).empty()) {
    return false;
  }
  dist.compute_windowed(graph, ctx.tail, ctx.e0, ctx.t0, ctx.hi, max_hops - 1);
  // The head enters with max_hops - 1 remaining hops; the BFS bound equals
  // that, so reachability alone decides.
  return dist.dist_to_target(ctx.head) != HcDistScratch::kUnreachable;
}

// The per-start hook of the serial and fine windowed drivers.
auto windowed_start(int max_hops) {
  return [max_hops](auto& run, const TemporalEdge& e0, HcDistScratch& dist,
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
    auto dist = std::make_unique<HcDistScratch>();
    dist->init(n);
    return dist;
  };
  return EnumResult::of(roots::serial_loop<HcState>(
      n, n, make_dist,
      [&](std::size_t s, HcDistScratch& dist, HcState& state) {
        const auto root = static_cast<VertexId>(s);
        // Skipped when nothing (not even a self-loop) closes back into s.
        if (graph.out_degree(root) == 0 ||
            !dist.compute_static(graph, root, max_hops - 1)) {
          return false;
        }
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
  return roots::StartRun<HcState, HcDistScratch>{graph, window, options, sink}
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
  fine::FineRun<HcState, HcDistScratch> run{graph, window, sched,
                                            options, popts, sink};
  run.run_roots(windowed_start(max_hops));
  return run.result();
}

}  // namespace parcycle
