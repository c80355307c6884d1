#include "core/hc_dfs.hpp"

#include <cassert>
#include <memory>

#include "core/driver.hpp"

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

namespace detail {

// ---- static search ---------------------------------------------------------

namespace {

// BC-DFS over the subgraph induced by {v >= start}; cycles are rooted at
// their smallest vertex, exactly like StaticJohnsonSearch.
class HcStaticSearch {
 public:
  HcStaticSearch(const Digraph& graph, CycleSink* sink)
      : graph_(graph), sink_(sink) {}

  void search_from(VertexId start, int max_hops, HcState& state,
                   const HcDistScratch& dist) {
    state_ = &state;
    dist_ = &dist;
    start_ = start;
    circuit(start, max_hops);
  }

 private:
  void report() {
    state_->counters.cycles_found += 1;
    if (sink_ != nullptr) {
      sink_->on_cycle({state_->path_data(), state_->path_length()}, {});
    }
  }

  bool circuit(VertexId v, std::int32_t rem) {
    HcState& st = *state_;
    st.push(v, kInvalidEdge);
    st.counters.vertices_visited += 1;
    bool found = false;
    for (const VertexId w : graph_.out_neighbors(v)) {
      if (w < start_) {
        continue;
      }
      st.counters.edges_visited += 1;
      if (w == start_) {
        if (rem >= 1) {
          report();
          found = true;
        }
      } else {
        const std::int32_t next = rem - 1;
        if (next >= 1 && next >= dist_->dist_to_target(w) &&
            st.can_visit(w, next)) {
          found |= circuit(w, next);
        }
      }
    }
    if (found) {
      st.exit_success(v);
    } else {
      st.exit_failure(v, rem);
    }
    st.pop();
    return found;
  }

  const Digraph& graph_;
  CycleSink* sink_;
  HcState* state_ = nullptr;
  const HcDistScratch* dist_ = nullptr;
  VertexId start_ = 0;
};

}  // namespace

// ---- windowed search --------------------------------------------------------

bool HcWindowedSearch::prepare_start(const TemporalGraph& graph,
                                     const TemporalEdge& e0, Timestamp window,
                                     int max_hops, HcDistScratch& dist,
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

void HcWindowedSearch::report_cycle(const HcState& state, EdgeId closing_edge,
                                    CycleSink* sink,
                                    std::vector<EdgeId>& edge_scratch) {
  if (sink == nullptr) {
    return;
  }
  const std::size_t len = state.path_length();
  edge_scratch.clear();
  // path_edge(i) is the edge into path_vertex(i); index 0 is the start
  // vertex, entered by the closing edge.
  for (std::size_t i = 1; i < len; ++i) {
    edge_scratch.push_back(state.path_edge(i));
  }
  edge_scratch.push_back(closing_edge);
  sink->on_cycle({state.path_data(), len},
                 {edge_scratch.data(), edge_scratch.size()});
}

bool HcWindowedSearch::search_from(const TemporalEdge& e0, HcState& state,
                                   HcDistScratch& dist) {
  if (!prepare_start(graph_, e0, window_, max_hops_, dist, ctx_)) {
    return false;
  }
  state_ = &state;
  dist_ = &dist;
  state.push(ctx_.tail, kInvalidEdge);
  circuit(ctx_.head, e0.id, max_hops_ - 1);
  return true;
}

bool HcWindowedSearch::circuit(VertexId v, EdgeId via_edge, std::int32_t rem) {
  HcState& st = *state_;
  st.push(v, via_edge);
  st.counters.vertices_visited += 1;
  bool found = false;
  for (const auto& e : graph_.out_edges_in_window(v, ctx_.t0, ctx_.hi)) {
    if (e.id <= ctx_.e0) {
      continue;
    }
    st.counters.edges_visited += 1;
    if (e.dst == ctx_.tail) {
      if (rem >= 1) {
        st.counters.cycles_found += 1;
        report_cycle(st, e.id, sink_, edge_scratch_);
        found = true;
      }
    } else {
      const std::int32_t next = rem - 1;
      if (next >= 1 && next >= dist_->dist_to_target(e.dst) &&
          st.can_visit(e.dst, next)) {
        found |= circuit(e.dst, e.id, next);
      }
    }
  }
  if (found) {
    st.exit_success(v);
  } else {
    st.exit_failure(v, rem);
  }
  st.pop();
  return found;
}

}  // namespace detail

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
        detail::HcStaticSearch(graph, sink).search_from(root, max_hops,
                                                        state, dist);
        return true;
      }));
}

EnumResult hc_windowed_cycles(const TemporalGraph& graph, Timestamp window,
                              int max_hops, const EnumOptions& options,
                              CycleSink* sink) {
  if (max_hops < 1) {
    return {};
  }
  using Run = roots::StartRun<HcState, HcDistScratch>;
  return Run{graph, window, options, sink}.serial(
      [max_hops](const Run& run, const TemporalEdge& e0, HcDistScratch& dist,
                 HcState& state) {
        return detail::HcWindowedSearch(run.graph, run.window, max_hops,
                                        run.sink)
            .search_from(e0, state, dist);
      });
}

}  // namespace parcycle
