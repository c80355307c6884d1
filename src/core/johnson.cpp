#include "core/johnson.hpp"

#include <cassert>
#include <memory>

#include "core/coarse_grained.hpp"
#include "core/driver.hpp"
#include "core/johnson_impl.hpp"

namespace parcycle {

namespace detail {

// ---- StaticJohnsonSearch ---------------------------------------------------

void StaticJohnsonSearch::search_from(VertexId start, const SccResult& scc,
                                      JohnsonState& state) {
  state_ = &state;
  scc_ = &scc;
  start_ = start;
  start_component_ = scc.component[start];
  bounded_ = options_.max_cycle_length > 0;
  const std::int32_t rem0 =
      bounded_ ? options_.max_cycle_length : kUnboundedRem;
  circuit(start, rem0);
}

void StaticJohnsonSearch::report() {
  state_->counters.cycles_found += 1;
  if (sink_ != nullptr) {
    sink_->on_cycle({state_->path_data(), state_->path_length()}, {});
  }
}

bool StaticJohnsonSearch::circuit(VertexId v, std::int32_t rem) {
  JohnsonState& st = *state_;
  st.push(v, kInvalidEdge);
  st.counters.vertices_visited += 1;
  bool found = false;
  const auto in_subgraph = [&](VertexId w) {
    return w >= start_ && scc_->component[w] == start_component_;
  };
  for (const VertexId w : graph_.out_neighbors(v)) {
    if (!in_subgraph(w)) {
      continue;
    }
    st.counters.edges_visited += 1;
    if (w == start_) {
      if (rem >= 1) {
        report();
        found = true;
      }
    } else {
      const std::int32_t next = child_rem(rem, bounded_);
      if (next >= 1 && st.can_visit(w, next)) {
        found |= circuit(w, next);
      }
    }
  }
  if (found) {
    st.exit_success(v);
  } else {
    st.exit_failure(v, rem);
    for (const VertexId w : graph_.out_neighbors(v)) {
      if (in_subgraph(w) && w != start_) {
        st.blist_add(w, v);
      }
    }
  }
  st.pop();
  return found;
}

// ---- WindowedJohnsonSearch -------------------------------------------------

bool WindowedJohnsonSearch::prepare_start(const TemporalGraph& graph,
                                          const TemporalEdge& e0,
                                          Timestamp window,
                                          bool use_cycle_union,
                                          CycleUnionScratch* scratch,
                                          StartContext& ctx) {
  ctx.e0 = e0.id;
  ctx.tail = e0.src;
  ctx.head = e0.dst;
  ctx.t0 = e0.ts;
  ctx.hi = saturating_add(e0.ts, window);
  ctx.cycle_union = nullptr;
  // Cheap rejection: the head must have an admissible out-edge and the tail
  // an admissible in-edge.
  if (graph.out_edges_in_window(e0.dst, ctx.t0, ctx.hi).empty() ||
      graph.in_edges_in_window(e0.src, ctx.t0, ctx.hi).empty()) {
    return false;
  }
  if (use_cycle_union && scratch != nullptr) {
    if (!scratch->compute(graph, ctx)) {
      return false;  // tail unreachable: no cycle through e0
    }
    ctx.cycle_union = scratch;
  }
  return true;
}

void WindowedJohnsonSearch::report_cycle(const JohnsonState& state,
                                         EdgeId closing_edge, CycleSink* sink,
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

bool WindowedJohnsonSearch::search_from(const TemporalEdge& e0,
                                        JohnsonState& state,
                                        CycleUnionScratch* cycle_union) {
  assert(e0.src != e0.dst && "self-loops are handled by the driver");
  if (!prepare_start(graph_, e0, window_, options_.use_cycle_union,
                     cycle_union, ctx_)) {
    return false;
  }
  state_ = &state;
  bounded_ = options_.max_cycle_length > 0;
  state.push(ctx_.tail, kInvalidEdge);
  const std::int32_t rem0 =
      bounded_ ? options_.max_cycle_length - 1 : kUnboundedRem;
  if (rem0 >= 1 || !bounded_) {
    circuit(ctx_.head, e0.id, rem0);
  }
  return true;
}

bool WindowedJohnsonSearch::circuit(VertexId v, EdgeId via_edge,
                                    std::int32_t rem) {
  JohnsonState& st = *state_;
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
      const std::int32_t next = child_rem(rem, bounded_);
      if (next >= 1 && ctx_.vertex_allowed(e.dst) && st.can_visit(e.dst, next)) {
        found |= circuit(e.dst, e.id, next);
      }
    }
  }
  if (found) {
    st.exit_success(v);
  } else {
    st.exit_failure(v, rem);
    for (const auto& e : graph_.out_edges_in_window(v, ctx_.t0, ctx_.hi)) {
      if (e.id > ctx_.e0 && e.dst != ctx_.tail && ctx_.vertex_allowed(e.dst)) {
        st.blist_add(e.dst, v);
      }
    }
  }
  st.pop();
  return found;
}

}  // namespace detail

// ---- serial and coarse drivers ---------------------------------------------

namespace {

// Static Johnson, serial without a scheduler and coarse with one: both loops
// run the same per-start step.
EnumResult static_johnson(const Digraph& graph, Scheduler* sched,
                          const EnumOptions& options, CycleSink* sink) {
  const VertexId n = graph.num_vertices();
  const auto make_search = [&] {
    return std::make_unique<detail::StaticJohnsonSearch>(graph, options, sink);
  };
  const auto start = [&graph](std::size_t s,
                              detail::StaticJohnsonSearch& search,
                              JohnsonState& state) {
    const auto root = static_cast<VertexId>(s);
    // Component structure of the subgraph induced by the not-yet-processed
    // vertices; cycles rooted at s stay within the component of s.
    const SccResult scc = strongly_connected_components(
        graph, [root](VertexId v) { return v >= root; });
    search.search_from(root, scc, state);
    return true;
  };
  return EnumResult::of(
      sched == nullptr
          ? roots::serial_loop<JohnsonState>(n, n, make_search, start)
          : roots::coarse_loop<JohnsonState>(*sched, n, n, make_search,
                                             start));
}

using WindowedRun = roots::StartRun<JohnsonState, CycleUnionScratch>;

// The per-start hook of serial and coarse windowed Johnson.
bool windowed_start(const WindowedRun& run, const TemporalEdge& e0,
                    CycleUnionScratch& cycle_union, JohnsonState& state) {
  return detail::WindowedJohnsonSearch(run.graph, run.window, run.options,
                                       run.sink)
      .search_from(e0, state, &cycle_union);
}

}  // namespace

EnumResult johnson_simple_cycles(const Digraph& graph,
                                 const EnumOptions& options, CycleSink* sink) {
  return static_johnson(graph, nullptr, options, sink);
}

EnumResult coarse_johnson_simple_cycles(const Digraph& graph, Scheduler& sched,
                                        const EnumOptions& options,
                                        CycleSink* sink) {
  return static_johnson(graph, &sched, options, sink);
}

EnumResult johnson_windowed_cycles(const TemporalGraph& graph,
                                   Timestamp window,
                                   const EnumOptions& options,
                                   CycleSink* sink) {
  return WindowedRun{graph, window, options, sink}.serial(windowed_start);
}

EnumResult coarse_johnson_windowed_cycles(const TemporalGraph& graph,
                                          Timestamp window, Scheduler& sched,
                                          const EnumOptions& options,
                                          CycleSink* sink) {
  return WindowedRun{graph, window, options, sink}.coarse(sched,
                                                          windowed_start);
}

}  // namespace parcycle
