#include "core/read_tarjan.hpp"

#include <memory>
#include <utility>

#include "core/coarse_grained.hpp"
#include "core/driver.hpp"
#include "core/read_tarjan_impl.hpp"

namespace parcycle {

namespace detail {

// ---- WindowedRTCore --------------------------------------------------------

bool WindowedRTCore::prepare_root(const TemporalEdge& e0, Timestamp window,
                                  CycleUnionScratch& cycle_union,
                                  ReadTarjanState& state) {
  if (options_.max_cycle_length == 1 ||  // only self-loops have length 1
      !WindowedJohnsonSearch::prepare_start(graph_, e0, window,
                                            options_.use_cycle_union,
                                            &cycle_union, ctx_)) {
    return false;
  }
  state_ = &state;
  state.push(ctx_.tail, kInvalidEdge);
  state.push(ctx_.head, e0.id);
  return true;
}

void WindowedRTCore::report(const ExtPath& ext) {
  state_->counters.cycles_found += 1;
  if (sink_ == nullptr) {
    return;
  }
  const ReadTarjanState& st = *state_;
  vertex_scratch_.clear();
  edge_scratch_.clear();
  for (std::size_t i = 0; i < st.path_length(); ++i) {
    vertex_scratch_.push_back(st.path_vertex(i));
    if (i > 0) {
      edge_scratch_.push_back(st.path_edge(i));
    }
  }
  // Extension vertices, excluding the final hop back to the tail.
  for (std::size_t i = 0; i + 1 < ext.size(); ++i) {
    vertex_scratch_.push_back(ext[i].dst);
  }
  for (const auto& step : ext) {
    edge_scratch_.push_back(step.edge);
  }
  sink_->on_cycle({vertex_scratch_.data(), vertex_scratch_.size()},
                  {edge_scratch_.data(), edge_scratch_.size()});
}

bool WindowedRTCore::dfs_to_tail(VertexId u, std::int32_t budget,
                                 ExtPath& out) {
  ReadTarjanState& st = *state_;
  st.counters.vertices_visited += 1;
  for (const auto& e : graph_.out_edges_in_window(u, ctx_.t0, ctx_.hi)) {
    if (e.id <= ctx_.e0) {
      continue;
    }
    st.counters.edges_visited += 1;
    if (e.dst == ctx_.tail) {
      if (budget >= 1) {
        out.push_back(ExtStep{e.dst, e.id});
        return true;
      }
      continue;
    }
    const std::int32_t next = child_rem(budget, bounded_);
    if (next < 1 || !ctx_.vertex_allowed(e.dst) || !st.can_visit(e.dst, next)) {
      continue;
    }
    // Tentative mark: keeps this DFS vertex-simple. If the whole search from
    // e.dst fails, every mark it made is a sound dead-end record (nothing
    // visited can reach the tail). On success the caller rolls the marks
    // back: a side branch may have failed only because vertices on the
    // now-unwound DFS stack were tentatively blocked.
    st.logged_set(e.dst, next);
    if (dfs_to_tail(e.dst, next, out)) {
      out.push_back(ExtStep{e.dst, e.id});
      return true;
    }
  }
  return false;
}

bool WindowedRTCore::find_alternate(const std::vector<EdgeId>& excluded,
                                    ExtPath& out) {
  ReadTarjanState& st = *state_;
  const VertexId frontier = st.frontier();
  const std::int32_t budget = frontier_budget();
  if (budget < 1) {
    return false;
  }
  out.clear();
  const auto is_excluded = [&excluded](EdgeId id) {
    for (const EdgeId forbidden : excluded) {
      if (forbidden == id) {
        return true;
      }
    }
    return false;
  };
  for (const auto& e : graph_.out_edges_in_window(frontier, ctx_.t0, ctx_.hi)) {
    if (e.id <= ctx_.e0 || is_excluded(e.id)) {
      continue;
    }
    st.counters.edges_visited += 1;
    if (e.dst == ctx_.tail) {
      out.push_back(ExtStep{e.dst, e.id});
      return true;
    }
    const std::int32_t next = child_rem(budget, bounded_);
    if (next < 1 || !ctx_.vertex_allowed(e.dst) || !st.can_visit(e.dst, next)) {
      continue;
    }
    // Marks from a candidate whose search fully fails are sound dead-end
    // records and are kept for the rest of the call; marks from the
    // successful candidate's subtree are not (side branches failed against
    // tentatively-blocked stack vertices) and are rolled back.
    const std::size_t candidate_log = st.log_length();
    st.logged_set(e.dst, next);
    if (dfs_to_tail(e.dst, next, out)) {
      st.truncate_log(candidate_log);
      out.push_back(ExtStep{e.dst, e.id});
      // dfs builds the path in reverse (unwinding order); flip it.
      std::reverse(out.begin(), out.end());
      return true;
    }
  }
  return false;
}

std::uint64_t WindowedRTCore::walk(const ExtPath& ext,
                                   const std::vector<EdgeId>& excluded_first,
                                   const ChildFn& on_child) {
  ReadTarjanState& st = *state_;
  report(ext);
  std::vector<EdgeId> excluded;
  ExtPath alt;
  for (std::size_t i = 0; i < ext.size(); ++i) {
    excluded.clear();
    if (i == 0) {
      excluded = excluded_first;
    }
    excluded.push_back(ext[i].edge);
    if (find_alternate(excluded, alt)) {
      RTChild child;
      child.path_len = st.path_length();
      child.log_len = st.log_length();
      child.ext = std::move(alt);
      child.excluded_edges = excluded;
      alt.clear();
      on_child(std::move(child));
    }
    if (i + 1 < ext.size()) {
      st.push(ext[i].dst, ext[i].edge);
    }
  }
  return 1;
}

// ---- StaticRTCore ----------------------------------------------------------

void StaticRTCore::report(const ExtPath& ext) {
  state_->counters.cycles_found += 1;
  if (sink_ == nullptr) {
    return;
  }
  const ReadTarjanState& st = *state_;
  vertex_scratch_.clear();
  for (std::size_t i = 0; i < st.path_length(); ++i) {
    vertex_scratch_.push_back(st.path_vertex(i));
  }
  for (std::size_t i = 0; i + 1 < ext.size(); ++i) {
    vertex_scratch_.push_back(ext[i].dst);
  }
  sink_->on_cycle({vertex_scratch_.data(), vertex_scratch_.size()}, {});
}

bool StaticRTCore::dfs_to_root(VertexId u, std::int32_t budget, ExtPath& out) {
  ReadTarjanState& st = *state_;
  st.counters.vertices_visited += 1;
  for (const VertexId w : graph_.out_neighbors(u)) {
    if (!in_subgraph(w)) {
      continue;
    }
    st.counters.edges_visited += 1;
    if (w == root_) {
      if (budget >= 1) {
        out.push_back(ExtStep{w, kInvalidEdge});
        return true;
      }
      continue;
    }
    const std::int32_t next = child_rem(budget, bounded_);
    if (next < 1 || !st.can_visit(w, next)) {
      continue;
    }
    // Same mark discipline as the windowed core: keep marks from fully
    // failed searches, roll back marks from the successful subtree.
    st.logged_set(w, next);
    if (dfs_to_root(w, next, out)) {
      out.push_back(ExtStep{w, kInvalidEdge});
      return true;
    }
  }
  return false;
}

bool StaticRTCore::find_alternate(const std::vector<VertexId>& excluded,
                                  ExtPath& out) {
  ReadTarjanState& st = *state_;
  const VertexId frontier = st.frontier();
  const std::int32_t budget = frontier_budget();
  if (budget < 1) {
    return false;
  }
  out.clear();
  const auto is_excluded = [&excluded](VertexId w) {
    for (const VertexId forbidden : excluded) {
      if (forbidden == w) {
        return true;
      }
    }
    return false;
  };
  for (const VertexId w : graph_.out_neighbors(frontier)) {
    if (!in_subgraph(w) || is_excluded(w)) {
      continue;
    }
    st.counters.edges_visited += 1;
    if (w == root_) {
      out.push_back(ExtStep{w, kInvalidEdge});
      return true;
    }
    const std::int32_t next = child_rem(budget, bounded_);
    if (next < 1 || !st.can_visit(w, next)) {
      continue;
    }
    const std::size_t candidate_log = st.log_length();
    st.logged_set(w, next);
    if (dfs_to_root(w, next, out)) {
      st.truncate_log(candidate_log);
      out.push_back(ExtStep{w, kInvalidEdge});
      std::reverse(out.begin(), out.end());
      return true;
    }
  }
  return false;
}

std::uint64_t StaticRTCore::walk(const ExtPath& ext,
                                 const std::vector<VertexId>& excluded_first,
                                 const ChildFn& on_child) {
  ReadTarjanState& st = *state_;
  report(ext);
  std::vector<VertexId> excluded;
  ExtPath alt;
  for (std::size_t i = 0; i < ext.size(); ++i) {
    excluded.clear();
    if (i == 0) {
      excluded = excluded_first;
    }
    excluded.push_back(ext[i].dst);
    if (find_alternate(excluded, alt)) {
      RTChild child;
      child.path_len = st.path_length();
      child.log_len = st.log_length();
      child.ext = std::move(alt);
      child.excluded_targets = excluded;
      alt.clear();
      on_child(std::move(child));
    }
    if (i + 1 < ext.size()) {
      st.push(ext[i].dst, ext[i].edge);
    }
  }
  return 1;
}

}  // namespace detail

// ---- serial and coarse drivers ---------------------------------------------

namespace {

using detail::ChildFn;
using detail::ExtPath;
using detail::RTChild;

using StaticScratch = roots::DrainScratch<detail::StaticRTCore, RTChild>;

// Static Read-Tarjan, serial without a scheduler and coarse with one: both
// loops run the same per-start step.
EnumResult static_read_tarjan(const Digraph& graph, Scheduler* sched,
                              const EnumOptions& options, CycleSink* sink) {
  const VertexId n = graph.num_vertices();
  const auto make_core = [&] {
    return std::make_unique<StaticScratch>(graph, options, sink);
  };
  const auto start = [&graph](std::size_t s, StaticScratch& core,
                              ReadTarjanState& state) {
    const auto root = static_cast<VertexId>(s);
    const SccResult scc = strongly_connected_components(
        graph, [root](VertexId v) { return v >= root; });
    core.bind(state, root, scc);
    state.push(root, kInvalidEdge);
    ExtPath root_ext;
    if (core.find_root_extension(root_ext)) {
      roots::drain(
          state, core.pending,
          RTChild{state.path_length(), state.log_length(), std::move(root_ext),
                  {}, {}},
          [&core](const RTChild& call, const ChildFn& collect) {
            core.walk(call.ext, call.excluded_targets, collect);
          });
    }
    return true;
  };
  return EnumResult::of(
      sched == nullptr
          ? roots::serial_loop<ReadTarjanState>(n, n, make_core, start)
          : roots::coarse_loop<ReadTarjanState>(*sched, n, n, make_core,
                                                start));
}

using WindowedScratch = roots::DrainScratch<CycleUnionScratch, RTChild>;
using WindowedRun = roots::StartRun<ReadTarjanState, WindowedScratch>;

// The per-start hook of serial and coarse windowed Read-Tarjan.
bool windowed_start(const WindowedRun& run, const TemporalEdge& e0,
                    WindowedScratch& scratch, ReadTarjanState& state) {
  detail::WindowedRTCore core(run.graph, run.options, run.sink);
  if (!core.prepare_root(e0, run.window, scratch, state)) {
    return false;
  }
  ExtPath root_ext;
  if (core.find_root_extension(root_ext)) {
    roots::drain(
        state, scratch.pending,
        RTChild{state.path_length(), state.log_length(), std::move(root_ext),
                {}, {}},
        [&core](const RTChild& call, const ChildFn& collect) {
          core.walk(call.ext, call.excluded_edges, collect);
        });
  }
  return true;
}

}  // namespace

EnumResult read_tarjan_simple_cycles(const Digraph& graph,
                                     const EnumOptions& options,
                                     CycleSink* sink) {
  return static_read_tarjan(graph, nullptr, options, sink);
}

EnumResult coarse_read_tarjan_simple_cycles(const Digraph& graph,
                                            Scheduler& sched,
                                            const EnumOptions& options,
                                            CycleSink* sink) {
  return static_read_tarjan(graph, &sched, options, sink);
}

EnumResult read_tarjan_windowed_cycles(const TemporalGraph& graph,
                                       Timestamp window,
                                       const EnumOptions& options,
                                       CycleSink* sink) {
  return WindowedRun{graph, window, options, sink}.serial(windowed_start);
}

EnumResult coarse_read_tarjan_windowed_cycles(const TemporalGraph& graph,
                                              Timestamp window,
                                              Scheduler& sched,
                                              const EnumOptions& options,
                                              CycleSink* sink) {
  return WindowedRun{graph, window, options, sink}.coarse(sched,
                                                          windowed_start);
}

}  // namespace parcycle
