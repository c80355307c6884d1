#include "temporal/temporal_read_tarjan.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "core/driver.hpp"
#include "core/johnson_impl.hpp"  // kUnboundedRem / child_rem
#include "temporal/cycle_union.hpp"
#include "temporal/temporal_rt_state.hpp"

namespace parcycle {

namespace {

// One hop of a temporal path extension.
struct TExtStep {
  VertexId dst;
  EdgeId edge;
  Timestamp ts;
};

using TExtPath = std::vector<TExtStep>;

struct TRTChild {
  std::size_t path_len;
  std::size_t log_len;
  TExtPath ext;
  std::vector<EdgeId> excluded;  // first-hop exclusions at the entry frontier
};

using TChildFn = std::function<void(TRTChild&&)>;

// ---------------------------------------------------------------------------
// Search core shared by all drivers.
// ---------------------------------------------------------------------------
class TemporalRTCore {
 public:
  TemporalRTCore(const TemporalGraph& graph, const EnumOptions& options,
                 CycleSink* sink)
      : graph_(graph),
        options_(options),
        sink_(sink),
        bounded_(options.max_cycle_length > 0) {}

  void bind(TemporalRTState& state, VertexId tail, Timestamp hi,
            CycleUnionView cycle_union) {
    state_ = &state;
    tail_ = tail;
    hi_ = hi;
    union_ = cycle_union;
  }

  bool find_root_extension(TExtPath& out) {
    static const std::vector<EdgeId> kNone;
    return find_alternate(kNone, out);
  }

  // One Read-Tarjan call: report path+ext, walk it, emit children.
  std::uint64_t walk(const TExtPath& ext,
                     const std::vector<EdgeId>& excluded_first,
                     const TChildFn& on_child) {
    TemporalRTState& st = *state_;
    report(ext);
    std::vector<EdgeId> excluded;
    TExtPath alt;
    for (std::size_t i = 0; i < ext.size(); ++i) {
      excluded.clear();
      if (i == 0) {
        excluded = excluded_first;
      }
      excluded.push_back(ext[i].edge);
      if (find_alternate(excluded, alt)) {
        TRTChild child;
        child.path_len = st.path_length();
        child.log_len = st.log_length();
        child.ext = std::move(alt);
        child.excluded = excluded;
        alt.clear();
        on_child(std::move(child));
      }
      if (i + 1 < ext.size()) {
        st.push(ext[i].dst, ext[i].edge, ext[i].ts);
      }
    }
    return 1;
  }

  bool find_alternate(const std::vector<EdgeId>& excluded, TExtPath& out) {
    TemporalRTState& st = *state_;
    const VertexId frontier = st.frontier();
    const Timestamp arrival = st.frontier_arrival();
    if (bounded_ &&
        remaining_budget() < 1) {
      return false;
    }
    out.clear();
    const auto is_excluded = [&excluded](EdgeId id) {
      return std::find(excluded.begin(), excluded.end(), id) != excluded.end();
    };
    for (const auto& e :
         graph_.out_edges_in_window(frontier, arrival + 1, hi_)) {
      if (is_excluded(e.id)) {
        continue;
      }
      st.counters.edges_visited += 1;
      if (e.dst == tail_) {
        out.push_back(TExtStep{e.dst, e.id, e.ts});
        return true;
      }
      if (!admissible(e.dst, e.ts)) {
        continue;
      }
      const std::size_t candidate_log = st.log_length();
      st.logged_set(e.dst, e.ts);
      if (dfs_to_tail(e.dst, e.ts,
                      bounded_ ? remaining_budget() - 1 : detail::kUnboundedRem,
                      out)) {
        // Drop the successful candidate's marks: its side branches failed
        // against tentatively-blocked stack vertices.
        st.truncate_log(candidate_log);
        out.push_back(TExtStep{e.dst, e.id, e.ts});
        std::reverse(out.begin(), out.end());
        return true;
      }
      if (bounded_) {
        // Budget-dependent failures are not reusable facts; keep the log
        // clean so marks only ever describe the live DFS stack.
        st.truncate_log(candidate_log);
      }
    }
    return false;
  }

 private:
  bool admissible(VertexId w, Timestamp ts) const {
    if (!union_.contains(w)) {
      return false;
    }
    // In bounded mode the fail marks only ever describe the live DFS stack
    // (they are rewound on every failure), so this doubles as the
    // extension-simplicity check in both modes.
    return state_->can_visit(w, ts);
  }

  std::int32_t remaining_budget() const {
    // Edges used so far = path_length() - 1; an extension needs at least one
    // more edge.
    return options_.max_cycle_length -
           static_cast<std::int32_t>(state_->path_length() - 1);
  }

  bool dfs_to_tail(VertexId u, Timestamp arrival, std::int32_t budget,
                   TExtPath& out) {
    TemporalRTState& st = *state_;
    st.counters.vertices_visited += 1;
    for (const auto& e : graph_.out_edges_in_window(u, arrival + 1, hi_)) {
      st.counters.edges_visited += 1;
      if (e.dst == tail_) {
        if (budget >= 1) {
          out.push_back(TExtStep{e.dst, e.id, e.ts});
          return true;
        }
        continue;
      }
      const std::int32_t next = detail::child_rem(budget, bounded_);
      if (next < 1 || !admissible(e.dst, e.ts)) {
        continue;
      }
      // Tentative arrival mark: keeps the extension vertex-simple. In the
      // unbounded mode it is kept on full failure (a sound dead-end record)
      // and rolled back by find_alternate on success; in the bounded mode it
      // is rolled back on failure too (budget-dependent failures are not
      // reusable facts).
      const std::size_t mark = st.log_length();
      st.logged_set(e.dst, e.ts);
      if (dfs_to_tail(e.dst, e.ts, next, out)) {
        out.push_back(TExtStep{e.dst, e.id, e.ts});
        return true;
      }
      if (bounded_) {
        st.truncate_log(mark);
      }
    }
    return false;
  }

  void report(const TExtPath& ext) {
    TemporalRTState& st = *state_;
    st.counters.cycles_found += 1;
    if (sink_ == nullptr) {
      return;
    }
    vertex_scratch_.clear();
    edge_scratch_.clear();
    for (std::size_t i = 0; i < st.path_length(); ++i) {
      vertex_scratch_.push_back(st.path_vertex(i));
      if (i > 0) {
        edge_scratch_.push_back(st.path_edge(i));
      }
    }
    for (std::size_t i = 0; i + 1 < ext.size(); ++i) {
      vertex_scratch_.push_back(ext[i].dst);
    }
    for (const auto& step : ext) {
      edge_scratch_.push_back(step.edge);
    }
    sink_->on_cycle({vertex_scratch_.data(), vertex_scratch_.size()},
                    {edge_scratch_.data(), edge_scratch_.size()});
  }

  const TemporalGraph& graph_;
  const EnumOptions& options_;
  CycleSink* sink_;
  bool bounded_;
  TemporalRTState* state_ = nullptr;
  VertexId tail_ = kInvalidVertex;
  Timestamp hi_ = 0;
  CycleUnionView union_;
  std::vector<VertexId> vertex_scratch_;
  std::vector<EdgeId> edge_scratch_;
};

// Sets up the root for one starting edge on a reset state; returns false to
// skip. On success the state holds [tail, head] and `core` is bound.
bool prepare_start(const TemporalGraph& graph, const TemporalEdge& e0,
                   Timestamp window, const EnumOptions& options,
                   CycleUnionView cycle_union, TemporalRTState& state,
                   TemporalRTCore& core) {
  const Timestamp hi = saturating_add(e0.ts, window);
  // A head inside a block's union implies a later head out-edge and tail
  // in-edge in the window; without a block, look them up.
  if (!cycle_union.contains(e0.dst)) {
    return false;
  }
  if (cycle_union.lanes == nullptr &&
      (graph.out_edges_in_window(e0.dst, e0.ts + 1, hi).empty() ||
       graph.in_edges_in_window(e0.src, e0.ts + 1, hi).empty())) {
    return false;
  }
  if (options.max_cycle_length == 1) {
    return false;  // only self-loops, handled by the drivers
  }
  core.bind(state, e0.src, hi, cycle_union);
  state.push(e0.src, kInvalidEdge, e0.ts);  // tail pinned; arrival unused
  state.push(e0.dst, e0.id, e0.ts);
  return true;
}

using Scratch = roots::DrainScratch<CycleUnionBlock, TRTChild>;
using Run = roots::StartRun<TemporalRTState, Scratch>;

// The per-start hook of the serial and coarse drivers.
bool search_start(const Run& run, const TemporalEdge& e0, Scratch& scratch,
                  TemporalRTState& state) {
  TemporalRTCore core(run.graph, run.options, run.sink);
  if (!prepare_start(run.graph, e0, run.window, run.options,
                     scratch.view(e0.id), state, core)) {
    return false;
  }
  TExtPath root_ext;
  if (core.find_root_extension(root_ext)) {
    roots::drain(state, scratch.pending,
                 TRTChild{state.path_length(), state.log_length(),
                          std::move(root_ext), {}},
                 [&core](const TRTChild& call, const TChildFn& collect) {
                   core.walk(call.ext, call.excluded, collect);
                 });
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Serial and coarse-grained drivers
// ---------------------------------------------------------------------------

EnumResult temporal_read_tarjan_cycles(const TemporalGraph& graph,
                                       Timestamp window,
                                       const EnumOptions& options,
                                       CycleSink* sink) {
  return Run{graph, window, options, sink}.serial(search_start);
}

EnumResult coarse_temporal_read_tarjan_cycles(const TemporalGraph& graph,
                                              Timestamp window,
                                              Scheduler& sched,
                                              const EnumOptions& options,
                                              CycleSink* sink) {
  return Run{graph, window, options, sink}.coarse(sched, search_start);
}

// ---------------------------------------------------------------------------
// Fine-grained driver: the prefix-replay shape of core/driver.hpp, as
// fine Read-Tarjan on windowed simple cycles uses it.
// ---------------------------------------------------------------------------

namespace {

using FineRun = fine::FineRun<TemporalRTState, CycleUnionBlock>;

struct FineTRTContext {
  FineRun& run;
  VertexId tail = kInvalidVertex;
  Timestamp hi = 0;
  CycleUnionView cycle_union;

  void walk(TemporalRTState& st, const TRTChild& child,
            const TChildFn& collect) const {
    TemporalRTCore core(run.graph, run.options, run.sink);
    core.bind(st, tail, hi, cycle_union);
    core.walk(child.ext, child.excluded, collect);
  }
};

// Searches one root on the block's state.
bool trt_search_root(FineRun& run, const TemporalEdge& e0,
                     CycleUnionBlock& block, TemporalRTState& state) {
  const CycleUnionView cycle_union = block.view(e0.id);
  TemporalRTCore core(run.graph, run.options, run.sink);
  if (!prepare_start(run.graph, e0, run.window, run.options, cycle_union,
                     state, core)) {
    return false;  // no cycle: skipped before touching the state
  }
  FineTRTContext search{run, e0.src, saturating_add(e0.ts, run.window),
                        cycle_union};
  TExtPath root_ext;
  if (core.find_root_extension(root_ext)) {
    fine::exec_call(search, state,
                    TRTChild{state.path_length(),
                             state.log_length(),
                             std::move(root_ext),
                             {}});
  }
  return true;
}

}  // namespace

EnumResult fine_temporal_read_tarjan_cycles(const TemporalGraph& graph,
                                            Timestamp window, Scheduler& sched,
                                            const EnumOptions& options,
                                            const ParallelOptions& popts,
                                            CycleSink* sink) {
  FineRun run{graph, window, sched, options, popts, sink};
  run.run_roots(trt_search_root);
  return run.result();
}

}  // namespace parcycle
