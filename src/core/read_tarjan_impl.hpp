// The Read-Tarjan call, written once for static, windowed and temporal
// cycles (core/read_tarjan.cpp and temporal/temporal_read_tarjan.cpp).
//
// Formulation (Sections 3.4 and 6 of the paper): a recursive
// call owns a current path Pi and a path extension E (a known way to close Pi
// into a cycle). The call reports Pi + E, then walks along E; before each hop
// it searches for an alternate extension that deviates from E at the current
// frontier. Every alternate spawns a child call. Cycles are partitioned by
// the first edge at which they deviate, so each cycle is reported by exactly
// one call — the call count is exactly the cycle count, which is what makes
// the fine-grained version work-efficient.
//
// A flavour is a policy: the per-root adjacency of one search, a small
// struct the root setup builds and the calls of that root share (the static
// and windowed ones, in core/adjacency.hpp, serve Johnson's visit too).
//   using Marks                     BudgetMarks or ArrivalMarks (rt_state.hpp)
//   out_edges(u, arrival)           the out-edges scanned at u when reached
//                                   at `arrival`: Digraph neighbours or
//                                   TemporalGraph::OutEdge, read via as_hop
//   skipped(hop)                    edges passed over without being counted
//   closing()                       the vertex that closes the cycle
//   allowed(v)                      the cycle-union test
//   mark(hop, next)                 the dead-end mark of a hop reached with
//                                   `next` hops of budget left
//   kBoundedMarksSurvive            whether a failed candidate's marks stay
//                                   when the length is bounded (they are
//                                   facts only when keyed by budget)
//   kEdgeIds                        whether hops carry edge ids: if so,
//                                   cycles are reported with their edges and
//                                   walked hops are excluded by edge id,
//                                   else by target vertex
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/adjacency.hpp"
#include "core/cycle_types.hpp"
#include "core/driver.hpp"
#include "core/johnson_impl.hpp"  // kUnboundedRem, child_rem
#include "core/options.hpp"
#include "core/rt_state.hpp"
#include "graph/temporal_graph.hpp"

namespace parcycle::detail {

using ExtPath = std::vector<RTHop>;

// A deferred call: rewind the state to (path_len, log_len), then walk `ext`
// with `excluded` forbidden as first hops at the entry frontier.
struct RTCall {
  std::size_t path_len;
  std::size_t log_len;
  ExtPath ext;
  std::vector<std::uint32_t> excluded;  // edge ids, or target vertices
};

template <typename Policy>
class ReadTarjanCore {
 public:
  using State = ReadTarjanState<typename Policy::Marks>;

  ReadTarjanCore(const Policy& policy, const EnumOptions& options,
                 CycleSink* sink, State& state)
      : policy_(policy),
        sink_(sink),
        state_(state),
        max_length_(options.max_cycle_length) {}

  // The root call of a state that holds the root's path; false when the
  // path does not close into a cycle.
  bool root_call(RTCall& out) {
    if (!find_alternate({}, out.ext)) {
      return false;
    }
    out.path_len = state_.path_length();
    out.log_len = state_.log_length();
    return true;
  }

  // Executes one Read-Tarjan call: reports path+ext, walks ext, hands
  // on_child one RTCall per alternate extension found.
  template <typename OnChild>
  void walk(const RTCall& call, const OnChild& on_child) {
    const ExtPath& ext = call.ext;
    report(ext);
    std::vector<std::uint32_t> excluded;
    ExtPath alt;
    for (std::size_t i = 0; i < ext.size(); ++i) {
      excluded.clear();
      if (i == 0) {
        excluded = call.excluded;
      }
      excluded.push_back(exclusion(ext[i]));
      if (find_alternate(excluded, alt)) {
        on_child(RTCall{state_.path_length(), state_.log_length(),
                        std::move(alt), excluded});
        alt.clear();
      }
      if (i + 1 < ext.size()) {
        state_.push(ext[i].v, ext[i].edge, ext[i].ts);
      }
    }
  }

 private:
  bool bounded() const noexcept { return max_length_ > 0; }

  std::int32_t frontier_budget() const noexcept {
    if (!bounded()) {
      return kUnboundedRem;
    }
    const auto used = static_cast<std::int32_t>(state_.path_length() - 1);
    return max_length_ - used;
  }

  static std::uint32_t exclusion(const RTHop& hop) noexcept {
    return Policy::kEdgeIds ? hop.edge : hop.v;
  }

  // Searches for a path extension frontier -> closing vertex whose first
  // edge is not in `excluded`. Marks dead ends in the state log.
  bool find_alternate(const std::vector<std::uint32_t>& excluded,
                      ExtPath& out) {
    State& st = state_;
    const std::int32_t budget = frontier_budget();
    if (budget < 1) {
      return false;
    }
    out.clear();
    for (const auto& edge :
         policy_.out_edges(st.frontier(), st.frontier_arrival())) {
      const RTHop hop = as_hop(edge);
      if (policy_.skipped(hop) ||
          std::find(excluded.begin(), excluded.end(), exclusion(hop)) !=
              excluded.end()) {
        continue;
      }
      st.counters.edges_visited += 1;
      if (hop.v == policy_.closing()) {
        out.push_back(hop);
        return true;
      }
      const std::size_t candidate_log = st.log_length();
      if (extend(st, hop, budget, out)) {
        // Marks from the successful candidate's subtree are not sound (side
        // branches failed against tentatively-blocked stack vertices).
        st.truncate_log(candidate_log);
        // dfs builds the path in reverse (unwinding order); flip it.
        std::reverse(out.begin(), out.end());
        return true;
      }
    }
    return false;
  }

  bool dfs_to_closing(VertexId u, Timestamp arrival, std::int32_t budget,
                      ExtPath& out) {
    State& st = state_;
    st.counters.vertices_visited += 1;
    for (const auto& edge : policy_.out_edges(u, arrival)) {
      const RTHop hop = as_hop(edge);
      if (policy_.skipped(hop)) {
        continue;
      }
      st.counters.edges_visited += 1;
      if (hop.v == policy_.closing()) {
        if (budget >= 1) {
          out.push_back(hop);
          return true;
        }
        continue;
      }
      if (extend(st, hop, budget, out)) {
        return true;
      }
    }
    return false;
  }

  // Extends through `hop`, taken with `budget` left, and searches on from
  // its vertex. The tentative mark keeps the extension vertex-simple. If the
  // whole search from the vertex fails, every mark it made is a sound
  // dead-end record (nothing visited can close the cycle), except a failure
  // that is the budget's and not keyed by it: those marks are rolled back.
  // Inlined into both loops, so an edge it rejects costs no call; the loops
  // pass the state so that it stays in a register across counter updates.
  [[gnu::always_inline]] bool extend(State& st, const RTHop& hop,
                                     std::int32_t budget, ExtPath& out) {
    const std::int32_t next = child_rem(budget, bounded());
    if (next < 1 || !policy_.allowed(hop.v)) {
      return false;
    }
    const auto key = policy_.mark(hop, next);
    if (!st.can_visit(hop.v, key)) {
      return false;
    }
    const std::size_t mark = st.log_length();
    st.logged_set(hop.v, key);
    if (dfs_to_closing(hop.v, hop.ts, next, out)) {
      out.push_back(hop);
      return true;
    }
    if (!Policy::kBoundedMarksSurvive && bounded()) {
      st.truncate_log(mark);
    }
    return false;
  }

  void report(const ExtPath& ext) {
    state_.counters.cycles_found += 1;
    if (sink_ == nullptr) {
      return;
    }
    vertex_scratch_.clear();
    edge_scratch_.clear();
    for (std::size_t i = 0; i < state_.path_length(); ++i) {
      vertex_scratch_.push_back(state_.path_vertex(i));
    }
    // Extension vertices, excluding the final hop back to the closing vertex.
    for (std::size_t i = 0; i + 1 < ext.size(); ++i) {
      vertex_scratch_.push_back(ext[i].v);
    }
    if constexpr (Policy::kEdgeIds) {
      for (std::size_t i = 1; i < state_.path_length(); ++i) {
        edge_scratch_.push_back(state_.path_edge(i));
      }
      for (const RTHop& hop : ext) {
        edge_scratch_.push_back(hop.edge);
      }
    }
    sink_->on_cycle({vertex_scratch_.data(), vertex_scratch_.size()},
                    {edge_scratch_.data(), edge_scratch_.size()});
  }

  const Policy policy_;
  CycleSink* sink_;
  State& state_;
  std::int32_t max_length_;
  std::vector<VertexId> vertex_scratch_;
  std::vector<EdgeId> edge_scratch_;
};

// Runs every call of one root, whose path `state` holds, depth-first on
// `pending` (roots::drain).
template <typename Policy>
void drain_root(const Policy& policy, const EnumOptions& options,
                CycleSink* sink, typename ReadTarjanCore<Policy>::State& state,
                std::vector<RTCall>& pending) {
  ReadTarjanCore<Policy> core(policy, options, sink, state);
  RTCall root;
  if (core.root_call(root)) {
    roots::drain(state, pending, std::move(root),
                 [&core](const RTCall& call, const auto& collect) {
                   core.walk(call, collect);
                 });
  }
}

// The root's search context in a fine run.
template <typename Run, typename Policy>
struct FineSearch {
  Run& run;
  const Policy& policy;

  template <typename Collect>
  void walk(typename Run::State& st, const RTCall& call,
            const Collect& collect) const {
    ReadTarjanCore<Policy>(policy, run.options, run.sink, st)
        .walk(call, collect);
  }
};

// Runs every call of one root: in a serial or coarse run depth-first on the
// scratch's pending stack, in a fine run as fine::exec_call tasks.
template <typename State, typename Scratch, typename Policy>
void run_root(const roots::StartRun<State, Scratch>& run, Scratch& scratch,
              State& state, const Policy& policy) {
  drain_root(policy, run.options, run.sink, state, scratch.pending);
}

template <typename State, typename Scratch, typename Policy>
void run_root(fine::FineRun<State, Scratch>& run, Scratch& /*scratch*/,
              State& state, const Policy& policy) {
  RTCall root;
  if (ReadTarjanCore<Policy>(policy, run.options, run.sink, state)
          .root_call(root)) {
    FineSearch<fine::FineRun<State, Scratch>, Policy> search{run, policy};
    fine::exec_call(search, state, std::move(root));
  }
}

}  // namespace parcycle::detail
