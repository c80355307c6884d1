// The Johnson-family visit for simple cycles, written once for static and
// windowed graphs and for every driver: Johnson's B-lists (JohnsonState,
// core/johnson.cpp) and BC-DFS's barriers (HcState, core/hc_dfs.cpp). It is
// the serial recursive call of the paper's Section 5 with its spawn points:
// a search context's `run` is its spawner, roots::SerialSpawner in serial
// and coarse runs (no spawns, no locks) or the fine::FineRun of a fine run
// (core/driver.hpp), and its `policy` the root's adjacency
// (core/adjacency.hpp).
#pragma once

#include <cassert>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/adjacency.hpp"
#include "core/cycle_types.hpp"
#include "core/driver.hpp"
#include "core/hc_state.hpp"
#include "core/hop_distances.hpp"
#include "core/johnson_state.hpp"

namespace parcycle::detail {

// Remaining-budget constant used when max_cycle_length == 0. Strictly below
// JohnsonState::kOnPath so an on-path vertex still blocks every visit.
inline constexpr std::int32_t kUnboundedRem = JohnsonState::kOnPath - 1;

// Budget available after traversing one more edge.
inline std::int32_t child_rem(std::int32_t rem, bool bounded) {
  return bounded ? rem - 1 : kUnboundedRem;
}

// Reports the cycle on `state`'s path, closed back to its first vertex, to
// `sink`: its vertices and, with kEdgeIds, its edges. path_edge(i) is the
// edge into path_vertex(i), so the closing edge, into vertex 0, goes last.
template <bool kEdgeIds, typename State>
void report_cycle(const State& state, EdgeId closing_edge, CycleSink* sink) {
  if (sink == nullptr) {
    return;
  }
  const std::size_t len = state.path_length();
  if constexpr (!kEdgeIds) {
    sink->on_cycle({state.path_data(), len}, {});
  } else {
    thread_local std::vector<EdgeId> edges;
    edges.clear();
    for (std::size_t i = 1; i < len; ++i) {
      edges.push_back(state.path_edge(i));
    }
    edges.push_back(closing_edge);
    sink->on_cycle({state.path_data(), len}, {edges.data(), edges.size()});
  }
}

// The search context of one root.
template <typename Spawner, typename Policy>
struct CircuitSearch {
  Spawner run;
  Policy policy;
  CycleSink* sink;
  bool bounded;
  // BC-DFS's hop distances to the closing vertex: a vertex is entered only
  // with at least its distance left. Null for Johnson.
  const HopDistances* dist;
};

// The recursive call at v, entered by `via_edge` with `rem` edges of budget
// left; true when its subtree found a cycle (Johnson's f flag). A child is
// entered in place, or under a fine run's spawn policy spawned as a task
// that re-checks its visitability on the state it runs on: that state
// evolved since the spawn, and a child blocked then may be unblocked by
// the time it runs, as in the serial loop.
template <typename Search>
bool circuit(Search& search, fine::StateOf<Search>& st, VertexId v,
             EdgeId via_edge, std::int32_t rem) {
  using State = fine::StateOf<Search>;
  using Run = std::remove_reference_t<decltype(search.run)>;
  using Policy = decltype(search.policy);
  constexpr bool kBlists = std::is_same_v<State, JohnsonState>;
  const auto& policy = search.policy;
  assert(rem >= 1);
  {
    // Entry critical section: the path/blocking mutation must not
    // interleave with a thief copying this state.
    typename Run::Guard guard(st.lock());
    st.push(v, via_edge);
  }
  st.counters.vertices_visited += 1;

  typename Run::template Children<Search> children(search);
  bool found = false;
  for (const auto& edge : policy.out_edges(v, 0)) {
    const RTHop hop = as_hop(edge);
    if (policy.skipped(hop)) {
      continue;
    }
    st.counters.edges_visited += 1;
    if (hop.v == policy.closing()) {
      st.counters.cycles_found += 1;
      report_cycle<Policy::kEdgeIds>(st, hop.edge, search.sink);
      found = true;
      continue;
    }
    const std::int32_t next = child_rem(rem, search.bounded);
    if (next < 1 || !policy.allowed(hop.v)) {
      continue;
    }
    if constexpr (!kBlists) {
      if (next < search.dist->distance(hop.v)) {
        continue;
      }
    }
    if (search.run.should_spawn()) {
      children.spawn(st, [w = hop.v, via = hop.edge, next](Search& s,
                                                           State& at) {
        return at.can_visit(w, next) && circuit(s, at, w, via, next);
      });
    } else if (st.can_visit(hop.v, next)) {
      found |= circuit(search, st, hop.v, hop.edge, next);
    }
  }
  found |= children.wait();

  {
    // Exit critical section: decide v's blocking. Johnson's success exit
    // runs the recursive unblocking, the long critical section the paper
    // blames for its synchronisation overhead on graphs with few cycles per
    // vertex; BC-DFS's is a bounded rollback of its barrier trail, and its
    // failure exit raises one barrier.
    typename Run::Guard guard(st.lock());
    if (found) {
      st.exit_success(v);
    } else {
      st.exit_failure(v, rem);
      if constexpr (kBlists) {
        // v waits on the B-list of every neighbour it could have entered.
        for (const auto& edge : policy.out_edges(v, 0)) {
          const RTHop hop = as_hop(edge);
          if (!policy.skipped(hop) && hop.v != policy.closing() &&
              policy.allowed(hop.v)) {
            st.blist_add(hop.v, v);
          }
        }
      }
    }
    st.pop();
  }
  return found;
}

// Searches the windowed root `ctx` on a reset state: pins its tail, then
// visits its head, entered by e0 with `rem0` edges of budget left.
template <typename Run, typename State>
void windowed_circuit(Run& run, const StartContext& ctx, State& state,
                      bool bounded, std::int32_t rem0,
                      const HopDistances* dist) {
  using Spawner = decltype(spawner(run));
  CircuitSearch<Spawner, WindowedPolicy> search{
      spawner(run), {run.graph, ctx}, run.sink, bounded, dist};
  state.push(ctx.tail, kInvalidEdge);
  circuit(search, state, ctx.head, ctx.e0, rem0);
}

}  // namespace parcycle::detail
