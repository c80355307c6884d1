// Internal search cores of the Johnson algorithm. The serial and the
// coarse-grained drivers (johnson.cpp) run them through the root loops of
// core/driver.hpp, one per-start step for both. The fine-grained variant
// (fine_johnson.cpp) keeps only its recursive visit, which spawns tasks
// through the shared copy-on-steal driver, and reuses prepare_start,
// report_cycle, JohnsonState and StartContext.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cycle_types.hpp"
#include "core/johnson_state.hpp"
#include "core/options.hpp"
#include "core/window_context.hpp"
#include "graph/digraph.hpp"
#include "graph/scc.hpp"
#include "graph/temporal_graph.hpp"

namespace parcycle::detail {

// Remaining-budget constant used when max_cycle_length == 0. Strictly below
// JohnsonState::kOnPath so an on-path vertex still blocks every visit.
inline constexpr std::int32_t kUnboundedRem = JohnsonState::kOnPath - 1;

// Budget available after traversing one more edge.
inline std::int32_t child_rem(std::int32_t rem, bool bounded) {
  return bounded ? rem - 1 : kUnboundedRem;
}

// ---------------------------------------------------------------------------
// Static graphs: Johnson's original formulation. Cycles are rooted at their
// smallest vertex: the search from start vertex s is restricted to the
// strongly connected component of s within the subgraph induced by {v >= s}.
// ---------------------------------------------------------------------------
class StaticJohnsonSearch {
 public:
  StaticJohnsonSearch(const Digraph& graph, const EnumOptions& options,
                      CycleSink* sink)
      : graph_(graph), options_(options), sink_(sink) {}

  // Enumerates all cycles whose smallest vertex is `start` on a reset
  // state. `scc` must be the component structure of the subgraph induced by
  // {v >= start}. Work counters accumulate into state.counters.
  void search_from(VertexId start, const SccResult& scc, JohnsonState& state);

 private:
  bool circuit(VertexId v, std::int32_t rem);
  void report();

  const Digraph& graph_;
  const EnumOptions& options_;
  CycleSink* sink_;
  JohnsonState* state_ = nullptr;
  const SccResult* scc_ = nullptr;
  VertexId start_ = 0;
  VertexId start_component_ = 0;
  bool bounded_ = false;
};

// ---------------------------------------------------------------------------
// Temporal graphs, simple cycles within a time window: one search per
// starting edge e0, restricted to edges with id > e0 and ts <= t0 + window
// (so e0 is the canonical minimum edge of every reported cycle).
// ---------------------------------------------------------------------------
class WindowedJohnsonSearch {
 public:
  WindowedJohnsonSearch(const TemporalGraph& graph, Timestamp window,
                        const EnumOptions& options, CycleSink* sink)
      : graph_(graph), window_(window), options_(options), sink_(sink) {}

  // Runs the search for starting edge e0 on a reset state; returns false
  // when it skipped e0 without touching the state. `cycle_union` provides
  // reusable reachability scratch when options.use_cycle_union is set (may
  // be null). Work counters accumulate into state.counters.
  bool search_from(const TemporalEdge& e0, JohnsonState& state,
                   CycleUnionScratch* cycle_union);

  // Shared helpers (also used by the fine-grained driver).
  static bool prepare_start(const TemporalGraph& graph, const TemporalEdge& e0,
                            Timestamp window, bool use_cycle_union,
                            CycleUnionScratch* scratch, StartContext& ctx);
  static void report_cycle(const JohnsonState& state, EdgeId closing_edge,
                           CycleSink* sink, std::vector<EdgeId>& edge_scratch);

 private:
  bool circuit(VertexId v, EdgeId via_edge, std::int32_t rem);

  const TemporalGraph& graph_;
  Timestamp window_;
  const EnumOptions& options_;
  CycleSink* sink_;
  JohnsonState* state_ = nullptr;
  StartContext ctx_;
  bool bounded_ = false;
  std::vector<EdgeId> edge_scratch_;
};

}  // namespace parcycle::detail
