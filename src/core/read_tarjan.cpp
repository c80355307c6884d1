#include "core/read_tarjan.hpp"

#include <memory>
#include <span>
#include <vector>

#include "core/coarse_grained.hpp"
#include "core/driver.hpp"
#include "core/fine_read_tarjan.hpp"
#include "core/read_tarjan_impl.hpp"
#include "graph/scc.hpp"

namespace parcycle {

namespace {

using detail::RTCall;
using State = ReadTarjanState<BudgetMarks>;

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

// Static Read-Tarjan, serial without a scheduler and coarse with one: both
// loops run the same per-start step.
EnumResult static_read_tarjan(const Digraph& graph, Scheduler* sched,
                              const EnumOptions& options, CycleSink* sink) {
  const VertexId n = graph.num_vertices();
  const auto make_pending = [] {
    return std::make_unique<std::vector<RTCall>>();
  };
  const auto start = [&](std::size_t s, std::vector<RTCall>& pending,
                         State& state) {
    const auto root = static_cast<VertexId>(s);
    const SccResult scc = strongly_connected_components(
        graph, [root](VertexId v) { return v >= root; });
    state.push(root, kInvalidEdge);
    detail::drain_root(StaticPolicy{graph, scc, root, scc.component[root]},
                       options, sink, state, pending);
    return true;
  };
  return EnumResult::of(
      sched == nullptr
          ? roots::serial_loop<State>(n, n, make_pending, start)
          : roots::coarse_loop<State>(*sched, n, n, make_pending, start));
}

// The per-start hook of every windowed driver: sets up the root of e0 on a
// reset state and runs its calls. Returns false, with the state untouched,
// when no cycle of two or more edges can pass through e0.
constexpr auto windowed_start = [](auto& run, const TemporalEdge& e0,
                                   auto& cycle_union, State& state) {
  StartContext ctx;
  if (run.options.max_cycle_length == 1 ||  // only self-loops have length 1
      !detail::WindowedJohnsonSearch::prepare_start(
          run.graph, e0, run.window, run.options.use_cycle_union,
          &cycle_union, ctx)) {
    return false;
  }
  state.push(ctx.tail, kInvalidEdge, e0.ts);
  state.push(ctx.head, e0.id, e0.ts);
  detail::run_root(run, cycle_union, state, WindowedPolicy{run.graph, ctx});
  return true;
};

using WindowedRun =
    roots::StartRun<State, roots::DrainScratch<CycleUnionScratch, RTCall>>;

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

EnumResult fine_read_tarjan_windowed_cycles(const TemporalGraph& graph,
                                            Timestamp window, Scheduler& sched,
                                            const EnumOptions& options,
                                            const ParallelOptions& popts,
                                            CycleSink* sink) {
  fine::FineRun<State, CycleUnionScratch> run{graph, window, sched,
                                              options, popts, sink};
  run.run_roots(windowed_start);
  return run.result();
}

}  // namespace parcycle
