#include "core/read_tarjan.hpp"

#include <memory>
#include <vector>

#include "core/coarse_grained.hpp"
#include "core/driver.hpp"
#include "core/fine_read_tarjan.hpp"
#include "core/read_tarjan_impl.hpp"
#include "graph/scc.hpp"

namespace parcycle {

namespace {

using detail::RTCall;
using detail::StaticPolicy;
using detail::WindowedPolicy;
using State = ReadTarjanState<BudgetMarks>;

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
  if (!detail::windowed_root(run.graph, e0, run.window, run.options,
                             cycle_union, ctx)) {
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
