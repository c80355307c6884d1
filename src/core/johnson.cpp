#include "core/johnson.hpp"

#include <memory>

#include "core/coarse_grained.hpp"
#include "core/driver.hpp"
#include "core/fine_johnson.hpp"
#include "core/johnson_impl.hpp"

namespace parcycle {

namespace {

using detail::kUnboundedRem;

// Static Johnson, serial without a scheduler and coarse with one: both loops
// run the same per-start step, whose scratch holds the start's components.
EnumResult static_johnson(const Digraph& graph, Scheduler* sched,
                          const EnumOptions& options, CycleSink* sink) {
  const VertexId n = graph.num_vertices();
  const bool bounded = options.max_cycle_length > 0;
  const auto make_scc = [] { return std::make_unique<SccResult>(); };
  const auto start = [&](std::size_t s, SccResult& scc, JohnsonState& state) {
    const auto root = static_cast<VertexId>(s);
    // Component structure of the subgraph induced by the not-yet-processed
    // vertices; cycles rooted at s stay within the component of s.
    scc = strongly_connected_components(
        graph, [root](VertexId v) { return v >= root; });
    detail::CircuitSearch<roots::SerialSpawner<JohnsonState>,
                          detail::StaticPolicy>
        search{{}, {graph, scc, root, scc.component[root]}, sink, bounded,
               nullptr};
    detail::circuit(search, state, root, kInvalidEdge,
                    bounded ? options.max_cycle_length : kUnboundedRem);
    return true;
  };
  return EnumResult::of(
      sched == nullptr
          ? roots::serial_loop<JohnsonState>(n, n, make_scc, start)
          : roots::coarse_loop<JohnsonState>(*sched, n, n, make_scc, start));
}

// The per-start hook of every windowed Johnson driver.
constexpr auto windowed_start = [](auto& run, const TemporalEdge& e0,
                                   CycleUnionScratch& cycle_union,
                                   JohnsonState& state) {
  StartContext ctx;
  if (!detail::windowed_root(run.graph, e0, run.window, run.options,
                             cycle_union, ctx)) {
    return false;
  }
  const bool bounded = run.options.max_cycle_length > 0;
  detail::windowed_circuit(
      run, ctx, state, bounded,
      bounded ? run.options.max_cycle_length - 1 : kUnboundedRem, nullptr);
  return true;
};

using WindowedRun = roots::StartRun<JohnsonState, CycleUnionScratch>;

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

EnumResult fine_johnson_windowed_cycles(const TemporalGraph& graph,
                                        Timestamp window, Scheduler& sched,
                                        const EnumOptions& options,
                                        const ParallelOptions& popts,
                                        CycleSink* sink) {
  fine::FineRun<JohnsonState, CycleUnionScratch> run{graph, window, sched,
                                                     options, popts, sink};
  run.run_roots(windowed_start);
  return run.result();
}

}  // namespace parcycle
