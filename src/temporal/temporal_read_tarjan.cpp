#include "temporal/temporal_read_tarjan.hpp"

#include "core/driver.hpp"
#include "core/read_tarjan_impl.hpp"
#include "temporal/cycle_union.hpp"

namespace parcycle {

namespace {

using detail::RTCall;
using State = ReadTarjanState<ArrivalMarks>;

// Temporal cycles: from the frontier's arrival, only strictly later edges
// up to the window's end, marked by arrival time.
struct TemporalPolicy {
  using Marks = ArrivalMarks;
  static constexpr bool kBoundedMarksSurvive = false;
  static constexpr bool kEdgeIds = true;

  const TemporalGraph& graph;
  VertexId tail;
  Timestamp hi;
  CycleUnionView cycle_union;

  auto out_edges(VertexId u, Timestamp arrival) const {
    return graph.out_edges_after(u, arrival, hi);
  }
  static bool skipped(const RTHop&) { return false; }
  VertexId closing() const { return tail; }
  bool allowed(VertexId v) const { return cycle_union.contains(v); }
  static Timestamp mark(const RTHop& hop, std::int32_t) { return hop.ts; }
};

// The per-start hook of every driver: sets up the root of e0 on a reset
// state and runs its calls. Returns false, with the state untouched, when
// no cycle can pass through e0.
constexpr auto search_start = [](auto& run, const TemporalEdge& e0,
                                 auto& block, State& state) {
  const CycleUnionView cycle_union = block.view(e0.id);
  const Timestamp hi = saturating_add(e0.ts, run.window);
  // A head inside a block's union implies a later head out-edge and tail
  // in-edge in the window; without a block, look them up.
  if (!cycle_union.contains(e0.dst)) {
    return false;
  }
  if (cycle_union.lanes == nullptr &&
      (run.graph.out_edges_after(e0.dst, e0.ts, hi).empty() ||
       run.graph.in_edges_after(e0.src, e0.ts, hi).empty())) {
    return false;
  }
  if (run.options.max_cycle_length == 1) {
    return false;  // only self-loops, handled by the root loops
  }
  state.push(e0.src, kInvalidEdge, e0.ts);  // tail pinned; arrival unused
  state.push(e0.dst, e0.id, e0.ts);
  detail::run_root(run, block, state,
                   TemporalPolicy{run.graph, e0.src, hi, cycle_union});
  return true;
};

using Run =
    roots::StartRun<State, roots::DrainScratch<CycleUnionBlock, RTCall>>;

}  // namespace

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

EnumResult fine_temporal_read_tarjan_cycles(const TemporalGraph& graph,
                                            Timestamp window, Scheduler& sched,
                                            const EnumOptions& options,
                                            const ParallelOptions& popts,
                                            CycleSink* sink) {
  fine::FineRun<State, CycleUnionBlock> run{graph, window, sched,
                                            options, popts, sink};
  run.run_roots(search_start);
  return run.result();
}

}  // namespace parcycle
