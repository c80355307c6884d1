#include "core/fine_read_tarjan.hpp"

#include <utility>

#include "core/driver.hpp"
#include "core/read_tarjan_impl.hpp"

namespace parcycle {

namespace {

using Run = fine::FineRun<ReadTarjanState, CycleUnionScratch>;

struct SearchContext {
  Run& run;
  StartContext ctx;

  void walk(ReadTarjanState& st, const detail::RTChild& child,
            const detail::ChildFn& collect) const {
    detail::WindowedRTCore core(run.graph, run.options, run.sink);
    core.bind(st, ctx);
    core.walk(child.ext, child.excluded_edges, collect);
  }
};

// Runs the complete search for one starting edge on the block's state.
bool search_root(Run& run, const TemporalEdge& e0,
                 CycleUnionScratch& cycle_union, ReadTarjanState& state) {
  detail::WindowedRTCore core(run.graph, run.options, run.sink);
  if (!core.prepare_root(e0, run.window, cycle_union, state)) {
    return false;
  }
  SearchContext search{run, core.ctx()};
  detail::ExtPath root_ext;
  if (core.find_root_extension(root_ext)) {
    fine::exec_call(search, state,
                    detail::RTChild{state.path_length(),
                                    state.log_length(),
                                    std::move(root_ext),
                                    {},
                                    {}});
  }
  return true;
}

}  // namespace

EnumResult fine_read_tarjan_windowed_cycles(const TemporalGraph& graph,
                                            Timestamp window, Scheduler& sched,
                                            const EnumOptions& options,
                                            const ParallelOptions& popts,
                                            CycleSink* sink) {
  Run run{graph, window, sched, options, popts, sink};
  run.run_roots(search_root);
  return run.result();
}

}  // namespace parcycle
