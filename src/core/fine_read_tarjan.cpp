#include "core/fine_read_tarjan.hpp"

#include <utility>

#include "core/fine_driver.hpp"
#include "core/johnson_impl.hpp"  // prepare_start
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
  SearchContext search{run, {}};
  if (run.options.max_cycle_length == 1 ||
      !detail::WindowedJohnsonSearch::prepare_start(
          run.graph, e0, run.window, run.options.use_cycle_union,
          &cycle_union, search.ctx)) {
    return false;
  }
  state.push(search.ctx.tail, kInvalidEdge);
  state.push(search.ctx.head, e0.id);

  detail::WindowedRTCore core(run.graph, run.options, run.sink);
  core.bind(state, search.ctx);
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
