// Fine-grained parallel hop-constrained cycle enumeration (BC-DFS).
//
// Every recursive call of the barrier-pruned search can become an
// independently schedulable task; BC-DFS and Johnson share one visit
// (core/johnson_impl.hpp). Tasks executed by the thread that spawned them
// reuse the live HcState in place, while stolen tasks copy the victim's
// state under its lock and repair it by truncating the path to the
// spawn-time prefix and rolling the barrier trail back to the spawn-time
// mark (copy-on-steal; see hc_state.hpp for why the trail mark is exact).
// The shared hop-distance map is immutable during a root search, so thieves
// use it without repair.
#pragma once

#include "core/cycle_types.hpp"
#include "core/options.hpp"
#include "graph/temporal_graph.hpp"
#include "support/scheduler.hpp"

namespace parcycle {

EnumResult fine_hc_windowed_cycles(const TemporalGraph& graph,
                                   Timestamp window, int max_hops,
                                   Scheduler& sched,
                                   const EnumOptions& options = {},
                                   const ParallelOptions& popts = {},
                                   CycleSink* sink = nullptr);

}  // namespace parcycle
