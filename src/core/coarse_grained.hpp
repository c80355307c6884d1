// Coarse-grained parallel cycle enumeration (Section 4 of the paper).
//
// One dynamically scheduled task per starting vertex (static graphs) or per
// starting edge (windowed), each running the full serial search. Work
// efficient, but not scalable: a single start owning most of the cycles
// serialises the run (Theorem 4.2; figure4a_graph is the adversarial
// witness). These are the baselines the fine-grained algorithms beat. Each
// is defined next to its serial driver and runs the same per-start step
// through roots::coarse_loop (core/driver.hpp).
#pragma once

#include "core/cycle_types.hpp"
#include "core/options.hpp"
#include "graph/digraph.hpp"
#include "graph/temporal_graph.hpp"
#include "support/scheduler.hpp"

namespace parcycle {

EnumResult coarse_johnson_simple_cycles(const Digraph& graph, Scheduler& sched,
                                        const EnumOptions& options = {},
                                        CycleSink* sink = nullptr);

EnumResult coarse_read_tarjan_simple_cycles(const Digraph& graph,
                                            Scheduler& sched,
                                            const EnumOptions& options = {},
                                            CycleSink* sink = nullptr);

EnumResult coarse_johnson_windowed_cycles(const TemporalGraph& graph,
                                          Timestamp window, Scheduler& sched,
                                          const EnumOptions& options = {},
                                          CycleSink* sink = nullptr);

EnumResult coarse_read_tarjan_windowed_cycles(const TemporalGraph& graph,
                                              Timestamp window,
                                              Scheduler& sched,
                                              const EnumOptions& options = {},
                                              CycleSink* sink = nullptr);

}  // namespace parcycle
