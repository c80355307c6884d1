// Temporal Read-Tarjan: the work-efficient half of the paper's Section 7,
// enumerating temporal cycles (strictly increasing timestamps within a
// window) with the path-extension recursion of Section 6 adapted to
// time-respecting search. Dead-end marks are arrival-time thresholds; each
// recursive call reports exactly one temporal cycle.
//
//  * temporal_read_tarjan_cycles         — serial
//  * coarse_temporal_read_tarjan_cycles  — one task per starting edge
//  * fine_temporal_read_tarjan_cycles    — one task per call, copy-on-steal
//
// The call is the one Read-Tarjan core (core/read_tarjan_impl.hpp) under a
// temporal adjacency policy. All three variants share one per-start hook;
// the serial and coarse ones drain its calls depth-first (core/driver.hpp's
// roots::drain), the fine one spawns them.
#pragma once

#include "core/cycle_types.hpp"
#include "core/options.hpp"
#include "graph/temporal_graph.hpp"
#include "support/scheduler.hpp"

namespace parcycle {

EnumResult temporal_read_tarjan_cycles(const TemporalGraph& graph,
                                       Timestamp window,
                                       const EnumOptions& options = {},
                                       CycleSink* sink = nullptr);

EnumResult coarse_temporal_read_tarjan_cycles(const TemporalGraph& graph,
                                              Timestamp window,
                                              Scheduler& sched,
                                              const EnumOptions& options = {},
                                              CycleSink* sink = nullptr);

EnumResult fine_temporal_read_tarjan_cycles(const TemporalGraph& graph,
                                            Timestamp window, Scheduler& sched,
                                            const EnumOptions& options = {},
                                            const ParallelOptions& popts = {},
                                            CycleSink* sink = nullptr);

}  // namespace parcycle
