// Temporal cycle enumeration (edges strictly increasing in time, all within
// a window of size delta anchored at the first edge) — the paper's Section 7
// algorithms built on the Johnson machinery:
//
//  * temporal_johnson_cycles          — serial (closing times + path bundles)
//  * coarse_temporal_johnson_cycles   — one task per starting edge (Section 4)
//  * fine_temporal_johnson_cycles     — every recursive call a task, with
//                                       copy-on-steal (Section 5 + 7)
//
// All three run one visit, written over a spawner: the serial and coarse
// variants through the serial and coarse root loops of core/driver.hpp,
// the fine one through the copy-on-steal driver there.
//
// All variants use the scalable cycle-union preprocessing
// (temporal/cycle_union.hpp) unless options.use_cycle_union is cleared.
#pragma once

#include "core/cycle_types.hpp"
#include "core/options.hpp"
#include "graph/temporal_graph.hpp"
#include "support/scheduler.hpp"

namespace parcycle {

EnumResult temporal_johnson_cycles(const TemporalGraph& graph,
                                   Timestamp window,
                                   const EnumOptions& options = {},
                                   CycleSink* sink = nullptr);

EnumResult coarse_temporal_johnson_cycles(const TemporalGraph& graph,
                                          Timestamp window, Scheduler& sched,
                                          const EnumOptions& options = {},
                                          CycleSink* sink = nullptr);

EnumResult fine_temporal_johnson_cycles(const TemporalGraph& graph,
                                        Timestamp window, Scheduler& sched,
                                        const EnumOptions& options = {},
                                        const ParallelOptions& popts = {},
                                        CycleSink* sink = nullptr);

}  // namespace parcycle
