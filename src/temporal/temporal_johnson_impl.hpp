// Internal search core for temporal cycle enumeration in the Johnson family:
// time-respecting DFS with 2SCENT closing times and path bundles (paper
// Section 7). Its one visit, in temporal_johnson.cpp, is written over a
// spawner (core/driver.hpp), so the serial, coarse and fine drivers share
// it; its per-start hook also serves the 2SCENT baseline and the start-cost
// profile of bench_support/runner.
#pragma once

#include "core/cycle_types.hpp"
#include "core/driver.hpp"
#include "graph/temporal_graph.hpp"
#include "temporal/cycle_union.hpp"
#include "temporal/temporal_state.hpp"

namespace parcycle::detail {

using TemporalJohnsonRun = roots::StartRun<ClosingTimeState, CycleUnionBlock>;

// The per-start hook of serial and coarse temporal Johnson, and of 2SCENT's
// search pass (a run without cycle-unions): searches e0 on a reset state,
// pruned to its cycle-union in `block`, and returns false when it skipped
// e0 without touching the state. Counters accumulate in state.counters.
bool search_start(const TemporalJohnsonRun& run, const TemporalEdge& e0,
                  CycleUnionBlock& block, ClosingTimeState& state);

}  // namespace parcycle::detail
