// Internal search core for temporal cycle enumeration in the Johnson family:
// time-respecting DFS with 2SCENT closing times and path bundles (paper
// Section 7). Its per-start hook serves the serial driver, the
// coarse-grained driver and the 2SCENT baseline through the root loops of
// core/driver.hpp; the fine-grained driver reimplements the recursion with
// task spawning but reuses the same state and helpers.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cycle_types.hpp"
#include "core/driver.hpp"
#include "core/options.hpp"
#include "graph/temporal_graph.hpp"
#include "temporal/cycle_union.hpp"
#include "temporal/temporal_state.hpp"

namespace parcycle::detail {

class TemporalJohnsonSearch {
 public:
  TemporalJohnsonSearch(const TemporalGraph& graph, Timestamp window,
                        const EnumOptions& options, CycleSink* sink)
      : graph_(graph), window_(window), options_(options), sink_(sink) {}

  // Runs the full search rooted at starting edge e0 on a reset state,
  // pruned to its cycle-union; returns false when it skipped e0 without
  // touching the state. Counters accumulate in state.counters.
  bool search_from(const TemporalEdge& e0, ClosingTimeState& state,
                   CycleUnionView cycle_union);

  // Shared helpers ------------------------------------------------------------

  // Sets up the root on a reset state: returns false if the start can be
  // skipped. On success the state holds hops [tail, head] with the head's
  // bundle = {e0}.
  static bool prepare_root(const TemporalGraph& graph, const TemporalEdge& e0,
                           Timestamp window, CycleUnionView cycle_union,
                           ClosingTimeState& state, Timestamp& hi_out);

  // Expands and reports every instance of the current path closed by
  // `closing`, in lockstep with the DP count. Thread-safe given a
  // thread-safe sink (reads only the caller's state).
  static void report_instances(const ClosingTimeState& state, VertexId tail,
                               const BundleEdge& closing, CycleSink* sink);

 private:
  bool explore(ClosingTimeState& st, std::int32_t rem);

  const TemporalGraph& graph_;
  Timestamp window_;
  const EnumOptions& options_;
  CycleSink* sink_;
  VertexId tail_ = kInvalidVertex;
  Timestamp hi_ = 0;
  CycleUnionView union_;
};

using TemporalJohnsonRun = roots::StartRun<ClosingTimeState, CycleUnionBlock>;

// The per-start hook of serial and coarse temporal Johnson, and of 2SCENT's
// search pass (a run without cycle-unions).
bool search_start(const TemporalJohnsonRun& run, const TemporalEdge& e0,
                  CycleUnionBlock& block, ClosingTimeState& state);

// Number of path instances arriving strictly before `ts` (prefix sum over the
// hop's bundle edges, which are ascending by ts).
inline std::uint64_t instances_before(const ClosingTimeState::Hop& hop,
                                      Timestamp ts) {
  std::uint64_t total = 0;
  for (const auto& edge : hop.edges) {
    if (edge.ts >= ts) {
      break;
    }
    total += edge.instances;
  }
  return total;
}

}  // namespace parcycle::detail
