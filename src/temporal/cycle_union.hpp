// Temporal cycle-union preprocessing (Section 7 of the paper).
//
// For a starting edge e0 = (tail -> head, t0) and window [t0, t0 + delta],
// the cycle-union is the set of vertices that can lie on a temporal cycle
// through e0: vertices v whose earliest strictly-time-increasing arrival from
// `head` (departing after t0) precedes the latest departure from v that still
// reaches `tail` by the end of the window.
//
// Two layers share the work:
//
//  * ClosableStarts decides, for every start of a run at once, whether the
//    tail is temporally reachable from the head at all (a temporal cycle
//    through e0 exists iff it is). One ascending scan over the edges of
//    (t0_first, t0_last + delta] answers 64 consecutive starts with one
//    machine word per vertex, so a start costs about (window edges) / 64 —
//    the linear-time, embarrassingly parallel replacement for 2SCENT's
//    sequential preprocessing that the paper contributes, batched.
//  * TemporalReachScratch computes the per-vertex cycle-union of one start
//    that passed that filter, for the DFS to prune with. Edge ids are global
//    time ranks, so every edge of a head -> tail path lies in the id range
//    from the head's first out-edge to the tail's last in-edge inside the
//    window: both passes scan only that slice.
#pragma once

#include <cstdint>
#include <vector>

#include "core/options.hpp"
#include "graph/temporal_graph.hpp"
#include "graph/types.hpp"

namespace parcycle {

class Scheduler;

class TemporalReachScratch {
 public:
  void init(VertexId n);

  // Computes the cycle-union for the given starting edge and window end
  // `hi` (inclusive). Returns false when no temporal cycle through e0 can
  // exist (tail unreachable in time). A self-loop start is its own cycle:
  // true, with only its vertex in the union.
  bool compute(const TemporalGraph& graph, const TemporalEdge& e0,
               Timestamp hi);

  // May vertex v lie on a temporal cycle of this start? Valid after a
  // successful compute (tail and head are always allowed); false for every
  // vertex after a failed one.
  bool contains(VertexId v) const noexcept {
    return earliest_arrival_[v] < latest_departure_[v];
  }

  // Earliest strictly-increasing arrival at v from the head (the largest
  // Timestamp when unreached); used by tests.
  Timestamp earliest_arrival(VertexId v) const noexcept {
    return earliest_arrival_[v];
  }

 private:
  // Per-vertex passes of the last compute; touched_ lists the entries it set,
  // which the next compute resets.
  std::vector<Timestamp> earliest_arrival_;  // max(): not reached
  std::vector<Timestamp> latest_departure_;  // min(): cannot reach the tail
  std::vector<VertexId> touched_;
};

// One bit per starting edge of edges_by_time(): may a temporal cycle within
// `window` begin with this edge? Equal to TemporalReachScratch::compute(
// graph, e0, e0.ts + window) for every start, so a driver can skip a start
// whose bit is clear before touching any per-start state.
class ClosableStarts {
 public:
  // Fills the bitmap, one 64-start block per loop index, as chunked tasks on
  // `sched` (call from the thread that owns it) or serially when null. With
  // options.use_cycle_union off nothing is computed and every start passes.
  ClosableStarts(const TemporalGraph& graph, Timestamp window,
                 const EnumOptions& options, Scheduler* sched);

  bool passes(EdgeId start) const noexcept {
    return words_.empty() || ((words_[start / 64] >> (start % 64)) & 1U) != 0;
  }

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace parcycle
