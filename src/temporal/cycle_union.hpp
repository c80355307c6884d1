// Temporal cycle-union preprocessing (Section 7 of the paper).
//
// For a starting edge e0 = (tail -> head, t0) and window [t0, t0 + delta],
// the cycle-union is the set of vertices that can lie on a temporal cycle
// through e0: vertices v whose earliest strictly-time-increasing arrival from
// `head` (departing after t0) precedes the latest departure from v that still
// reaches `tail` by the end of the window. A temporal cycle through e0 exists
// iff the head is in it.
//
// CycleUnionBlock computes the unions of 256 starts at once, start j of a
// block owning bit j % 64 of word j / 64 of a four-word lane vector:
//
//  * a forward ascending scan of (t0_first, t0_last + delta] keeps
//    reached[v] (start j has arrived at v) and logs every new arrival as
//    (t, v, lanes), a head's seed at t0_j;
//  * a backward descending scan of the same edges keeps coreach[v] (v can
//    still depart later within j's window on a path to tail_j). Before each
//    timestamp group it rewinds the log so reached[v] holds only arrivals
//    strictly before the group, and an edge (v -> w, t) live for j puts bit
//    j in union[v] when v was reached before t and w reaches the tail after.
//
// Edges sharing a timestamp read the state from before their group in both
// scans, so equal timestamps never chain. Both scans skip the gaps in which
// no start of the block is live, so the starts of a block need not be
// consecutive: the block serves an ascending list of start ids, 256 list
// entries per block.
//
// The drivers run it in two phases. The closability pass, closable(), runs
// the forward scan alone over blocks of 256 consecutive starts; a start can
// close a cycle when the scan reaches its tail (a self-loop always can).
// Then both scans run over blocks of 256 closable starts, so no lane
// carries a start that cannot close. A scan costs about (window edges +
// edges between the block's first and last start) four-word edge steps:
// the per-step loop and branch overhead, not the word operations, is what
// an edge step costs, so wider lanes share it among more starts. With a
// fraction c of the starts closable, the packed scans run over c times as
// many blocks, each a little longer. On the perfbench temporal-batch input
// (c = 0.19) the edge steps fall from 10.13M (5.07M forward, 5.05M
// backward) to 8.04M: 5.07M in the closability pass, 1.48M in each packed
// scan. The price is memory: three 32-byte lane vectors per vertex
// (reached, coreach, union) plus a 48-byte entry per logged arrival, and
// the 4-byte id of each closable start. A start's union is then one bit
// test per vertex: the linear-time, embarrassingly parallel replacement for
// 2SCENT's sequential preprocessing that the paper contributes, batched.
//
// TemporalReachScratch computes the union of a single start with two
// per-vertex passes over a trimmed edge slice. The enumerators use the
// block; the single-start passes are the oracle it is tested against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/temporal_graph.hpp"
#include "graph/types.hpp"

namespace parcycle {

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

// One bit per start of a CycleUnionBlock: start j is bit j % 64 of
// words[j / 64].
struct CycleUnionLanes {
  static constexpr std::size_t kWords = 4;
  std::uint64_t words[kWords] = {};

  // Spelled out: it runs on every edge step, where gcc -O2 keeps a loop.
  bool any() const noexcept {
    static_assert(kWords == 4);
    return ((words[0] | words[1]) | (words[2] | words[3])) != 0;
  }
  bool test(std::size_t j) const noexcept {
    return ((words[j / 64] >> (j % 64)) & 1) != 0;
  }
  void set(std::size_t j) noexcept {
    words[j / 64] |= std::uint64_t{1} << (j % 64);
  }
  void reset(std::size_t j) noexcept {
    words[j / 64] &= ~(std::uint64_t{1} << (j % 64));
  }
  CycleUnionLanes operator~() const noexcept {
    CycleUnionLanes out;
    for (std::size_t k = 0; k < kWords; ++k) {
      out.words[k] = ~words[k];
    }
    return out;
  }
  CycleUnionLanes& operator&=(const CycleUnionLanes& other) noexcept {
    for (std::size_t k = 0; k < kWords; ++k) {
      words[k] &= other.words[k];
    }
    return *this;
  }
  CycleUnionLanes& operator|=(const CycleUnionLanes& other) noexcept {
    for (std::size_t k = 0; k < kWords; ++k) {
      words[k] |= other.words[k];
    }
    return *this;
  }
  friend CycleUnionLanes operator&(CycleUnionLanes a,
                                   const CycleUnionLanes& b) noexcept {
    return a &= b;
  }
};

// One start's cycle-union as computed by its block: word `word` of every
// vertex's lanes, bit `bit`. A default view (no lanes) prunes nothing.
struct CycleUnionView {
  const CycleUnionLanes* lanes = nullptr;
  std::size_t word = 0;
  std::uint64_t bit = 0;

  // Same answer as TemporalReachScratch::contains after compute(); for the
  // head it is the answer of compute() itself.
  bool contains(VertexId v) const noexcept {
    return lanes == nullptr || (lanes[v].words[word] & bit) != 0;
  }
};

// Cycle-unions of one block of 256 starts, recomputed on demand. A view stays
// valid until the object computes another block. Cache-line aligned: drivers
// keep one per worker.
class alignas(64) CycleUnionBlock {
 public:
  static constexpr std::size_t kStarts = 64 * CycleUnionLanes::kWords;

  // With `enabled` false nothing is computed and every view prunes nothing.
  CycleUnionBlock(const TemporalGraph& graph, Timestamp window,
                  bool enabled = true)
      : graph_(&graph), window_(window), enabled_(enabled) {}

  // Serves the starts listed in `starts`, ascending ids of edges_by_time()
  // that outlive their use here: block b holds list entries [256 b,
  // 256 b + 256). Until the first call the list is all of edges_by_time().
  // Drops the held block.
  void serve(std::span<const EdgeId> starts);

  // The union of starting edge `start` (a listed id) within
  // [ts, ts + window]; computes the start's block first unless it is held.
  CycleUnionView view(EdgeId start);

  // The closability pass of block `block` of edges_by_time(), the 256
  // consecutive starts from 256 * block whatever the list: bit j is set when
  // start 256 * block + j can close a cycle, a self-loop or a start whose
  // tail the forward scan reaches. A held block stays valid.
  CycleUnionLanes closable(std::size_t block);

 private:
  using Lanes = CycleUnionLanes;
  struct Arrival {
    Timestamp ts;
    VertexId v;
    CycleUnionLanes bits;
  };
  // Where a forward scan ran: edges [begin, end), `logged` arrivals.
  struct Scan {
    std::size_t begin;
    std::size_t end;
    std::size_t logged;
  };

  void allocate();
  void compute(std::size_t block);
  Scan forward(const TemporalEdge* starts, std::size_t count,
               const Lanes& open);
  Lanes tails_reached(const TemporalEdge* starts, std::size_t count,
                      const Lanes& open) const noexcept;
  void backward(const TemporalEdge* starts, std::size_t count,
                const Lanes& closable, const Scan& scan);
  void touch(VertexId v, const CycleUnionLanes& bits) noexcept;
  void reserve_log(std::size_t size);

  const TemporalGraph* graph_;
  Timestamp window_;
  bool enabled_;
  bool listed_ = false;          // serve() was called
  std::span<const EdgeId> list_;  // the served starts when listed_
  std::size_t block_ = static_cast<std::size_t>(-1);
  std::vector<TemporalEdge> starts_;  // a listed block's starts, gathered
  std::vector<CycleUnionLanes> reached_;  // zero between scans
  std::vector<CycleUnionLanes> coreach_;  // zero outside touched_
  std::vector<CycleUnionLanes> union_;    // zero outside touched_
  std::vector<VertexId> touched_;  // capacity; vertices listed by touch()
  std::size_t num_touched_ = 0;
  std::vector<Arrival> log_;  // capacity; the entries in use are counted
  std::vector<std::pair<VertexId, CycleUnionLanes>> group_;  // deferred
};

}  // namespace parcycle
