// Directed temporal multigraph in CSR form.
//
// Edges carry integer timestamps; parallel edges (same endpoints, different
// or equal timestamps) are preserved. Per-vertex adjacency is sorted by
// (timestamp, id) so time-window filtered iteration is a binary search plus a
// contiguous scan — the access pattern every windowed algorithm in this
// library relies on.
#pragma once

#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/types.hpp"

namespace parcycle {

class Scheduler;

class TemporalGraph {
 public:
  // Half-edge layout: the 8-byte timestamp leads and the two 4-byte ids
  // pack behind it, so a half-edge is 16 bytes with no padding (a
  // {vertex, ts, id} order pads to 24). Every edge has two half-edges, the
  // bulk of a graph's footprint, and the stream's per-vertex lists use the
  // same types.
  // Build them with designated initializers: every field is an integer, so
  // a positional initializer in the wrong order still compiles.
  //
  // Half-edge stored in the out-adjacency of a source vertex.
  struct OutEdge {
    Timestamp ts;
    VertexId dst;
    EdgeId id;
  };
  // Half-edge stored in the in-adjacency of a destination vertex.
  struct InEdge {
    Timestamp ts;
    VertexId src;
    EdgeId id;
  };
  static_assert(sizeof(OutEdge) == 16 && sizeof(InEdge) == 16);

  TemporalGraph() = default;

  // `edges` need not be sorted; ids are (re)assigned by (ts, src, dst) rank.
  // Input already in that order is detected in one O(E) pass and not sorted.
  TemporalGraph(VertexId num_vertices, std::vector<TemporalEdge> edges);

  // Parallel finalisation: sorts the edges as per-chunk sorted runs merged
  // in parallel rounds and fills the CSR adjacency with a per-chunk counting
  // sort, as tasks on `sched` (call from the thread that owns the scheduler).
  // Produces a graph byte-identical to the serial constructor; `sched ==
  // nullptr` or a small input falls back to the serial path. This is what
  // keeps graph finalisation off the critical path once the parallel parser
  // has made tokenisation cheap (see ROADMAP "Parallel graph finalisation").
  TemporalGraph(VertexId num_vertices, std::vector<TemporalEdge> edges,
                Scheduler* sched);

  // Pre-sorted representation parts, as persisted by the binary graph cache
  // (io/graph_cache.hpp): edges in ascending (ts, src, dst) order with
  // ids equal to their index, plus the CSR offset arrays derived from them.
  struct SortedParts {
    std::vector<TemporalEdge> edges_by_time;
    std::vector<std::size_t> out_offsets;  // size num_vertices + 1
    std::vector<std::size_t> in_offsets;   // size num_vertices + 1
  };

  // Adopts `parts` without re-sorting: the cache fast path. Validates order,
  // ids, endpoint ranges, and offset consistency in O(E) and throws
  // std::invalid_argument on any violation, so a corrupted or hand-edited
  // cache can never produce a graph that breaks algorithm invariants.
  static TemporalGraph from_sorted_parts(VertexId num_vertices,
                                         SortedParts parts);

  VertexId num_vertices() const noexcept { return num_vertices_; }
  EdgeId num_edges() const noexcept {
    return static_cast<EdgeId>(edges_by_time_.size());
  }

  // All edges in ascending (ts, src, dst) order; edge `id` equals its index.
  std::span<const TemporalEdge> edges_by_time() const noexcept {
    return edges_by_time_;
  }

  const TemporalEdge& edge(EdgeId id) const noexcept {
    return edges_by_time_[id];
  }

  std::span<const OutEdge> out_edges(VertexId v) const noexcept {
    return {out_edges_.data() + out_offsets_[v],
            out_edges_.data() + out_offsets_[v + 1]};
  }

  std::span<const InEdge> in_edges(VertexId v) const noexcept {
    return {in_edges_.data() + in_offsets_[v],
            in_edges_.data() + in_offsets_[v + 1]};
  }

  // Out-edges of v with ts in [lo, hi], both bounds inclusive.
  std::span<const OutEdge> out_edges_in_window(VertexId v, Timestamp lo,
                                               Timestamp hi) const noexcept;
  // In-edges of v with ts in [lo, hi], both bounds inclusive.
  std::span<const InEdge> in_edges_in_window(VertexId v, Timestamp lo,
                                             Timestamp hi) const noexcept;
  // Out- and in-edges of v with ts in (after, hi]: strictly after `after`,
  // which may be the Timestamp maximum (an empty range, where after + 1
  // would overflow).
  std::span<const OutEdge> out_edges_after(VertexId v, Timestamp after,
                                           Timestamp hi) const noexcept {
    return after < hi ? out_edges_in_window(v, after + 1, hi)
                      : std::span<const OutEdge>{};
  }
  std::span<const InEdge> in_edges_after(VertexId v, Timestamp after,
                                         Timestamp hi) const noexcept {
    return after < hi ? in_edges_in_window(v, after + 1, hi)
                      : std::span<const InEdge>{};
  }

  Timestamp min_timestamp() const noexcept { return min_ts_; }
  Timestamp max_timestamp() const noexcept { return max_ts_; }
  // max - min; the paper's "time span T".
  Timestamp time_span() const noexcept { return max_ts_ - min_ts_; }

  // Static digraph with one edge per distinct (src, dst) pair.
  Digraph static_projection() const;

 private:
  // Scatters edges_by_time_ into out_edges_/in_edges_; offsets must be set.
  void fill_adjacency();
  // Counting-sort CSR build (offsets + scatter) parallelised over edge
  // chunks; falls back to the serial count + fill_adjacency when `sched` is
  // null or the graph is too small to amortise the per-chunk count arrays.
  void build_adjacency(Scheduler* sched);

  VertexId num_vertices_ = 0;
  std::vector<TemporalEdge> edges_by_time_;
  std::vector<std::size_t> out_offsets_{0};
  std::vector<OutEdge> out_edges_;
  std::vector<std::size_t> in_offsets_{0};
  std::vector<InEdge> in_edges_;
  Timestamp min_ts_ = 0;
  Timestamp max_ts_ = 0;
};

}  // namespace parcycle
