#include "graph/temporal_graph.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

#include "support/scheduler.hpp"

namespace parcycle {

namespace {

inline bool edge_rank_less(const TemporalEdge& a, const TemporalEdge& b) {
  if (a.ts != b.ts) return a.ts < b.ts;
  if (a.src != b.src) return a.src < b.src;
  return a.dst < b.dst;
}

// Below this, task overhead outweighs the parallel sort/fill.
constexpr std::size_t kParallelFinaliseMinEdges = std::size_t{1} << 15;

// Parallel merge sort: sort `runs` contiguous chunks as tasks, then merge
// pairs level by level (each level's merges are independent tasks). SNAP
// inputs arrive almost timestamp-sorted per chunk, which std::sort and the
// run merges both exploit well.
void parallel_sort_edges(std::vector<TemporalEdge>& edges, Scheduler& sched) {
  const std::size_t runs =
      std::bit_ceil<std::size_t>(std::max(2u, sched.num_workers()));
  const std::size_t n = edges.size();
  const std::size_t run_len = (n + runs - 1) / runs;
  // Run boundaries (some trailing runs may be empty on small inputs).
  std::vector<std::size_t> bounds;
  for (std::size_t lo = 0; lo <= n; lo += run_len) {
    bounds.push_back(std::min(lo, n));
  }
  while (bounds.size() < runs + 1) {
    bounds.push_back(n);
  }
  bounds.back() = n;

  {
    TaskGroup group(sched);
    for (std::size_t r = 0; r < runs; ++r) {
      const std::size_t lo = bounds[r];
      const std::size_t hi = bounds[r + 1];
      if (hi - lo > 1) {
        group.spawn([&edges, lo, hi] {
          std::sort(edges.begin() + static_cast<std::ptrdiff_t>(lo),
                    edges.begin() + static_cast<std::ptrdiff_t>(hi),
                    edge_rank_less);
        });
      }
    }
    group.wait();
  }
  for (std::size_t width = 1; width < runs; width *= 2) {
    TaskGroup group(sched);
    for (std::size_t r = 0; r + width < runs; r += 2 * width) {
      const std::size_t lo = bounds[r];
      const std::size_t mid = bounds[r + width];
      const std::size_t hi = bounds[std::min(r + 2 * width, runs)];
      if (lo < mid && mid < hi) {
        group.spawn([&edges, lo, mid, hi] {
          std::inplace_merge(edges.begin() + static_cast<std::ptrdiff_t>(lo),
                             edges.begin() + static_cast<std::ptrdiff_t>(mid),
                             edges.begin() + static_cast<std::ptrdiff_t>(hi),
                             edge_rank_less);
        });
      }
    }
    group.wait();
  }
}

}  // namespace

TemporalGraph::TemporalGraph(VertexId num_vertices,
                             std::vector<TemporalEdge> edges)
    : TemporalGraph(num_vertices, std::move(edges), nullptr) {}

TemporalGraph::TemporalGraph(VertexId num_vertices,
                             std::vector<TemporalEdge> edges, Scheduler* sched)
    : num_vertices_(num_vertices) {
  for ([[maybe_unused]] const auto& e : edges) {
    assert(e.src < num_vertices && e.dst < num_vertices);
  }
  const bool parallel = sched != nullptr && sched->num_workers() > 1 &&
                        edges.size() >= kParallelFinaliseMinEdges;
  // Time-ordered input (a saved edge list, most SNAP dumps) is already in
  // canonical order: one O(E) check replaces the O(E log E) sort.
  const bool sorted =
      std::is_sorted(edges.begin(), edges.end(), edge_rank_less);
  if (parallel) {
    if (!sorted) {
      parallel_sort_edges(edges, *sched);
    }
    parallel_for_chunked(*sched, 0, edges.size(),
                         std::size_t{4} * sched->num_workers(),
                         [&edges](std::size_t i) {
                           edges[i].id = static_cast<EdgeId>(i);
                         });
  } else {
    if (!sorted) {
      std::sort(edges.begin(), edges.end(), edge_rank_less);
    }
    for (std::size_t i = 0; i < edges.size(); ++i) {
      edges[i].id = static_cast<EdgeId>(i);
    }
  }
  edges_by_time_ = std::move(edges);

  if (edges_by_time_.empty()) {
    min_ts_ = 0;
    max_ts_ = 0;
  } else {
    min_ts_ = edges_by_time_.front().ts;
    max_ts_ = edges_by_time_.back().ts;
  }
  build_adjacency(parallel ? sched : nullptr);
}

void TemporalGraph::build_adjacency(Scheduler* sched) {
  const std::size_t num_edges = edges_by_time_.size();
  // The per-chunk count arrays cost 2 * chunks * V words of transient
  // memory; cap the chunk count so that stays within a small multiple of
  // the edge array itself (2 * chunks * V <= 4 * E), falling back to the
  // serial fill when even two chunks would not fit the budget.
  const std::size_t chunk_budget =
      num_vertices_ > 0 ? (std::size_t{2} * num_edges) /
                              static_cast<std::size_t>(num_vertices_)
                        : 0;
  const std::size_t chunks = std::min<std::size_t>(
      sched != nullptr ? sched->num_workers() : 1, chunk_budget);
  const bool parallel = sched != nullptr && sched->num_workers() > 1 &&
                        num_edges >= kParallelFinaliseMinEdges && chunks >= 2;
  if (!parallel) {
    out_offsets_.assign(num_vertices_ + 1, 0);
    in_offsets_.assign(num_vertices_ + 1, 0);
    for (const auto& e : edges_by_time_) {
      out_offsets_[e.src + 1] += 1;
      in_offsets_[e.dst + 1] += 1;
    }
    for (VertexId v = 0; v < num_vertices_; ++v) {
      out_offsets_[v + 1] += out_offsets_[v];
      in_offsets_[v + 1] += in_offsets_[v];
    }
    fill_adjacency();
    return;
  }

  const std::size_t chunk_len = (num_edges + chunks - 1) / chunks;
  const std::size_t v_count = num_vertices_;
  // counts[c * V + v]: chunk c's degree of v; turned into that chunk's
  // scatter cursor for v by the per-vertex exclusive scan below.
  std::vector<std::size_t> out_counts(chunks * v_count, 0);
  std::vector<std::size_t> in_counts(chunks * v_count, 0);
  {
    TaskGroup group(*sched);
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t lo = c * chunk_len;
      const std::size_t hi = std::min(num_edges, lo + chunk_len);
      if (lo >= hi) {
        continue;
      }
      std::size_t* out_row = out_counts.data() + c * v_count;
      std::size_t* in_row = in_counts.data() + c * v_count;
      const TemporalEdge* base = edges_by_time_.data();
      group.spawn([base, lo, hi, out_row, in_row] {
        for (std::size_t i = lo; i < hi; ++i) {
          out_row[base[i].src] += 1;
          in_row[base[i].dst] += 1;
        }
      });
    }
    group.wait();
  }

  out_offsets_.assign(num_vertices_ + 1, 0);
  in_offsets_.assign(num_vertices_ + 1, 0);
  std::size_t out_base = 0;
  std::size_t in_base = 0;
  for (std::size_t v = 0; v < v_count; ++v) {
    out_offsets_[v] = out_base;
    in_offsets_[v] = in_base;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t out_deg = out_counts[c * v_count + v];
      out_counts[c * v_count + v] = out_base;
      out_base += out_deg;
      const std::size_t in_deg = in_counts[c * v_count + v];
      in_counts[c * v_count + v] = in_base;
      in_base += in_deg;
    }
  }
  out_offsets_[v_count] = out_base;
  in_offsets_[v_count] = in_base;

  out_edges_.resize(num_edges);
  in_edges_.resize(num_edges);
  {
    TaskGroup group(*sched);
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t lo = c * chunk_len;
      const std::size_t hi = std::min(num_edges, lo + chunk_len);
      if (lo >= hi) {
        continue;
      }
      std::size_t* out_cursor = out_counts.data() + c * v_count;
      std::size_t* in_cursor = in_counts.data() + c * v_count;
      const TemporalEdge* base = edges_by_time_.data();
      OutEdge* out_dst = out_edges_.data();
      InEdge* in_dst = in_edges_.data();
      group.spawn([base, lo, hi, out_cursor, in_cursor, out_dst, in_dst] {
        // Chunk-local scatter in edge order: chunk c's slice of each
        // vertex's list follows every earlier chunk's slice, so the global
        // (ts, id) adjacency order is preserved without a per-list sort.
        for (std::size_t i = lo; i < hi; ++i) {
          const TemporalEdge& e = base[i];
          out_dst[out_cursor[e.src]++] =
              OutEdge{.ts = e.ts, .dst = e.dst, .id = e.id};
          in_dst[in_cursor[e.dst]++] =
              InEdge{.ts = e.ts, .src = e.src, .id = e.id};
        }
      });
    }
    group.wait();
  }
}

void TemporalGraph::fill_adjacency() {
  out_edges_.resize(edges_by_time_.size());
  in_edges_.resize(edges_by_time_.size());
  std::vector<std::size_t> out_cursor(out_offsets_.begin(),
                                      out_offsets_.end() - 1);
  std::vector<std::size_t> in_cursor(in_offsets_.begin(),
                                     in_offsets_.end() - 1);
  // Iterating edges in (ts, id) order keeps every adjacency list sorted by
  // (ts, id) without a per-list sort.
  for (const auto& e : edges_by_time_) {
    out_edges_[out_cursor[e.src]++] =
        OutEdge{.ts = e.ts, .dst = e.dst, .id = e.id};
    in_edges_[in_cursor[e.dst]++] =
        InEdge{.ts = e.ts, .src = e.src, .id = e.id};
  }
}

TemporalGraph TemporalGraph::from_sorted_parts(VertexId num_vertices,
                                               SortedParts parts) {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(
        std::string("TemporalGraph::from_sorted_parts: ") + what);
  };
  const std::size_t num_edges = parts.edges_by_time.size();
  const std::size_t num_offsets = static_cast<std::size_t>(num_vertices) + 1;
  if (parts.out_offsets.size() != num_offsets ||
      parts.in_offsets.size() != num_offsets) {
    fail("offset array size mismatch");
  }
  for (const auto* offsets : {&parts.out_offsets, &parts.in_offsets}) {
    if (offsets->front() != 0 || offsets->back() != num_edges) {
      fail("offset array endpoints inconsistent with edge count");
    }
    if (!std::is_sorted(offsets->begin(), offsets->end())) {
      fail("offset array not monotone");
    }
  }
  std::vector<std::size_t> out_degree(num_vertices, 0);
  std::vector<std::size_t> in_degree(num_vertices, 0);
  for (std::size_t i = 0; i < num_edges; ++i) {
    const TemporalEdge& e = parts.edges_by_time[i];
    if (e.src >= num_vertices || e.dst >= num_vertices) {
      fail("edge endpoint out of range");
    }
    if (e.id != static_cast<EdgeId>(i)) {
      fail("edge id does not equal its (ts, src, dst) rank");
    }
    if (i > 0) {
      const TemporalEdge& prev = parts.edges_by_time[i - 1];
      const bool ordered =
          prev.ts != e.ts
              ? prev.ts < e.ts
              : (prev.src != e.src ? prev.src < e.src : prev.dst <= e.dst);
      if (!ordered) {
        fail("edges not sorted by (ts, src, dst)");
      }
    }
    out_degree[e.src] += 1;
    in_degree[e.dst] += 1;
  }
  for (VertexId v = 0; v < num_vertices; ++v) {
    if (parts.out_offsets[v + 1] - parts.out_offsets[v] != out_degree[v] ||
        parts.in_offsets[v + 1] - parts.in_offsets[v] != in_degree[v]) {
      fail("offset array disagrees with edge degrees");
    }
  }

  TemporalGraph graph;
  graph.num_vertices_ = num_vertices;
  graph.edges_by_time_ = std::move(parts.edges_by_time);
  graph.out_offsets_ = std::move(parts.out_offsets);
  graph.in_offsets_ = std::move(parts.in_offsets);
  if (!graph.edges_by_time_.empty()) {
    graph.min_ts_ = graph.edges_by_time_.front().ts;
    graph.max_ts_ = graph.edges_by_time_.back().ts;
  }
  graph.fill_adjacency();
  return graph;
}

std::span<const TemporalGraph::OutEdge> TemporalGraph::out_edges_in_window(
    VertexId v, Timestamp lo, Timestamp hi) const noexcept {
  const auto all = out_edges(v);
  const auto first = std::lower_bound(
      all.begin(), all.end(), lo,
      [](const OutEdge& e, Timestamp t) { return e.ts < t; });
  const auto last = std::upper_bound(
      first, all.end(), hi,
      [](Timestamp t, const OutEdge& e) { return t < e.ts; });
  return {first, last};
}

std::span<const TemporalGraph::InEdge> TemporalGraph::in_edges_in_window(
    VertexId v, Timestamp lo, Timestamp hi) const noexcept {
  const auto all = in_edges(v);
  const auto first = std::lower_bound(
      all.begin(), all.end(), lo,
      [](const InEdge& e, Timestamp t) { return e.ts < t; });
  const auto last = std::upper_bound(
      first, all.end(), hi,
      [](Timestamp t, const InEdge& e) { return t < e.ts; });
  return {first, last};
}

Digraph TemporalGraph::static_projection() const {
  std::vector<std::pair<VertexId, VertexId>> pairs;
  pairs.reserve(edges_by_time_.size());
  for (const auto& e : edges_by_time_) {
    pairs.emplace_back(e.src, e.dst);
  }
  return Digraph(num_vertices_, std::move(pairs), /*dedup=*/true);
}

}  // namespace parcycle
