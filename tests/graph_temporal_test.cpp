#include "graph/temporal_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "graph/builder.hpp"
#include "support/prng.hpp"
#include "support/scheduler.hpp"

namespace parcycle {
namespace {

TemporalGraph make_sample() {
  // Mirrors the paper's Figure 2 style: edges with assorted timestamps,
  // including parallel edges.
  GraphBuilder builder(5);
  builder.add_edge(0, 1, 10);
  builder.add_edge(1, 2, 12);
  builder.add_edge(2, 0, 15);
  builder.add_edge(1, 2, 14);  // parallel edge, later timestamp
  builder.add_edge(2, 3, 5);
  builder.add_edge(3, 4, 7);
  builder.add_edge(4, 2, 2);
  return builder.build_temporal();
}

TEST(TemporalGraph, IdsFollowTimeOrder) {
  const TemporalGraph g = make_sample();
  ASSERT_EQ(g.num_edges(), 7u);
  const auto edges = g.edges_by_time();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(edges[i].id, i);
    if (i > 0) {
      EXPECT_LE(edges[i - 1].ts, edges[i].ts);
    }
  }
  EXPECT_EQ(g.min_timestamp(), 2);
  EXPECT_EQ(g.max_timestamp(), 15);
  EXPECT_EQ(g.time_span(), 13);
}

TEST(TemporalGraph, OutEdgesSortedByTimestamp) {
  const TemporalGraph g = make_sample();
  const auto out1 = g.out_edges(1);
  ASSERT_EQ(out1.size(), 2u);
  EXPECT_EQ(out1[0].ts, 12);
  EXPECT_EQ(out1[1].ts, 14);
  EXPECT_EQ(out1[0].dst, 2u);
  EXPECT_EQ(out1[1].dst, 2u);
}

TEST(TemporalGraph, InEdgesSortedByTimestamp) {
  const TemporalGraph g = make_sample();
  const auto in2 = g.in_edges(2);
  ASSERT_EQ(in2.size(), 3u);
  EXPECT_EQ(in2[0].ts, 2);
  EXPECT_EQ(in2[1].ts, 12);
  EXPECT_EQ(in2[2].ts, 14);
}

TEST(TemporalGraph, WindowQueriesAreInclusive) {
  const TemporalGraph g = make_sample();
  const auto window = g.out_edges_in_window(1, 12, 14);
  ASSERT_EQ(window.size(), 2u);

  const auto only_first = g.out_edges_in_window(1, 12, 13);
  ASSERT_EQ(only_first.size(), 1u);
  EXPECT_EQ(only_first[0].ts, 12);

  const auto none = g.out_edges_in_window(1, 15, 20);
  EXPECT_TRUE(none.empty());

  const auto in_window = g.in_edges_in_window(2, 3, 13);
  ASSERT_EQ(in_window.size(), 1u);
  EXPECT_EQ(in_window[0].ts, 12);
}

TEST(TemporalGraph, EdgeLookupById) {
  const TemporalGraph g = make_sample();
  const auto& first = g.edge(0);
  EXPECT_EQ(first.ts, 2);
  EXPECT_EQ(first.src, 4u);
  EXPECT_EQ(first.dst, 2u);
}

TEST(TemporalGraph, StaticProjectionDedups) {
  const TemporalGraph g = make_sample();
  const Digraph s = g.static_projection();
  EXPECT_EQ(s.num_vertices(), 5u);
  EXPECT_EQ(s.num_edges(), 6u);  // the two 1->2 edges collapse
  EXPECT_TRUE(s.has_edge(1, 2));
  EXPECT_TRUE(s.has_edge(4, 2));
}

TEST(TemporalGraph, EmptyGraph) {
  TemporalGraph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.time_span(), 0);
}

TEST(TemporalGraph, TiedTimestampsGetDistinctIds) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1, 5);
  builder.add_edge(1, 2, 5);
  builder.add_edge(2, 0, 5);
  const TemporalGraph g = builder.build_temporal();
  const auto edges = g.edges_by_time();
  EXPECT_EQ(edges[0].id, 0u);
  EXPECT_EQ(edges[1].id, 1u);
  EXPECT_EQ(edges[2].id, 2u);
  // Ties broken by (src, dst).
  EXPECT_EQ(edges[0].src, 0u);
  EXPECT_EQ(edges[1].src, 1u);
  EXPECT_EQ(edges[2].src, 2u);
}

// Field-by-field equality: edges, ids, min/max timestamps and both
// adjacency arrays in order.
void expect_identical(const TemporalGraph& a, const TemporalGraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.min_timestamp(), b.min_timestamp());
  EXPECT_EQ(a.max_timestamp(), b.max_timestamp());
  for (EdgeId i = 0; i < a.num_edges(); ++i) {
    const TemporalEdge& x = a.edge(i);
    const TemporalEdge& y = b.edge(i);
    ASSERT_TRUE(x.src == y.src && x.dst == y.dst && x.ts == y.ts &&
                x.id == y.id && x.id == i)
        << "edge " << i;
  }
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    const auto ao = a.out_edges(v);
    const auto bo = b.out_edges(v);
    ASSERT_EQ(ao.size(), bo.size()) << "vertex " << v;
    for (std::size_t k = 0; k < ao.size(); ++k) {
      ASSERT_TRUE(ao[k].ts == bo[k].ts && ao[k].dst == bo[k].dst &&
                  ao[k].id == bo[k].id)
          << "out-edge " << k << " of vertex " << v;
    }
    const auto ai = a.in_edges(v);
    const auto bi = b.in_edges(v);
    ASSERT_EQ(ai.size(), bi.size()) << "vertex " << v;
    for (std::size_t k = 0; k < ai.size(); ++k) {
      ASSERT_TRUE(ai[k].ts == bi[k].ts && ai[k].src == bi[k].src &&
                  ai[k].id == bi[k].id)
          << "in-edge " << k << " of vertex " << v;
    }
  }
}

TEST(TemporalGraph, SortedAndShuffledInputsBuildTheSameGraph) {
  // Above the parallel-finalisation gate (2^15 edges), with about eight
  // edges per timestamp and some exact duplicates, so ties need the
  // (src, dst) order. Already-sorted input skips the sort; shuffled input
  // takes it; all four builds must agree.
  constexpr VertexId kVertices = 500;
  constexpr std::size_t kEdges = 40'000;
  SplitMix64 rng(17);
  std::vector<TemporalEdge> shuffled;
  for (std::size_t i = 0; i < kEdges; ++i) {
    const auto src = static_cast<VertexId>(rng.next() % kVertices);
    const auto dst = static_cast<VertexId>(rng.next() % kVertices);
    const auto ts = static_cast<Timestamp>(rng.next() % (kEdges / 8));
    shuffled.push_back(TemporalEdge{src, dst, ts, kInvalidEdge});
    if (i % 97 == 0) {
      shuffled.push_back(shuffled.back());
    }
  }
  const TemporalGraph reference(kVertices, shuffled);
  std::vector<TemporalEdge> sorted(reference.edges_by_time().begin(),
                                   reference.edges_by_time().end());
  for (TemporalEdge& e : sorted) {
    e.id = kInvalidEdge;  // ids are assigned by the constructor either way
  }
  std::mt19937_64 shuffle_rng(5);
  std::shuffle(shuffled.begin(), shuffled.end(), shuffle_rng);

  expect_identical(reference, TemporalGraph(kVertices, sorted));
  expect_identical(reference, TemporalGraph(kVertices, shuffled));
  Scheduler::with_pool(4, [&](Scheduler& sched) {
    expect_identical(reference, TemporalGraph(kVertices, sorted, &sched));
    expect_identical(reference, TemporalGraph(kVertices, shuffled, &sched));
  });
}

}  // namespace
}  // namespace parcycle
