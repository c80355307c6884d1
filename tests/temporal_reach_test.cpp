// Temporal reachability / cycle-union preprocessing tests.
#include "temporal/cycle_union.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/driver.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "support/prng.hpp"
#include "support/scheduler.hpp"
#include "support/scratch_pool.hpp"

namespace parcycle {
namespace {

TemporalGraph chain_graph() {
  // 0 -> 1 -> 2 -> 3 -> 0 with ascending timestamps, plus a dead-end branch.
  GraphBuilder builder(6);
  builder.add_edge(0, 1, 10);
  builder.add_edge(1, 2, 20);
  builder.add_edge(2, 3, 30);
  builder.add_edge(3, 0, 40);
  builder.add_edge(2, 4, 25);  // 4 never reaches 0
  builder.add_edge(5, 2, 22);  // 2 not temporally reachable from 1 via 5
  return builder.build_temporal();
}

TEST(TemporalReach, FindsCycleUnion) {
  const TemporalGraph g = chain_graph();
  const TemporalEdge e0 = g.edge(0);  // 0 -> 1 @ 10
  ASSERT_EQ(e0.src, 0u);
  ASSERT_EQ(e0.dst, 1u);
  TemporalReachScratch reach;
  reach.init(g.num_vertices());
  ASSERT_TRUE(reach.compute(g, e0, /*hi=*/100));
  EXPECT_TRUE(reach.contains(1));
  EXPECT_TRUE(reach.contains(2));
  EXPECT_TRUE(reach.contains(3));
  EXPECT_FALSE(reach.contains(4));  // forward-reachable, never returns
  EXPECT_FALSE(reach.contains(5));  // not forward-reachable at all
}

TEST(TemporalReach, WindowCutsTheCycle) {
  const TemporalGraph g = chain_graph();
  const TemporalEdge e0 = g.edge(0);
  TemporalReachScratch reach;
  reach.init(g.num_vertices());
  // Window ends before the closing edge (ts 40).
  EXPECT_FALSE(reach.compute(g, e0, /*hi=*/39));
}

TEST(TemporalReach, StrictIncreaseRespected) {
  // 0 -> 1 @ 10, 1 -> 0 @ 10: equal timestamps cannot chain.
  GraphBuilder builder(2);
  builder.add_edge(0, 1, 10);
  builder.add_edge(1, 0, 10);
  const TemporalGraph g = builder.build_temporal();
  TemporalReachScratch reach;
  reach.init(2);
  EXPECT_FALSE(reach.compute(g, g.edge(0), 100));
}

TEST(TemporalReach, TwoHopCycle) {
  GraphBuilder builder(2);
  builder.add_edge(0, 1, 10);
  builder.add_edge(1, 0, 11);
  const TemporalGraph g = builder.build_temporal();
  TemporalReachScratch reach;
  reach.init(2);
  ASSERT_TRUE(reach.compute(g, g.edge(0), 100));
  EXPECT_TRUE(reach.contains(1));
}

TEST(TemporalReach, EarliestArrivalIsEarliest) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1, 10);
  builder.add_edge(1, 2, 20);
  builder.add_edge(1, 2, 30);  // later parallel edge
  builder.add_edge(2, 0, 40);
  const TemporalGraph g = builder.build_temporal();
  TemporalReachScratch reach;
  reach.init(3);
  ASSERT_TRUE(reach.compute(g, g.edge(0), 100));
  EXPECT_EQ(reach.earliest_arrival(2), 20);
}

TEST(TemporalReach, ScratchReusableAcrossStarts) {
  const TemporalGraph g = uniform_temporal(20, 100, 500, 5);
  TemporalReachScratch reused;
  reused.init(g.num_vertices());
  int successes = 0;
  for (const auto& e : g.edges_by_time()) {
    TemporalReachScratch fresh;
    fresh.init(g.num_vertices());
    const bool closes = fresh.compute(g, e, e.ts + 200);
    ASSERT_EQ(reused.compute(g, e, e.ts + 200), closes) << "start " << e.id;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(reused.contains(v), fresh.contains(v))
          << "start " << e.id << " vertex " << v;
    }
    successes += closes ? 1 : 0;
  }
  EXPECT_GT(successes, 0);
}

// Brute-force cycle-union of one start: v is in it iff some time-respecting
// walk head -> ... -> tail with every timestamp in (t0, t0 + window] passes
// through v. Decided per edge of the window, quadratically: usable[k] (the
// walk can reach and take edge k) and closes[k] (after edge k it can still
// reach the tail).
std::vector<bool> brute_union(const TemporalGraph& g, const TemporalEdge& e0,
                              Timestamp window) {
  std::vector<TemporalEdge> slice;
  for (const TemporalEdge& e : g.edges_by_time()) {
    if (e.ts > e0.ts && e.ts <= e0.ts + window) {
      slice.push_back(e);
    }
  }
  const std::size_t m = slice.size();
  std::vector<bool> usable(m, false);
  std::vector<bool> closes(m, false);
  for (std::size_t k = 0; k < m; ++k) {
    usable[k] = slice[k].src == e0.dst;
    for (std::size_t p = 0; p < k && !usable[k]; ++p) {
      usable[k] = usable[p] && slice[p].dst == slice[k].src &&
                  slice[p].ts < slice[k].ts;
    }
  }
  for (std::size_t k = m; k-- > 0;) {
    closes[k] = slice[k].dst == e0.src;
    for (std::size_t q = k + 1; q < m && !closes[k]; ++q) {
      closes[k] = closes[q] && slice[q].src == slice[k].dst &&
                  slice[q].ts > slice[k].ts;
    }
  }
  std::vector<bool> on_walk(g.num_vertices(), false);
  for (std::size_t k = 0; k < m; ++k) {
    if (usable[k] && closes[k]) {
      on_walk[slice[k].src] = true;
      on_walk[slice[k].dst] = true;
    }
  }
  return on_walk;
}

constexpr std::size_t kStarts = CycleUnionBlock::kStarts;
constexpr std::size_t kWordBits = 64;

struct Tally {
  std::size_t starts = 0;
  std::size_t closable = 0;
  std::size_t comparisons = 0;  // union bits checked
};

// Union bits of the listed starts as the drivers read them,
// unions[start][v] (empty for starts not listed): serially from one block
// object walked in list order, or from pooled block objects filled by two
// workers over chunks of blocks (so a pooled object is reused for a block
// that does not follow its last one). A null `list` leaves the objects on
// their default list, every start of edges_by_time().
std::vector<std::vector<bool>> block_unions(
    const TemporalGraph& g, Timestamp window, bool pooled,
    const std::vector<EdgeId>* list = nullptr,
    CycleUnionBlock* serial_block = nullptr) {
  const std::size_t count = list != nullptr ? list->size() : g.num_edges();
  const auto start_at = [&](std::size_t p) {
    return list != nullptr ? (*list)[p] : static_cast<EdgeId>(p);
  };
  std::vector<std::vector<bool>> unions(g.num_edges());
  const auto fill = [&](CycleUnionBlock& block, std::size_t p) {
    const EdgeId start = start_at(p);
    const CycleUnionView view = block.view(start);
    unions[start].resize(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      unions[start][v] = view.contains(v);
    }
  };
  if (!pooled) {
    CycleUnionBlock own(g, window);
    CycleUnionBlock& block = serial_block != nullptr ? *serial_block : own;
    if (list != nullptr) {
      block.serve(*list);
    }
    for (std::size_t p = 0; p < count; ++p) {
      fill(block, p);
    }
    return unions;
  }
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    ScratchPool<CycleUnionBlock> pool(
        [&] { return std::make_unique<CycleUnionBlock>(g, window); });
    parallel_for_chunked(sched, 0, (count + kStarts - 1) / kStarts, 3,
                         [&](std::size_t b) {
                           auto block = pool.acquire();
                           if (list != nullptr) {
                             block->serve(*list);
                           }
                           for (std::size_t p = b * kStarts;
                                p < std::min(count, (b + 1) * kStarts); ++p) {
                             fill(*block, p);
                           }
                           pool.release(std::move(block));
                         });
  });
  return unions;
}

// Checks every start of `g`: the block's closable bit (its head's union
// bit) equals compute() and its union bit equals contains(v) for every
// vertex, on both the serial and the pooled path; and compute() itself
// matches the brute-force union.
void check_against_oracle(const TemporalGraph& g, Timestamp window,
                          Tally& tally) {
  const auto serial = block_unions(g, window, false);
  const auto pooled = block_unions(g, window, true);
  TemporalReachScratch reach;
  reach.init(g.num_vertices());
  for (const TemporalEdge& e0 : g.edges_by_time()) {
    const bool closes = reach.compute(g, e0, e0.ts + window);
    ASSERT_EQ(serial[e0.id][e0.dst], closes) << "start " << e0.id;
    tally.starts += 1;
    tally.closable += closes ? 1 : 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(serial[e0.id][v], reach.contains(v))
          << "start " << e0.id << " vertex " << v;
      ASSERT_EQ(pooled[e0.id][v], reach.contains(v))
          << "start " << e0.id << " vertex " << v;
      tally.comparisons += 1;
    }
    if (e0.src == e0.dst) {
      ASSERT_TRUE(closes);
      continue;
    }
    const std::vector<bool> expected = brute_union(g, e0, window);
    ASSERT_EQ(closes, expected[e0.src]) << "start " << e0.id;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(reach.contains(v), closes && expected[v])
          << "start " << e0.id << " vertex " << v;
    }
  }
}

// Ten full blocks and a partial one over 24 vertices; even seeds have heavy
// ties (about ten edges per timestamp), every fourth seed self-loops.
constexpr std::size_t kRandomEdges = 10 * kStarts + kStarts / 2 + 12;

TemporalGraph random_block_graph(std::uint64_t seed) {
  ScaleFreeTemporalParams params;
  params.num_vertices = 24;
  params.num_edges = kRandomEdges;
  params.time_span = static_cast<Timestamp>(
      seed % 2 == 0 ? params.num_edges / 10 : params.num_edges * 10);
  params.attachment = 0.6;
  params.allow_self_loops = seed % 4 == 1;
  params.seed = seed;
  return scale_free_temporal(params);
}

Timestamp random_block_window(std::uint64_t seed) {
  return seed % 2 == 0 ? 12 : 1200;
}

TEST(TemporalReach, BlockMatchesOracleOnRandomGraphs) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const TemporalGraph g = random_block_graph(seed);
    ASSERT_EQ(g.num_edges(), kRandomEdges);
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    check_against_oracle(g, random_block_window(seed), tally);
  }
  // Both outcomes well represented, so neither answer passes by default.
  EXPECT_GT(tally.closable, tally.starts / 5);
  EXPECT_LT(tally.closable, tally.starts * 4 / 5);
  EXPECT_GT(tally.comparisons, 200000u);
}

// Checks the listed starts of `g`: each one's union bit, read from blocks
// packed with the list's starts (on `serial_block` and on pooled objects),
// equals contains(v) for every vertex.
void check_listed_against_oracle(const TemporalGraph& g, Timestamp window,
                                 const std::vector<EdgeId>& list,
                                 CycleUnionBlock& serial_block, Tally& tally) {
  const auto serial = block_unions(g, window, false, &list, &serial_block);
  const auto pooled = block_unions(g, window, true, &list);
  TemporalReachScratch reach;
  reach.init(g.num_vertices());
  for (const EdgeId start : list) {
    const TemporalEdge& e0 = g.edge(start);
    tally.closable += reach.compute(g, e0, e0.ts + window) ? 1 : 0;
    tally.starts += 1;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(serial[start][v], reach.contains(v))
          << "start " << start << " vertex " << v;
      ASSERT_EQ(pooled[start][v], reach.contains(v))
          << "start " << start << " vertex " << v;
      tally.comparisons += 1;
    }
  }
}

// Random ascending start lists of `g`: every start with probability
// 1 / `every`, or runs of up to 40 consecutive starts with gaps of 100 to
// 900 starts between them.
std::vector<EdgeId> random_list(const TemporalGraph& g, std::uint64_t every,
                                bool runs, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<EdgeId> list;
  for (std::size_t id = 0; id < g.num_edges();) {
    if (!runs) {
      if (rng.next() % every == 0) {
        list.push_back(static_cast<EdgeId>(id));
      }
      id += 1;
      continue;
    }
    const std::size_t run = 1 + rng.next() % 40;
    for (std::size_t k = 0; k < run && id < g.num_edges(); ++k, ++id) {
      list.push_back(static_cast<EdgeId>(id));
    }
    id += 100 + rng.next() % 800;
  }
  return list;
}

// The two phases of a temporal run. The closability pass, serial and on
// pooled objects in parallel, lists exactly the starts for which compute()
// finds a cycle; blocks packed with those starts, or with random ascending
// subsets whose 256 starts span many windows and the gaps between them,
// give every listed start the union compute() gives it.
TEST(TemporalReach, ClosablePassAndPackedBlocksMatchOracle) {
  Tally tally;
  std::size_t wide_blocks = 0;  // a block's starts span over ten windows
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const TemporalGraph g = random_block_graph(seed);
    const Timestamp window = random_block_window(seed);
    std::vector<EdgeId> expected;
    TemporalReachScratch reach;
    reach.init(g.num_vertices());
    for (const TemporalEdge& e0 : g.edges_by_time()) {
      if (reach.compute(g, e0, e0.ts + window)) {
        expected.push_back(e0.id);
      }
    }
    ScratchPool<CycleUnionBlock> pool(
        [&] { return std::make_unique<CycleUnionBlock>(g, window); });
    ASSERT_EQ(roots::closable_starts(g.num_edges(), pool, nullptr), expected);
    Scheduler::with_pool(2, [&](Scheduler& sched) {
      ASSERT_EQ(roots::closable_starts(g.num_edges(), pool, &sched),
                expected);
    });

    // One serial object serves every list in turn.
    CycleUnionBlock serial_block(g, window);
    const std::vector<std::vector<EdgeId>> lists = {
        expected,
        random_list(g, 2, false, seed),
        random_list(g, 9, false, seed + 100),
        random_list(g, 40, false, seed + 200),
        random_list(g, 0, true, seed + 300),
    };
    for (std::size_t k = 0; k < lists.size(); ++k) {
      SCOPED_TRACE(testing::Message() << "list " << k);
      const std::vector<EdgeId>& list = lists[k];
      for (std::size_t p = 0; p < list.size(); p += kStarts) {
        const EdgeId last = list[std::min(list.size(), p + kStarts) - 1];
        const Timestamp span = g.edge(last).ts - g.edge(list[p]).ts;
        wide_blocks += span > 10 * window ? 1 : 0;
      }
      check_listed_against_oracle(g, window, list, serial_block, tally);
    }
  }
  EXPECT_GT(wide_blocks, 40u);
  EXPECT_GT(tally.closable, tally.starts / 5);
  EXPECT_LT(tally.closable, tally.starts * 4 / 5);
  EXPECT_GT(tally.comparisons, 500000u);
}

// The enumerators' root setup skips its two neighbour lookups when a block
// is in use, relying on this: a non-self-loop start whose head is in its
// block union has a head out-edge and a tail in-edge in (t0, t0 + window].
TEST(TemporalReach, HeadInUnionImpliesNeighboursInWindow) {
  std::size_t heads_in_union = 0;
  std::size_t pruned_with_neighbours = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const TemporalGraph g = random_block_graph(seed);
    const Timestamp window = random_block_window(seed);
    CycleUnionBlock block(g, window);
    for (const TemporalEdge& e0 : g.edges_by_time()) {
      if (e0.src == e0.dst) {
        continue;  // the drivers count self-loops before any root setup
      }
      const Timestamp hi = e0.ts + window;
      const bool neighbours =
          !g.out_edges_in_window(e0.dst, e0.ts + 1, hi).empty() &&
          !g.in_edges_in_window(e0.src, e0.ts + 1, hi).empty();
      if (block.view(e0.id).contains(e0.dst)) {
        ASSERT_TRUE(neighbours) << "start " << e0.id;
        heads_in_union += 1;
      } else {
        pruned_with_neighbours += neighbours ? 1 : 0;
      }
    }
  }
  // Neither side is vacuous: heads in the union, and starts the lookups
  // alone would not have pruned.
  EXPECT_GT(heads_in_union, 1000u);
  EXPECT_GT(pruned_with_neighbours, 1000u);
}

TEST(TemporalReach, SelfLoopBlocksAndZeroWindow) {
  // Block 0 holds only self-loops; block 1 mixes a triangle with more
  // self-loops; block 2 is a partial block of three edges.
  constexpr auto kBlock = static_cast<Timestamp>(kStarts);
  GraphBuilder builder(4);
  for (Timestamp t = 0; t < kBlock; ++t) {
    builder.add_edge(static_cast<VertexId>(t % 4), static_cast<VertexId>(t % 4),
                     t);
  }
  for (Timestamp t = kBlock; t < 2 * kBlock + 3; ++t) {
    if (t % 3 == 0) {
      builder.add_edge(3, 3, t);
    } else {
      builder.add_edge(static_cast<VertexId>(t % 3),
                       static_cast<VertexId>((t + 1) % 3), t);
    }
  }
  const TemporalGraph g = builder.build_temporal();
  ASSERT_EQ(g.num_edges(), 2 * kStarts + 3);
  Tally tally;
  for (const Timestamp window : {0, 1, 2, 5, 200}) {
    SCOPED_TRACE(testing::Message() << "window " << window);
    check_against_oracle(g, window, tally);
  }
  CycleUnionBlock zero(g, 0);
  for (const TemporalEdge& e : g.edges_by_time()) {
    EXPECT_EQ(zero.view(e.id).contains(e.dst), e.src == e.dst)
        << "start " << e.id;
  }
}

// Random edges over five vertices, one timestamp per edge except where a
// listed start shares the timestamp of the start before it.
TemporalGraph random_with_ties(std::size_t num_edges,
                               const std::vector<std::size_t>& tied,
                               std::uint64_t seed) {
  SplitMix64 rng(seed);
  GraphBuilder builder(5);
  Timestamp t = 0;
  for (std::size_t p = 0; p < num_edges; ++p) {
    if (p > 0 && std::find(tied.begin(), tied.end(), p) == tied.end()) {
      t += 1;
    }
    builder.add_edge(static_cast<VertexId>(rng.next() % 5),
                     static_cast<VertexId>(rng.next() % 5), t);
  }
  return builder.build_temporal();
}

TEST(TemporalReach, TiesAcrossWordBoundaries) {
  // Starts 63/64 and 127/128 share a timestamp inside the block, 255 with
  // the next block's first start.
  const std::vector<std::size_t> tied = {kWordBits, 2 * kWordBits, kStarts};
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const TemporalGraph g = random_with_ties(kStarts + 40, tied, seed);
    for (const std::size_t p : tied) {
      ASSERT_EQ(g.edge(static_cast<EdgeId>(p - 1)).ts,
                g.edge(static_cast<EdgeId>(p)).ts);
    }
    for (const Timestamp window : {1, 2, 3, 8, 40}) {
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed << " window " << window);
      check_against_oracle(g, window, tally);
    }
  }
  EXPECT_GT(tally.closable, 0u);
  EXPECT_LT(tally.closable, tally.starts);
}

TEST(TemporalReach, PartialBlockEndingMidWord) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    // The second block stops at bit 36 of its second word.
    const TemporalGraph g =
        random_with_ties(kStarts + kWordBits + 37, {}, seed);
    for (const Timestamp window : {2, 5, 30}) {
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed << " window " << window);
      check_against_oracle(g, window, tally);
    }
  }
  EXPECT_GT(tally.closable, 0u);
  EXPECT_LT(tally.closable, tally.starts);
}

// One block whose 64-start words each hold either 21 triangles
// 0 -> 1 -> 2 -> 0 on consecutive timestamps, spaced `gap` apart, or only
// edges into a sink vertex 3 that close nothing (as does every word's last
// start). Within a window below `gap` only a triangle's first edge closes.
TemporalGraph triangles_in_words(const std::vector<bool>& triangle_words,
                                 Timestamp gap) {
  GraphBuilder builder(5);
  Timestamp t = 0;
  for (const bool triangles : triangle_words) {
    for (std::size_t p = 0; p < kWordBits;) {
      if (triangles && p + 3 <= kWordBits) {
        for (VertexId v = 0; v < 3; ++v) {
          builder.add_edge(v, (v + 1) % 3, t++);
        }
        p += 3;
        t += gap;
      } else {
        builder.add_edge(4, 3, t++);
        p += 1;
      }
    }
  }
  return builder.build_temporal();
}

TEST(TemporalReach, ClosableStartsOnlyInHighWords) {
  // The backward scan's gap skip has to find the highest pending start
  // across words: first with every closable start in the top word, then
  // with the middle words empty between the bottom and the top one.
  const std::vector<std::vector<bool>> layouts = {
      {false, false, false, true}, {true, false, false, true}};
  for (const auto& layout : layouts) {
    ASSERT_EQ(layout.size() * kWordBits, kStarts);
    const TemporalGraph g = triangles_in_words(layout, 20);
    ASSERT_EQ(g.num_edges(), kStarts);
    Tally tally;
    for (const Timestamp window : {1, 2, 3, 19, 30}) {
      SCOPED_TRACE(testing::Message() << "window " << window);
      check_against_oracle(g, window, tally);
    }
    EXPECT_GT(tally.closable, 0u);
    CycleUnionBlock block(g, 2);
    for (const TemporalEdge& e : g.edges_by_time()) {
      EXPECT_EQ(block.view(e.id).contains(e.dst), e.src == 0 && e.dst == 1)
          << "start " << e.id;
    }
  }
}

TEST(TemporalReach, HeadOfOneStartIsTailOfAnother) {
  // Two triangles running both ways over shared vertices, with ties: every
  // start's head is the tail of other starts in its block.
  GraphBuilder builder(4);
  for (Timestamp t = 1; t <= 90; ++t) {
    const auto v = static_cast<VertexId>(t % 3);
    builder.add_edge(v, (v + 1) % 3, t);
    if (t % 4 == 0) {
      builder.add_edge((v + 1) % 3, v, t);  // ties with the forward edge
      builder.add_edge(v, 3, t + 1);
      builder.add_edge(3, (v + 2) % 3, t + 2);
    }
  }
  const TemporalGraph g = builder.build_temporal();
  Tally tally;
  for (const Timestamp window : {1, 2, 3, 7, 40}) {
    SCOPED_TRACE(testing::Message() << "window " << window);
    check_against_oracle(g, window, tally);
  }
  EXPECT_GT(tally.closable, 0u);
  EXPECT_LT(tally.closable, tally.starts);
}

TEST(TemporalReach, OneEdgeGraphs) {
  GraphBuilder plain(2);
  plain.add_edge(0, 1, 5);
  const TemporalGraph g = plain.build_temporal();
  CycleUnionBlock block(g, 100);
  const CycleUnionView view = block.view(0);
  EXPECT_FALSE(view.contains(0));
  EXPECT_FALSE(view.contains(1));

  GraphBuilder loop(2);
  loop.add_edge(1, 1, 5);
  const TemporalGraph l = loop.build_temporal();
  CycleUnionBlock loop_block(l, 0);
  EXPECT_FALSE(loop_block.view(0).contains(0));
  EXPECT_TRUE(loop_block.view(0).contains(1));

  // Disabled: nothing computed, nothing pruned.
  CycleUnionBlock off(g, 100, /*enabled=*/false);
  EXPECT_TRUE(off.view(0).contains(0));
  EXPECT_TRUE(off.view(0).contains(1));
}

}  // namespace
}  // namespace parcycle
