// Unit tests for the pieces every prefix-repair search shares: the path
// contract of SearchPath, checked on each state built on it (push/pop and
// the on-path bits, the copy a stolen task makes, and the repair back to
// the spawn-time Mark), the epoch-stamped reverse BFS of HopDistances
// against a plain BFS, and ScratchPool's reuse.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/hc_state.hpp"
#include "core/hop_distances.hpp"
#include "core/johnson_state.hpp"
#include "graph/generators.hpp"
#include "robust/budget.hpp"
#include "stream/incremental.hpp"
#include "support/prng.hpp"
#include "support/scratch_pool.hpp"

namespace parcycle {
namespace {

constexpr VertexId kN = 10;

template <typename State>
std::unique_ptr<State> make_state() {
  if constexpr (std::is_constructible_v<State, VertexId>) {
    return std::make_unique<State>(kN);
  } else {
    auto state = std::make_unique<State>();
    state->ensure(kN);
    return state;
  }
}

// The path's vertices.
template <typename State>
std::vector<VertexId> path_of(const State& st) {
  std::vector<VertexId> path;
  for (std::size_t i = 0; i < st.path_length(); ++i) {
    path.push_back(st.path_vertex(i));
  }
  return path;
}

// Every vertex whose on-path bit is set.
template <typename State>
std::vector<VertexId> on_path_bits(const State& st) {
  std::vector<VertexId> bits;
  for (VertexId v = 0; v < kN; ++v) {
    if (st.on_path(v)) {
      bits.push_back(v);
    }
  }
  return bits;
}

template <typename State>
class PrefixRepairState : public ::testing::Test {};

using PrefixRepairStates =
    ::testing::Types<JohnsonState, HcState, StreamSearchScratch>;
TYPED_TEST_SUITE(PrefixRepairState, PrefixRepairStates);

TYPED_TEST(PrefixRepairState, PushPopTracksTheOnPathBits) {
  auto st = make_state<TypeParam>();
  EXPECT_EQ(st->path_length(), 0u);
  st->push(3, kInvalidEdge);
  st->push(5, 42);
  EXPECT_EQ(st->path_length(), 2u);
  EXPECT_EQ(st->frontier(), 5u);
  EXPECT_EQ(st->path_vertex(0), 3u);
  EXPECT_EQ(st->path_edge(1), 42u);
  EXPECT_EQ(on_path_bits(*st), (std::vector<VertexId>{3, 5}));
  st->pop();
  EXPECT_EQ(st->path_length(), 1u);
  EXPECT_EQ(on_path_bits(*st), (std::vector<VertexId>{3}));
}

TYPED_TEST(PrefixRepairState, ResetEmptiesThePathAndCounters) {
  auto st = make_state<TypeParam>();
  st->push(1, kInvalidEdge);
  st->push(2, 9);
  st->counters.edges_visited = 5;
  st->reset();
  EXPECT_EQ(st->path_length(), 0u);
  EXPECT_TRUE(on_path_bits(*st).empty());
  EXPECT_EQ(st->counters.edges_visited, 0u);
}

TYPED_TEST(PrefixRepairState, CopyFromCopiesExactlyThePath) {
  auto victim = make_state<TypeParam>();
  victim->push(0, kInvalidEdge);
  victim->push(1, 11);
  victim->push(2, 12);
  victim->push(3, 13);
  victim->pop();  // a popped vertex is not copied

  auto thief = make_state<TypeParam>();
  thief->copy_from(*victim);
  EXPECT_EQ(path_of(*thief), (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(thief->path_edge(1), 11u);
  EXPECT_EQ(thief->path_edge(2), 12u);
  EXPECT_EQ(on_path_bits(*thief), (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(thief->counters.state_copies, 1u);
  EXPECT_EQ(victim->counters.state_copies, 0u);
  // The copy is private: changing it leaves the victim's path alone.
  thief->pop();
  EXPECT_EQ(path_of(*victim), (std::vector<VertexId>{0, 1, 2}));
  EXPECT_TRUE(victim->on_path(2));
}

TYPED_TEST(PrefixRepairState, RepairReturnsTheCopyToTheSpawnTimePath) {
  auto victim = make_state<TypeParam>();
  victim->push(0, kInvalidEdge);
  victim->push(1, 11);
  if constexpr (std::is_same_v<TypeParam, HcState>) {
    victim->raise_barrier(8, 2);  // recorded before the spawn: it survives
  }
  const auto mark = victim->mark();
  // What the victim did after the spawn: the thief must undo all of it.
  victim->push(2, 12);
  victim->push(3, 13);
  if constexpr (std::is_same_v<TypeParam, HcState>) {
    victim->raise_barrier(7, 3);
  }

  auto thief = make_state<TypeParam>();
  thief->copy_from(*victim);
  thief->repair_to_prefix(mark);
  EXPECT_EQ(path_of(*thief), (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(thief->path_edge(1), 11u);
  EXPECT_EQ(on_path_bits(*thief), (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(thief->mark().path_len, mark.path_len);
  if constexpr (requires { thief->can_visit(2, 1); }) {
    // The removed suffix blocks nothing any more.
    EXPECT_TRUE(thief->can_visit(2, 1));
    EXPECT_TRUE(thief->can_visit(3, 1));
  }
  if constexpr (std::is_same_v<TypeParam, HcState>) {
    EXPECT_EQ(thief->mark().trail_len, mark.trail_len);
    EXPECT_EQ(thief->barrier(7), HcState::kNoBarrier);
    EXPECT_EQ(thief->barrier(8), 2);
    EXPECT_EQ(victim->barrier(7), 3);
  }
  EXPECT_EQ(victim->path_length(), 4u);
}

TYPED_TEST(PrefixRepairState, NaiveRestoreTruncatesThePath) {
  auto victim = make_state<TypeParam>();
  victim->push(0, kInvalidEdge);
  victim->push(1, 11);
  victim->push(2, 12);
  auto thief = make_state<TypeParam>();
  thief->copy_from(*victim);
  thief->naive_restore_to_prefix(1);
  EXPECT_EQ(path_of(*thief), (std::vector<VertexId>{0}));
  EXPECT_EQ(on_path_bits(*thief), (std::vector<VertexId>{0}));
}

// ---------------------------------------------------------------------------
// HopDistances
// ---------------------------------------------------------------------------

struct Window {
  VertexId target;
  Timestamp lo;
  Timestamp hi;
  EdgeId min_id;  // the scan rejects edges with a smaller id
};

// Plain BFS over reverse edges, built from the whole edge list: every
// vertex's hop distance to the target, or kUnreachable.
std::vector<std::int32_t> oracle_distances(const TemporalGraph& g,
                                           const Window& w) {
  std::vector<std::vector<VertexId>> reverse(g.num_vertices());
  for (const TemporalEdge& e : g.edges_by_time()) {
    if (e.ts >= w.lo && e.ts <= w.hi && e.id >= w.min_id) {
      reverse[e.dst].push_back(e.src);
    }
  }
  std::vector<std::int32_t> dist(g.num_vertices(),
                                 HopDistances::kUnreachable);
  std::deque<VertexId> queue{w.target};
  dist[w.target] = 0;
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop_front();
    for (const VertexId u : reverse[v]) {
      if (dist[u] == HopDistances::kUnreachable) {
        dist[u] = dist[v] + 1;
        queue.push_back(u);
      }
    }
  }
  return dist;
}

bool compute(HopDistances& hops, const TemporalGraph& g, const Window& w,
             std::int32_t max_depth, SearchBudgetState* budget = nullptr) {
  return hops.compute(
      w.target, max_depth,
      [&](VertexId v) { return g.in_edges_in_window(v, w.lo, w.hi); },
      [&](const TemporalGraph::InEdge& e) {
        return e.id >= w.min_id ? e.src : kInvalidVertex;
      },
      budget);
}

// The in-edges the BFS scans (and charges) with `max_depth`: every in-window
// in-edge of every vertex it expands, rejected or not.
std::uint64_t scanned_edges(const TemporalGraph& g, const Window& w,
                            const std::vector<std::int32_t>& dist,
                            std::int32_t max_depth) {
  std::uint64_t scanned = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (dist[v] != HopDistances::kUnreachable &&
        (max_depth < 0 || dist[v] < max_depth)) {
      scanned += g.in_edges_in_window(v, w.lo, w.hi).size();
    }
  }
  return scanned;
}

TEST(HopDistances, MatchesPlainBfsOnRandomWindows) {
  SplitMix64 seeds(0x40bd15);
  // One instance across every graph and window: stale epochs must not leak.
  HopDistances hops;
  for (int trial = 0; trial < 6; ++trial) {
    const VertexId n = 20 + 10 * static_cast<VertexId>(trial);
    const TemporalGraph g = uniform_temporal(n, 6 * n, 400, seeds.next());
    hops.init(g.num_vertices());
    for (int q = 0; q < 40; ++q) {
      const Timestamp lo = static_cast<Timestamp>(seeds.next() % 300);
      const Window w{static_cast<VertexId>(seeds.next() % n), lo,
                     lo + static_cast<Timestamp>(seeds.next() % 200),
                     static_cast<EdgeId>(seeds.next() % (g.num_edges() / 2))};
      const std::vector<std::int32_t> exact = oracle_distances(g, w);
      for (const std::int32_t max_depth : {-1, 0, 1, 2, 4}) {
        ASSERT_TRUE(compute(hops, g, w, max_depth));
        for (VertexId v = 0; v < n; ++v) {
          const std::int32_t want =
              max_depth < 0 || exact[v] <= max_depth
                  ? exact[v]
                  : HopDistances::kUnreachable;
          ASSERT_EQ(hops.distance(v), want)
              << "trial " << trial << " query " << q << " depth " << max_depth
              << " vertex " << v;
        }
      }
    }
  }
}

TEST(HopDistances, BudgetExpiresMidBfs) {
  SplitMix64 seeds(0xb0d6e7);
  HopDistances hops;
  int expired = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const TemporalGraph g = uniform_temporal(40, 300, 100, seeds.next());
    hops.init(g.num_vertices());
    const Window w{static_cast<VertexId>(seeds.next() % 40), 0, 99, 0};
    const std::vector<std::int32_t> exact = oracle_distances(g, w);
    for (const std::int32_t max_depth : {-1, 3}) {
      const std::uint64_t scanned = scanned_edges(g, w, exact, max_depth);
      // A budget the whole BFS fits in is charged for exactly its scan.
      SearchBudgetState enough(SearchBudget{0, scanned});
      ASSERT_TRUE(compute(hops, g, w, max_depth, &enough));
      EXPECT_EQ(enough.charged(), scanned);
      if (scanned < 2) {
        continue;
      }
      // One that runs out partway reports the BFS incomplete.
      SearchBudgetState short_budget(SearchBudget{0, scanned / 2});
      EXPECT_FALSE(compute(hops, g, w, max_depth, &short_budget));
      EXPECT_TRUE(short_budget.expired());
      expired += 1;
      // The next BFS starts afresh.
      ASSERT_TRUE(compute(hops, g, w, max_depth));
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        ASSERT_EQ(hops.distance(v),
                  max_depth < 0 || exact[v] <= max_depth
                      ? exact[v]
                      : HopDistances::kUnreachable);
      }
    }
  }
  EXPECT_GT(expired, 10);
}

// ---------------------------------------------------------------------------
// ScratchPool
// ---------------------------------------------------------------------------

TEST(ScratchPool, AcquireReleaseReuses) {
  ScratchPool<JohnsonState> pool(
      [] { return std::make_unique<JohnsonState>(8); });
  auto a = pool.acquire();
  JohnsonState* raw = a.get();
  pool.release(std::move(a));
  auto b = pool.acquire();
  EXPECT_EQ(b.get(), raw);  // same object comes back
  auto c = pool.acquire();  // pool empty: a fresh one is made
  EXPECT_NE(c.get(), raw);
  pool.release(std::move(b));
  pool.release(std::move(c));
}

}  // namespace
}  // namespace parcycle
