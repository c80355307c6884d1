// Parallel temporal enumeration: coarse and fine variants versus the serial
// algorithms, across thread counts, spawn policies and restore modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "core/coarse_grained.hpp"
#include "core/fine_hc_dfs.hpp"
#include "core/fine_johnson.hpp"
#include "core/fine_read_tarjan.hpp"
#include "core/hc_dfs.hpp"
#include "core/johnson.hpp"
#include "core/read_tarjan.hpp"
#include "core/tiernan.hpp"
#include "graph/generators.hpp"
#include "support/prng.hpp"
#include "temporal/brute.hpp"
#include "temporal/cycle_union.hpp"
#include "temporal/temporal_johnson.hpp"
#include "temporal/temporal_read_tarjan.hpp"
#include "temporal/two_scent.hpp"

namespace parcycle {
namespace {

TemporalGraph test_graph(std::uint64_t seed) {
  ScaleFreeTemporalParams params;
  params.num_vertices = 30;
  params.num_edges = 250;
  params.time_span = 1000;
  params.attachment = 0.6;
  params.seed = seed;
  return scale_free_temporal(params);
}

class TemporalParallelTest
    : public ::testing::TestWithParam<std::tuple<unsigned, int, bool>> {
 protected:
  ParallelOptions parallel_options() const {
    const auto [threads, policy, naive] = GetParam();
    ParallelOptions popts;
    popts.spawn_policy =
        policy == 0 ? SpawnPolicy::kAlways : SpawnPolicy::kAdaptive;
    popts.naive_state_restore = naive;
    return popts;
  }
  unsigned threads() const { return std::get<0>(GetParam()); }
};

TEST_P(TemporalParallelTest, FineJohnsonMatchesBruteForce) {
  const TemporalGraph g = test_graph(101);
  const Timestamp window = 400;
  CollectingSink oracle_sink;
  const auto oracle = brute_temporal_cycles(g, window, {}, &oracle_sink);

  Scheduler sched(threads());
  CollectingSink sink;
  const auto fine = fine_temporal_johnson_cycles(g, window, sched, {},
                                                 parallel_options(), &sink);
  EXPECT_EQ(fine.num_cycles, oracle.num_cycles);
  EXPECT_EQ(sink.sorted_cycles(), oracle_sink.sorted_cycles());
}

TEST_P(TemporalParallelTest, FineReadTarjanMatchesBruteForce) {
  const TemporalGraph g = test_graph(103);
  const Timestamp window = 400;
  CollectingSink oracle_sink;
  const auto oracle = brute_temporal_cycles(g, window, {}, &oracle_sink);

  Scheduler sched(threads());
  CollectingSink sink;
  const auto fine = fine_temporal_read_tarjan_cycles(
      g, window, sched, {}, parallel_options(), &sink);
  EXPECT_EQ(fine.num_cycles, oracle.num_cycles);
  EXPECT_EQ(sink.sorted_cycles(), oracle_sink.sorted_cycles());
}

// Explicit cycles, fine against serial, on a tie-heavy graph whose
// vertices have many same-destination and same-timestamp out-edges. An
// explore frame shared between states, indexed by the wrong depth or
// grouped in another order than the serial search's shows up here.
TEST_P(TemporalParallelTest, FineJohnsonCyclesMatchSerialOnTies) {
  ScaleFreeTemporalParams params;
  params.num_vertices = 24;
  params.num_edges = 700;
  params.time_span = 70;  // about ten edges per timestamp
  params.attachment = 0.6;
  params.seed = 2;
  const TemporalGraph g = scale_free_temporal(params);
  const Timestamp window = 12;
  CollectingSink serial_sink;
  const auto serial = temporal_johnson_cycles(g, window, {}, &serial_sink);
  ASSERT_GT(serial.num_cycles, 1000u);

  Scheduler sched(threads());
  CollectingSink sink;
  const auto fine = fine_temporal_johnson_cycles(g, window, sched, {},
                                                 parallel_options(), &sink);
  EXPECT_EQ(fine.num_cycles, serial.num_cycles);
  EXPECT_EQ(sink.sorted_cycles(), serial_sink.sorted_cycles());
}

// Copy-on-steal accounting of the five fine drivers, which share one
// driver: every spawned task either reused its creator's state or ran on a
// copy, and every driver reports the cycles its counters found. The coarse
// drivers report their counters' cycles too, with and without a length
// bound. Self-loops take the root loop's own path. On this input most
// multi-worker runs steal.
TEST_P(TemporalParallelTest, StealAccountingAddsUp) {
  ScaleFreeTemporalParams params;
  params.num_vertices = 60;
  params.num_edges = 4000;
  params.time_span = 4000;
  params.seed = 7;
  params.allow_self_loops = true;
  const TemporalGraph g = scale_free_temporal(params);
  const auto edges = g.edges_by_time();
  ASSERT_TRUE(std::any_of(edges.begin(), edges.end(),
                          [](const TemporalEdge& e) { return e.src == e.dst; }));
  ScaleFreeTemporalParams small = params;
  small.num_vertices = 12;
  small.num_edges = 40;
  const Digraph d = scale_free_temporal(small).static_projection();

  Scheduler sched(threads());
  const ParallelOptions popts = parallel_options();
  const auto check = [](const char* driver, const EnumResult& result) {
    SCOPED_TRACE(driver);
    EXPECT_EQ(result.work.tasks_spawned,
              result.work.state_copies + result.work.state_reuses);
    EXPECT_EQ(result.num_cycles, result.work.cycles_found);
  };
  check("fine Johnson", fine_johnson_windowed_cycles(g, 120, sched, {}, popts));
  check("fine Read-Tarjan",
        fine_read_tarjan_windowed_cycles(g, 120, sched, {}, popts));
  check("fine BC-DFS", fine_hc_windowed_cycles(g, 120, 6, sched, {}, popts));
  check("fine temporal Johnson",
        fine_temporal_johnson_cycles(g, 400, sched, {}, popts));
  check("fine temporal Read-Tarjan",
        fine_temporal_read_tarjan_cycles(g, 400, sched, {}, popts));
  for (const int max_len : {0, 4}) {
    SCOPED_TRACE(testing::Message() << "max_cycle_length " << max_len);
    EnumOptions options;
    options.max_cycle_length = max_len;
    check("coarse Johnson", coarse_johnson_simple_cycles(d, sched, options));
    check("coarse Read-Tarjan",
          coarse_read_tarjan_simple_cycles(d, sched, options));
    check("coarse windowed Johnson",
          coarse_johnson_windowed_cycles(g, 120, sched, options));
    check("coarse windowed Read-Tarjan",
          coarse_read_tarjan_windowed_cycles(g, 120, sched, options));
    check("coarse temporal Johnson",
          coarse_temporal_johnson_cycles(g, 400, sched, options));
    check("coarse temporal Read-Tarjan",
          coarse_temporal_read_tarjan_cycles(g, 400, sched, options));
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicySweep, TemporalParallelTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(0, 1),
                       ::testing::Values(false, true)));

class TemporalCoarseTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(TemporalCoarseTest, CoarseVariantsMatchSerial) {
  const unsigned threads = GetParam();
  const TemporalGraph g = test_graph(107);
  const Timestamp window = 350;
  const auto serial = temporal_johnson_cycles(g, window);

  Scheduler sched(threads);
  const auto cj = coarse_temporal_johnson_cycles(g, window, sched);
  const auto cr = coarse_temporal_read_tarjan_cycles(g, window, sched);
  EXPECT_EQ(cj.num_cycles, serial.num_cycles);
  EXPECT_EQ(cr.num_cycles, serial.num_cycles);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, TemporalCoarseTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(TemporalParallel, StealStressAcrossSeeds) {
  SplitMix64 seeds(0x600d);
  for (int trial = 0; trial < 4; ++trial) {
    const TemporalGraph g = test_graph(seeds.next());
    const auto oracle = brute_temporal_cycles(g, 300);
    Scheduler sched(8);
    ParallelOptions popts;
    popts.spawn_policy = SpawnPolicy::kAlways;
    const auto fj = fine_temporal_johnson_cycles(g, 300, sched, {}, popts);
    const auto fr = fine_temporal_read_tarjan_cycles(g, 300, sched, {}, popts);
    ASSERT_EQ(fj.num_cycles, oracle.num_cycles) << "trial " << trial;
    ASSERT_EQ(fr.num_cycles, oracle.num_cycles) << "trial " << trial;
  }
}

TEST(TemporalParallel, BundlingOnOffAgreeInParallel) {
  const TemporalGraph g = test_graph(113);
  Scheduler sched(4);
  EnumOptions bundled;
  bundled.path_bundling = true;
  EnumOptions unbundled;
  unbundled.path_bundling = false;
  const auto a = fine_temporal_johnson_cycles(g, 300, sched, bundled);
  const auto b = fine_temporal_johnson_cycles(g, 300, sched, unbundled);
  EXPECT_EQ(a.num_cycles, b.num_cycles);
}

TEST(TemporalParallel, FineReadTarjanIsWorkEfficient) {
  const TemporalGraph g = test_graph(117);
  const auto serial = temporal_read_tarjan_cycles(g, 300);
  Scheduler sched(4);
  ParallelOptions popts;
  popts.spawn_policy = SpawnPolicy::kAlways;
  const auto fine = fine_temporal_read_tarjan_cycles(g, 300, sched, {}, popts);
  EXPECT_EQ(fine.num_cycles, serial.num_cycles);
  EXPECT_EQ(fine.work.edges_visited, serial.work.edges_visited);
}

// Most starts of this graph have no cycle (a short window over a long,
// sparse history), so the block cycle-unions skip most roots. Every driver
// must still agree with the brute-force oracle, with the unions on and off;
// the coarse drivers (one cached block per worker) must do exactly the
// serial work, and Read-Tarjan's edge visits must not depend on the
// schedule.
TEST(TemporalParallel, SkippedStartsKeepCountsExact) {
  ScaleFreeTemporalParams params;
  params.num_vertices = 15;
  params.num_edges = 600;
  params.time_span = 20000;
  params.attachment = 0.6;
  params.seed = 131;
  const TemporalGraph g = scale_free_temporal(params);
  const Timestamp window = 1500;
  const auto oracle = brute_temporal_cycles(g, window);
  ASSERT_GT(oracle.num_cycles, 100u);

  TemporalReachScratch reach;
  reach.init(g.num_vertices());
  std::size_t skipped = 0;
  for (const TemporalEdge& e : g.edges_by_time()) {
    skipped += reach.compute(g, e, e.ts + window) ? 0 : 1;
  }
  ASSERT_GT(skipped, g.num_edges() / 2);

  for (const bool use_cycle_union : {true, false}) {
    SCOPED_TRACE(testing::Message() << "use_cycle_union " << use_cycle_union);
    EnumOptions options;
    options.use_cycle_union = use_cycle_union;
    const auto sj = temporal_johnson_cycles(g, window, options);
    const auto sr = temporal_read_tarjan_cycles(g, window, options);
    EXPECT_EQ(sj.num_cycles, oracle.num_cycles);
    EXPECT_EQ(sr.num_cycles, oracle.num_cycles);
    for (const unsigned threads : {1u, 2u, 4u}) {
      Scheduler sched(threads);
      const auto cj = coarse_temporal_johnson_cycles(g, window, sched, options);
      const auto cr =
          coarse_temporal_read_tarjan_cycles(g, window, sched, options);
      EXPECT_EQ(cj.num_cycles, oracle.num_cycles) << threads << " threads";
      EXPECT_EQ(cr.num_cycles, oracle.num_cycles) << threads << " threads";
      EXPECT_EQ(cj.work.edges_visited, sj.work.edges_visited)
          << threads << " threads";
      EXPECT_EQ(cj.work.vertices_visited, sj.work.vertices_visited)
          << threads << " threads";
      EXPECT_EQ(cr.work.edges_visited, sr.work.edges_visited)
          << threads << " threads";
      EXPECT_EQ(cr.work.vertices_visited, sr.work.vertices_visited)
          << threads << " threads";
      for (const SpawnPolicy policy :
           {SpawnPolicy::kAlways, SpawnPolicy::kAdaptive}) {
        ParallelOptions popts;
        popts.spawn_policy = policy;
        const auto fj =
            fine_temporal_johnson_cycles(g, window, sched, options, popts);
        const auto fr =
            fine_temporal_read_tarjan_cycles(g, window, sched, options, popts);
        EXPECT_EQ(fj.num_cycles, oracle.num_cycles) << threads << " threads";
        EXPECT_EQ(fr.num_cycles, oracle.num_cycles) << threads << " threads";
        EXPECT_EQ(fr.work.edges_visited, sr.work.edges_visited)
            << threads << " threads";
      }
    }
  }
}

// Serial counters recorded before the cycle-unions moved to per-block scans
// (CycleUnionBlock, now 256 starts wide): the prune set does not depend on
// the block width, so every count must be exactly the same.
TEST(TemporalParallel, SerialCountersPinned) {
  struct Pin {
    std::uint64_t cycles;
    std::uint64_t edges_visited;
    std::uint64_t vertices_visited;
  };
  struct Case {
    ScaleFreeTemporalParams params;
    Timestamp window;
    bool use_cycle_union;
    Pin johnson;
    Pin read_tarjan;
  };
  ScaleFreeTemporalParams ties;  // about ten edges per timestamp
  ties.num_vertices = 24;
  ties.num_edges = 700;
  ties.time_span = 70;
  ties.attachment = 0.6;
  ties.seed = 2;
  ScaleFreeTemporalParams sparse;  // most starts have no cycle
  sparse.num_vertices = 15;
  sparse.num_edges = 600;
  sparse.time_span = 20000;
  sparse.attachment = 0.6;
  sparse.seed = 131;
  const Case cases[] = {
      {ties, 12, true, {1260, 7891, 1629}, {1260, 14355, 2412}},
      {ties, 12, false, {1260, 17029, 8813}, {1260, 26046, 12870}},
      {sparse, 1500, true, {655, 3365, 747}, {655, 6153, 936}},
      {sparse, 1500, false, {655, 6164, 3572}, {655, 9437, 4293}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "seed " << c.params.seed
                                    << " use_cycle_union "
                                    << c.use_cycle_union);
    const TemporalGraph g = scale_free_temporal(c.params);
    EnumOptions options;
    options.use_cycle_union = c.use_cycle_union;
    const auto sj = temporal_johnson_cycles(g, c.window, options);
    const auto sr = temporal_read_tarjan_cycles(g, c.window, options);
    EXPECT_EQ(sj.num_cycles, c.johnson.cycles);
    EXPECT_EQ(sj.work.edges_visited, c.johnson.edges_visited);
    EXPECT_EQ(sj.work.vertices_visited, c.johnson.vertices_visited);
    EXPECT_EQ(sr.num_cycles, c.read_tarjan.cycles);
    EXPECT_EQ(sr.work.edges_visited, c.read_tarjan.edges_visited);
    EXPECT_EQ(sr.work.vertices_visited, c.read_tarjan.vertices_visited);
  }
}

// The fine drivers run every root of a packed block (256 starts the
// closability pass found closable) on one search state, reset and merged
// per root. This input spans six blocks of tie-heavy edges under a short
// window, and in edges_by_time() searched starts follow skipped ones more
// than 200 times: the closability pass drops the skipped ones, so in a
// packed block each searched root follows another searched root on the
// same state. A state that kept a previous root's path, closing times, fail
// marks or counters changes the cycles or Read-Tarjan's edge visits.
TEST(TemporalParallel, BlockStateServesEveryRoot) {
  ScaleFreeTemporalParams params;
  params.num_vertices = 24;
  params.num_edges = 1400;
  params.time_span = 140;  // about ten edges per timestamp
  params.attachment = 0.6;
  params.seed = 19;
  const TemporalGraph g = scale_free_temporal(params);
  const Timestamp window = 12;
  ASSERT_GT(g.num_edges(), 5 * CycleUnionBlock::kStarts);

  CycleUnionBlock block(g, window);
  const auto edges = g.edges_by_time();
  std::size_t searched_after_skip = 0;
  bool prev_searched = true;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const bool searched = block.view(edges[i].id).contains(edges[i].dst);
    if (searched && !prev_searched && i % CycleUnionBlock::kStarts != 0) {
      searched_after_skip += 1;
    }
    prev_searched = searched;
  }
  ASSERT_GT(searched_after_skip, 200u);

  CollectingSink oracle_sink;
  const auto oracle = brute_temporal_cycles(g, window, {}, &oracle_sink);
  ASSERT_GT(oracle.num_cycles, 1000u);
  const auto sr = temporal_read_tarjan_cycles(g, window);
  ASSERT_EQ(sr.num_cycles, oracle.num_cycles);

  for (const unsigned threads : {1u, 2u, 4u}) {
    Scheduler sched(threads);
    for (const SpawnPolicy policy :
         {SpawnPolicy::kAlways, SpawnPolicy::kAdaptive}) {
      SCOPED_TRACE(testing::Message()
                   << threads << " threads, policy "
                   << static_cast<int>(policy));
      ParallelOptions popts;
      popts.spawn_policy = policy;
      CollectingSink sink;
      const auto fj =
          fine_temporal_johnson_cycles(g, window, sched, {}, popts, &sink);
      const auto fr = fine_temporal_read_tarjan_cycles(g, window, sched, {},
                                                       popts);
      EXPECT_EQ(fj.num_cycles, oracle.num_cycles);
      EXPECT_EQ(sink.sorted_cycles(), oracle_sink.sorted_cycles());
      EXPECT_EQ(fr.num_cycles, oracle.num_cycles);
      EXPECT_EQ(fr.work.edges_visited, sr.work.edges_visited);
    }
  }
}

TEST(TemporalParallel, WindowSweep) {
  const TemporalGraph g = test_graph(119);
  Scheduler sched(4);
  for (const Timestamp window : {0, 100, 250, 500}) {
    const auto serial = temporal_johnson_cycles(g, window);
    const auto fj = fine_temporal_johnson_cycles(g, window, sched);
    const auto fr = fine_temporal_read_tarjan_cycles(g, window, sched);
    EXPECT_EQ(fj.num_cycles, serial.num_cycles) << "window " << window;
    EXPECT_EQ(fr.num_cycles, serial.num_cycles) << "window " << window;
  }
}

// A triangle within one window of the Timestamp maximum: every batch
// enumerator's window upper end t0 + window clamps at the maximum instead of
// wrapping around, so each closes the one cycle.
TEST(TemporalParallel, WindowNearTimestampMaximumClosesTheTriangle) {
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  const TemporalGraph g(
      3, {{0, 1, kMax - 3}, {1, 2, kMax - 2}, {2, 0, kMax - 1}});
  constexpr Timestamp kWindow = 100;
  constexpr int kHops = 3;
  Scheduler sched(2);
  const std::vector<std::pair<const char*, EnumResult>> runs = {
      {"windowed johnson", johnson_windowed_cycles(g, kWindow)},
      {"coarse windowed johnson",
       coarse_johnson_windowed_cycles(g, kWindow, sched)},
      {"fine windowed johnson",
       fine_johnson_windowed_cycles(g, kWindow, sched)},
      {"windowed read-tarjan", read_tarjan_windowed_cycles(g, kWindow)},
      {"coarse windowed read-tarjan",
       coarse_read_tarjan_windowed_cycles(g, kWindow, sched)},
      {"fine windowed read-tarjan",
       fine_read_tarjan_windowed_cycles(g, kWindow, sched)},
      {"temporal johnson", temporal_johnson_cycles(g, kWindow)},
      {"coarse temporal johnson",
       coarse_temporal_johnson_cycles(g, kWindow, sched)},
      {"fine temporal johnson",
       fine_temporal_johnson_cycles(g, kWindow, sched)},
      {"temporal read-tarjan", temporal_read_tarjan_cycles(g, kWindow)},
      {"coarse temporal read-tarjan",
       coarse_temporal_read_tarjan_cycles(g, kWindow, sched)},
      {"fine temporal read-tarjan",
       fine_temporal_read_tarjan_cycles(g, kWindow, sched)},
      {"2scent", two_scent_cycles(g, kWindow)},
      {"windowed tiernan", tiernan_windowed_cycles(g, kWindow)},
      {"windowed bc-dfs", hc_windowed_cycles(g, kWindow, kHops)},
      {"fine windowed bc-dfs",
       fine_hc_windowed_cycles(g, kWindow, kHops, sched)},
      {"brute force", brute_temporal_cycles(g, kWindow)},
  };
  for (const auto& [name, result] : runs) {
    EXPECT_EQ(result.num_cycles, 1u) << name;
  }
}

// The same triangle with its closing edge at the Timestamp maximum: an
// arrival there leaves no later timestamp, so the search from it is empty
// instead of overflowing on arrival + 1. Every temporal enumerator, with the
// cycle-union on and off, and brute force close the one cycle.
TEST(TemporalParallel, EdgeAtTimestampMaximumClosesTheTriangle) {
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  const TemporalGraph g(3, {{0, 1, kMax - 2}, {1, 2, kMax - 1}, {2, 0, kMax}});
  constexpr Timestamp kWindow = 100;
  Scheduler sched(2);
  for (const bool use_cycle_union : {true, false}) {
    SCOPED_TRACE(testing::Message() << "use_cycle_union " << use_cycle_union);
    EnumOptions options;
    options.use_cycle_union = use_cycle_union;
    const std::vector<std::pair<const char*, EnumResult>> runs = {
        {"temporal johnson", temporal_johnson_cycles(g, kWindow, options)},
        {"coarse temporal johnson",
         coarse_temporal_johnson_cycles(g, kWindow, sched, options)},
        {"fine temporal johnson",
         fine_temporal_johnson_cycles(g, kWindow, sched, options)},
        {"temporal read-tarjan",
         temporal_read_tarjan_cycles(g, kWindow, options)},
        {"coarse temporal read-tarjan",
         coarse_temporal_read_tarjan_cycles(g, kWindow, sched, options)},
        {"fine temporal read-tarjan",
         fine_temporal_read_tarjan_cycles(g, kWindow, sched, options)},
        {"2scent", two_scent_cycles(g, kWindow, options)},
        {"brute force", brute_temporal_cycles(g, kWindow, options)},
    };
    for (const auto& [name, result] : runs) {
      EXPECT_EQ(result.num_cycles, 1u) << name;
    }
  }
}

}  // namespace
}  // namespace parcycle
