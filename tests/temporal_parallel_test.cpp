// Parallel temporal enumeration: coarse and fine variants versus the serial
// algorithms, across thread counts, spawn policies and restore modes.
#include <gtest/gtest.h>

#include <tuple>

#include "graph/generators.hpp"
#include "support/prng.hpp"
#include "temporal/brute.hpp"
#include "temporal/cycle_union.hpp"
#include "temporal/temporal_johnson.hpp"
#include "temporal/temporal_read_tarjan.hpp"

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

// Most starts of this graph fail the reachability pre-pass (a short window
// over a long, sparse history), so the closable-starts bitmap skips most
// roots. Every driver must still agree with the brute-force oracle, with the
// pre-pass on and off, and Read-Tarjan's edge visits must not depend on the
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

  const ClosableStarts closable(g, window, {}, nullptr);
  std::size_t skipped = 0;
  for (const TemporalEdge& e : g.edges_by_time()) {
    skipped += closable.passes(e.id) ? 0 : 1;
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
      EXPECT_EQ(cr.work.edges_visited, sr.work.edges_visited)
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

}  // namespace
}  // namespace parcycle
