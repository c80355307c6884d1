// Parallel enumeration correctness: coarse- and fine-grained variants must
// produce exactly the serial cycle sets under every thread count, spawn
// policy and copy-on-steal mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "core/coarse_grained.hpp"
#include "core/driver.hpp"
#include "core/fine_hc_dfs.hpp"
#include "core/fine_johnson.hpp"
#include "core/fine_read_tarjan.hpp"
#include "core/hc_dfs.hpp"
#include "core/johnson.hpp"
#include "core/johnson_state.hpp"
#include "core/read_tarjan.hpp"
#include "graph/generators.hpp"
#include "support/prng.hpp"
#include "temporal/temporal_johnson.hpp"
#include "temporal/temporal_read_tarjan.hpp"
#include "temporal/two_scent.hpp"

namespace parcycle {
namespace {

TemporalGraph test_graph(std::uint64_t seed) {
  ScaleFreeTemporalParams params;
  params.num_vertices = 30;
  params.num_edges = 220;
  params.time_span = 1000;
  params.attachment = 0.6;
  params.seed = seed;
  return scale_free_temporal(params);
}

// The temporal graph of the pinned-counter tests, about ten edges per
// timestamp, and the windows they search it with.
TemporalGraph pinned_counters_graph() {
  ScaleFreeTemporalParams ties;
  ties.num_vertices = 24;
  ties.num_edges = 700;
  ties.time_span = 70;
  ties.attachment = 0.6;
  ties.seed = 2;
  return scale_free_temporal(ties);
}
constexpr Timestamp kWindowedWindow = 3;
constexpr Timestamp kTemporalWindow = 12;

// --- coarse-grained -----------------------------------------------------------

class CoarseGrainedTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(CoarseGrainedTest, StaticMatchesSerial) {
  const unsigned threads = GetParam();
  SplitMix64 seeds(42);
  for (int trial = 0; trial < 3; ++trial) {
    const Digraph g = erdos_renyi(12, 40, seeds.next());
    const auto serial = johnson_simple_cycles(g);
    Scheduler sched(threads);
    CollectingSink jsink;
    CollectingSink rsink;
    const auto cj = coarse_johnson_simple_cycles(g, sched, {}, &jsink);
    const auto cr = coarse_read_tarjan_simple_cycles(g, sched, {}, &rsink);
    EXPECT_EQ(cj.num_cycles, serial.num_cycles);
    EXPECT_EQ(cr.num_cycles, serial.num_cycles);
    EXPECT_EQ(jsink.sorted_cycles(), rsink.sorted_cycles());
  }
}

TEST_P(CoarseGrainedTest, WindowedMatchesSerial) {
  const unsigned threads = GetParam();
  const TemporalGraph g = test_graph(7);
  const Timestamp window = 200;
  CollectingSink serial_sink;
  const auto serial = johnson_windowed_cycles(g, window, {}, &serial_sink);

  Scheduler sched(threads);
  CollectingSink jsink;
  CollectingSink rsink;
  const auto cj = coarse_johnson_windowed_cycles(g, window, sched, {}, &jsink);
  const auto cr =
      coarse_read_tarjan_windowed_cycles(g, window, sched, {}, &rsink);
  EXPECT_EQ(cj.num_cycles, serial.num_cycles);
  EXPECT_EQ(cr.num_cycles, serial.num_cycles);
  EXPECT_EQ(jsink.sorted_cycles(), serial_sink.sorted_cycles());
  EXPECT_EQ(rsink.sorted_cycles(), serial_sink.sorted_cycles());
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, CoarseGrainedTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

// Coarse-grained Johnson is work efficient: its total edge visits equal the
// serial algorithm's (Proposition 4.1).
TEST(CoarseGrained, WorkEqualsSerial) {
  {
    const TemporalGraph g = test_graph(11);
    const auto serial = johnson_windowed_cycles(g, 250);
    Scheduler sched(4);
    const auto coarse = coarse_johnson_windowed_cycles(g, 250, sched);
    EXPECT_EQ(coarse.work.edges_visited, serial.work.edges_visited);
  }

  // Every serial driver, on a graph with self-loops and with and without a
  // length bound (1 admits only the self-loops), reports the cycles its
  // counters found; every coarse driver does exactly its serial driver's
  // search work at every worker count.
  ScaleFreeTemporalParams params;
  params.num_vertices = 40;
  params.num_edges = 900;
  params.time_span = 1500;
  params.attachment = 0.6;
  params.seed = 19;
  params.allow_self_loops = true;
  const TemporalGraph loops = scale_free_temporal(params);
  const auto edges = loops.edges_by_time();
  const auto self_loops = static_cast<std::uint64_t>(
      std::count_if(edges.begin(), edges.end(),
                    [](const TemporalEdge& e) { return e.src == e.dst; }));
  ASSERT_GT(self_loops, 0u);
  ScaleFreeTemporalParams small = params;
  small.num_vertices = 12;
  small.num_edges = 40;
  const Digraph d = scale_free_temporal(small).static_projection();
  const Timestamp window = 150;
  const Timestamp delta = 400;
  for (const int max_len : {0, 1, 4}) {
    SCOPED_TRACE(testing::Message() << "max_cycle_length " << max_len);
    EnumOptions options;
    options.max_cycle_length = max_len;
    const int max_hops = max_len == 0 ? 8 : max_len;
    const EnumResult sj = johnson_simple_cycles(d, options);
    const EnumResult sr = read_tarjan_simple_cycles(d, options);
    const EnumResult swj = johnson_windowed_cycles(loops, window, options);
    const EnumResult swr = read_tarjan_windowed_cycles(loops, window, options);
    const EnumResult stj = temporal_johnson_cycles(loops, delta, options);
    const EnumResult str = temporal_read_tarjan_cycles(loops, delta, options);
    const std::pair<const char*, EnumResult> static_runs[] = {
        {"Johnson", sj},
        {"Read-Tarjan", sr},
        {"BC-DFS", hc_simple_cycles(d, max_hops, options)},
    };
    for (const auto& [driver, result] : static_runs) {
      SCOPED_TRACE(driver);
      EXPECT_EQ(result.num_cycles, result.work.cycles_found);
    }
    // The edge-start drivers; at length 1 they report the self-loops alone.
    const std::pair<const char*, EnumResult> edge_runs[] = {
        {"windowed Johnson", swj},
        {"windowed Read-Tarjan", swr},
        {"windowed BC-DFS",
         hc_windowed_cycles(loops, window, max_hops, options)},
        {"temporal Johnson", stj},
        {"temporal Read-Tarjan", str},
        {"2SCENT", two_scent_cycles(loops, delta, options)},
    };
    for (const auto& [driver, result] : edge_runs) {
      SCOPED_TRACE(driver);
      EXPECT_EQ(result.num_cycles, result.work.cycles_found);
      if (max_len == 1) {
        EXPECT_EQ(result.num_cycles, self_loops);
      } else {
        EXPECT_GT(result.num_cycles, self_loops);
      }
    }
    EXPECT_EQ(stj.num_cycles, str.num_cycles);
    for (const unsigned threads : {1u, 2u, 4u}) {
      SCOPED_TRACE(testing::Message() << threads << " workers");
      Scheduler workers(threads);
      const auto same_work = [](const char* driver, const EnumResult& par,
                                const EnumResult& ser) {
        SCOPED_TRACE(driver);
        EXPECT_EQ(par.num_cycles, ser.num_cycles);
        EXPECT_EQ(par.work.cycles_found, ser.work.cycles_found);
        EXPECT_EQ(par.work.edges_visited, ser.work.edges_visited);
        EXPECT_EQ(par.work.vertices_visited, ser.work.vertices_visited);
      };
      same_work("Johnson",
                coarse_johnson_simple_cycles(d, workers, options), sj);
      same_work("Read-Tarjan",
                coarse_read_tarjan_simple_cycles(d, workers, options), sr);
      same_work("windowed Johnson",
                coarse_johnson_windowed_cycles(loops, window, workers, options),
                swj);
      same_work("windowed Read-Tarjan",
                coarse_read_tarjan_windowed_cycles(loops, window, workers,
                                                   options),
                swr);
      same_work("temporal Johnson",
                coarse_temporal_johnson_cycles(loops, delta, workers, options),
                stj);
      same_work("temporal Read-Tarjan",
                coarse_temporal_read_tarjan_cycles(loops, delta, workers,
                                                   options),
                str);
    }
  }
}

// A sink that throws on every cycle of one start and collects the others. A
// start is a cycle's smallest edge id, or its smallest vertex on a static
// graph.
class FailingStartSink final : public CycleSink {
 public:
  explicit FailingStartSink(std::uint32_t victim) : victim_(victim) {}

  static std::uint32_t start_of(std::span<const VertexId> vertices,
                                std::span<const EdgeId> edges) {
    return edges.empty() ? *std::min_element(vertices.begin(), vertices.end())
                         : *std::min_element(edges.begin(), edges.end());
  }

  void on_cycle(std::span<const VertexId> vertices,
                std::span<const EdgeId> edges) override {
    if (start_of(vertices, edges) == victim_) {
      throw std::runtime_error("sink failure");
    }
    kept_.on_cycle(vertices, edges);
  }

  std::vector<CycleRecord> sorted_cycles() const {
    return kept_.sorted_cycles();
  }

 private:
  std::uint32_t victim_;
  CollectingSink kept_;
};

// A sink exception ends the start it hit and leaves the run's other starts,
// on the same worker too, exactly the serial driver's cycles.
TEST(CoarseGrained, SinkFailureSparesOtherStarts) {
  const TemporalGraph g = test_graph(29);
  const Digraph d = erdos_renyi(12, 40, 5);
  using Serial = std::function<EnumResult(CycleSink*)>;
  using Coarse = std::function<EnumResult(Scheduler&, CycleSink*)>;
  const std::tuple<const char*, Serial, Coarse> drivers[] = {
      {"Johnson", [&](CycleSink* s) { return johnson_simple_cycles(d, {}, s); },
       [&](Scheduler& w, CycleSink* s) {
         return coarse_johnson_simple_cycles(d, w, {}, s);
       }},
      {"Read-Tarjan",
       [&](CycleSink* s) { return read_tarjan_simple_cycles(d, {}, s); },
       [&](Scheduler& w, CycleSink* s) {
         return coarse_read_tarjan_simple_cycles(d, w, {}, s);
       }},
      {"windowed Johnson",
       [&](CycleSink* s) { return johnson_windowed_cycles(g, 150, {}, s); },
       [&](Scheduler& w, CycleSink* s) {
         return coarse_johnson_windowed_cycles(g, 150, w, {}, s);
       }},
      {"windowed Read-Tarjan",
       [&](CycleSink* s) { return read_tarjan_windowed_cycles(g, 150, {}, s); },
       [&](Scheduler& w, CycleSink* s) {
         return coarse_read_tarjan_windowed_cycles(g, 150, w, {}, s);
       }},
      {"temporal Johnson",
       [&](CycleSink* s) { return temporal_johnson_cycles(g, 400, {}, s); },
       [&](Scheduler& w, CycleSink* s) {
         return coarse_temporal_johnson_cycles(g, 400, w, {}, s);
       }},
      {"temporal Read-Tarjan",
       [&](CycleSink* s) { return temporal_read_tarjan_cycles(g, 400, {}, s); },
       [&](Scheduler& w, CycleSink* s) {
         return coarse_temporal_read_tarjan_cycles(g, 400, w, {}, s);
       }},
  };
  for (const auto& [driver, serial, coarse] : drivers) {
    SCOPED_TRACE(driver);
    CollectingSink all;
    serial(&all);
    const std::vector<CycleRecord> cycles = all.sorted_cycles();
    // The victim is the middle one of the starts that have a cycle.
    std::vector<std::uint32_t> starts;
    for (const CycleRecord& c : cycles) {
      starts.push_back(FailingStartSink::start_of(c.vertices, c.edges));
    }
    std::sort(starts.begin(), starts.end());
    starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
    ASSERT_GT(starts.size(), 2u);
    const std::uint32_t victim = starts[starts.size() / 2];
    std::vector<CycleRecord> others;
    for (const CycleRecord& c : cycles) {
      if (FailingStartSink::start_of(c.vertices, c.edges) != victim) {
        others.push_back(c);
      }
    }
    for (const unsigned threads : {1u, 2u}) {
      SCOPED_TRACE(testing::Message() << threads << " workers");
      Scheduler workers(threads);
      FailingStartSink sink(victim);
      EXPECT_THROW(coarse(workers, &sink), std::runtime_error);
      EXPECT_EQ(sink.sorted_cycles(), others);
    }
  }
}

// --- fine-grained -------------------------------------------------------------

struct FineParams {
  unsigned threads;
  SpawnPolicy policy;
  bool naive_restore;
};

class FineGrainedTest
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

TEST_P(FineGrainedTest, JohnsonMatchesSerial) {
  const TemporalGraph g = test_graph(23);
  const Timestamp window = 200;
  CollectingSink serial_sink;
  const auto serial = johnson_windowed_cycles(g, window, {}, &serial_sink);

  Scheduler sched(threads());
  CollectingSink sink;
  const auto fine = fine_johnson_windowed_cycles(g, window, sched, {},
                                                 parallel_options(), &sink);
  EXPECT_EQ(fine.num_cycles, serial.num_cycles);
  EXPECT_EQ(sink.sorted_cycles(), serial_sink.sorted_cycles());
}

TEST_P(FineGrainedTest, ReadTarjanMatchesSerial) {
  const TemporalGraph g = test_graph(37);
  const Timestamp window = 200;
  CollectingSink serial_sink;
  const auto serial = johnson_windowed_cycles(g, window, {}, &serial_sink);

  Scheduler sched(threads());
  CollectingSink sink;
  const auto fine = fine_read_tarjan_windowed_cycles(
      g, window, sched, {}, parallel_options(), &sink);
  EXPECT_EQ(fine.num_cycles, serial.num_cycles);
  EXPECT_EQ(sink.sorted_cycles(), serial_sink.sorted_cycles());
}

INSTANTIATE_TEST_SUITE_P(
    PolicySweep, FineGrainedTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(0, 1),  // kAlways, kAdaptive
                       ::testing::Values(false, true)));

// The figure-4a adversary: every cycle hangs off one starting edge, so this
// is the case where fine-grained parallelism matters (and where the stolen
// tasks get exercised hardest).
TEST(FineGrained, Figure4aAdversary) {
  const Digraph base = figure4a_graph(12);  // 1024 cycles
  const TemporalGraph g = with_uniform_timestamps(base, 100, 3);
  const Timestamp window = 1000;  // everything fits
  const auto serial = johnson_windowed_cycles(g, window);
  ASSERT_GE(serial.num_cycles, 1024u);

  for (const unsigned threads : {2u, 4u, 8u}) {
    Scheduler sched(threads);
    ParallelOptions popts;
    popts.spawn_policy = SpawnPolicy::kAlways;  // maximal stealing pressure
    const auto fj =
        fine_johnson_windowed_cycles(g, window, sched, {}, popts);
    const auto fr =
        fine_read_tarjan_windowed_cycles(g, window, sched, {}, popts);
    EXPECT_EQ(fj.num_cycles, serial.num_cycles) << "threads=" << threads;
    EXPECT_EQ(fr.num_cycles, serial.num_cycles) << "threads=" << threads;
  }
}

// Repeated stress with spawn-always to shake out copy-on-steal races.
TEST(FineGrained, StealStress) {
  SplitMix64 seeds(0xdead);
  for (int trial = 0; trial < 5; ++trial) {
    const TemporalGraph g = test_graph(seeds.next());
    const auto serial = johnson_windowed_cycles(g, 150);
    Scheduler sched(8);
    ParallelOptions popts;
    popts.spawn_policy = SpawnPolicy::kAlways;
    const auto fj = fine_johnson_windowed_cycles(g, 150, sched, {}, popts);
    const auto fr = fine_read_tarjan_windowed_cycles(g, 150, sched, {}, popts);
    ASSERT_EQ(fj.num_cycles, serial.num_cycles) << "trial " << trial;
    ASSERT_EQ(fr.num_cycles, serial.num_cycles) << "trial " << trial;
  }
}

// A spawned child that runs on a private copy of its creator's state
// reports a cycle even when its subtree found none: the blocking it
// recorded is dropped with the copy, so the creator must not block on its
// failure. In place, on the creator's own state, the child's own answer
// stands.
TEST(FineGrained, ChildOnACopyCountsAsSuccess) {
  struct Run {
    using State = JohnsonState;
    ParallelOptions popts;
    std::unique_ptr<JohnsonState> acquire_state() {
      return std::make_unique<JohnsonState>(4);
    }
    void release_state(std::unique_ptr<JohnsonState>) {}
  };
  struct Search {
    Run run;
  };
  Search search;
  JohnsonState creator(4);
  creator.push(0, kInvalidEdge);
  creator.push(1, 7);
  const JohnsonState::Mark mark = creator.mark();
  creator.push(2, 8);  // the creator went on past the spawn
  const JohnsonState* ran_on = nullptr;
  const auto child = [&ran_on](Search&, JohnsonState& at) {
    ran_on = &at;
    EXPECT_EQ(at.path_length(), 2u);
    return false;
  };
  using Task = fine::RepairTask<Search, decltype(child)>;

  // Off any worker thread: never the creator's worker, so it copies.
  std::atomic<bool> found{false};
  Task{&search, &creator, mark, 0, &found, child}();
  EXPECT_NE(ran_on, &creator);
  EXPECT_TRUE(found.load());

  // On the creator's worker, at the spawn-time path: in place.
  creator.pop();
  Scheduler sched(1);
  found = false;
  Task{&search, &creator, mark, 0, &found, child}();
  EXPECT_EQ(ran_on, &creator);
  EXPECT_FALSE(found.load());
}

// Fine-grained Read-Tarjan is work efficient (Theorem 6.1): its edge visits
// must match the serial Read-Tarjan's. Fine-grained Johnson may exceed the
// serial Johnson's (Theorem 5.1) but never the Tiernan blow-up.
TEST(FineGrained, ReadTarjanWorkEfficiency) {
  const TemporalGraph g = test_graph(51);
  Scheduler sched(4);
  ParallelOptions popts;
  popts.spawn_policy = SpawnPolicy::kAlways;
  const auto serial = read_tarjan_windowed_cycles(g, 200);
  const auto fine =
      fine_read_tarjan_windowed_cycles(g, 200, sched, {}, popts);
  EXPECT_EQ(fine.num_cycles, serial.num_cycles);
  // Identical search work; only copies/scheduling differ.
  EXPECT_EQ(fine.work.edges_visited, serial.work.edges_visited);
}

// Cycles, edge visits and vertex visits of static, windowed and temporal
// Read-Tarjan, one search core for all three, at three length bounds. Every
// driver does the serial search's work: serial, coarse on 2 workers, and
// fine on 1, 2 and 4 workers under both spawn policies. A bounded search
// does not scan a candidate that has no budget left, in every flavour.
TEST(FineGrained, ReadTarjanCountersPinned) {
  struct Pin {
    std::uint64_t cycles;
    std::uint64_t edges_visited;
    std::uint64_t vertices_visited;
  };
  struct Row {
    int max_cycle_length;
    Pin simple;
    Pin windowed[2];  // cycle-union on, off
    Pin temporal[2];
  };
  const Row rows[] = {
      {0,
       {246, 3406, 1235},
       {{676, 9232, 2351}, {676, 10889, 5361}},
       {{1260, 14355, 2412}, {1260, 26046, 12870}}},
      {3,
       {8, 101, 40},
       {{150, 1567, 227}, {150, 2331, 740}},
       {{504, 7813, 908}, {504, 14030, 4010}}},
      {4,
       {19, 204, 79},
       {{231, 2955, 575}, {231, 4183, 1704}},
       {{868, 12746, 1928}, {868, 27593, 13289}}},
  };
  const Digraph simple = erdos_renyi(16, 40, 7);
  const TemporalGraph g = pinned_counters_graph();

  const auto expect_pin = [](const char* run, const EnumResult& result,
                             const Pin& pin) {
    EXPECT_EQ(result.num_cycles, pin.cycles) << run;
    EXPECT_EQ(result.work.edges_visited, pin.edges_visited) << run;
    EXPECT_EQ(result.work.vertices_visited, pin.vertices_visited) << run;
  };
  const auto options_of = [](const Row& row, bool use_cycle_union) {
    EnumOptions options;
    options.max_cycle_length = row.max_cycle_length;
    options.use_cycle_union = use_cycle_union;
    return options;
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(testing::Message()
                 << "max_cycle_length " << row.max_cycle_length);
    expect_pin("serial static",
               read_tarjan_simple_cycles(simple, options_of(row, true)),
               row.simple);
    for (const bool use_cycle_union : {true, false}) {
      const EnumOptions options = options_of(row, use_cycle_union);
      const int u = use_cycle_union ? 0 : 1;
      SCOPED_TRACE(testing::Message() << "use_cycle_union " << use_cycle_union);
      expect_pin("serial windowed",
                 read_tarjan_windowed_cycles(g, kWindowedWindow, options),
                 row.windowed[u]);
      expect_pin("serial temporal",
                 temporal_read_tarjan_cycles(g, kTemporalWindow, options),
                 row.temporal[u]);
    }
  }
  for (const unsigned threads : {1u, 2u, 4u}) {
    Scheduler sched(threads);
    for (const Row& row : rows) {
      SCOPED_TRACE(testing::Message()
                   << threads << " threads, max_cycle_length "
                   << row.max_cycle_length);
      if (threads == 2) {
        expect_pin("coarse static",
                   coarse_read_tarjan_simple_cycles(simple, sched,
                                                    options_of(row, true)),
                   row.simple);
      }
      for (const bool use_cycle_union : {true, false}) {
        const EnumOptions options = options_of(row, use_cycle_union);
        const int u = use_cycle_union ? 0 : 1;
        SCOPED_TRACE(testing::Message()
                     << "use_cycle_union " << use_cycle_union);
        if (threads == 2) {
          expect_pin("coarse windowed",
                     coarse_read_tarjan_windowed_cycles(g, kWindowedWindow,
                                                        sched, options),
                     row.windowed[u]);
          expect_pin("coarse temporal",
                     coarse_temporal_read_tarjan_cycles(g, kTemporalWindow,
                                                        sched, options),
                     row.temporal[u]);
        }
        for (const SpawnPolicy policy :
             {SpawnPolicy::kAlways, SpawnPolicy::kAdaptive}) {
          ParallelOptions popts;
          popts.spawn_policy = policy;
          SCOPED_TRACE(testing::Message()
                       << "policy " << static_cast<int>(policy));
          expect_pin("fine windowed",
                     fine_read_tarjan_windowed_cycles(g, kWindowedWindow,
                                                      sched, options, popts),
                     row.windowed[u]);
          expect_pin("fine temporal",
                     fine_temporal_read_tarjan_cycles(g, kTemporalWindow,
                                                      sched, options, popts),
                     row.temporal[u]);
        }
      }
    }
  }
}

// Johnson, BC-DFS and temporal Johnson on ReadTarjanCountersPinned's
// inputs, at three length bounds (BC-DFS at three hop bounds), with the
// cycle-union on and off. Serial and coarse runs do the same work, and so
// does a fine run on one worker under kAdaptive, which never spawns. Under
// kAlways a fine run on one worker is deterministic but spawns where the
// serial loop recurses, so it has its own pins. On 2 and 4 workers fine
// visits depend on the schedule, so only cycles are pinned.
TEST(FineGrained, JohnsonCountersPinned) {
  struct Pin {
    std::uint64_t cycles;
    std::uint64_t edges_visited;
    std::uint64_t vertices_visited;
  };
  struct Flavour {
    Pin serial;
    Pin always;  // fine on one worker under kAlways
  };
  struct Row {
    int max_cycle_length;
    int max_hops;
    Pin simple;
    Pin simple_hc;
    Flavour hc;
    Flavour windowed[2];  // cycle-union on, off
    Flavour temporal[2];
  };
  const Row rows[] = {
      {0,
       3,
       {246, 2741, 1094},
       {8, 41, 20},
       {{150, 706, 188}, {150, 706, 188}},
       {{{676, 6242, 2017}, {676, 6242, 2017}},
        {{676, 7725, 3773}, {676, 7725, 3773}}},
       {{{1260, 7891, 1629}, {1260, 8036, 1690}},
        {{1260, 17029, 8813}, {1260, 17490, 9123}}}},
      {3,
       4,
       {8, 100, 57},
       {19, 103, 44},
       {{231, 1297, 352}, {231, 1297, 352}},
       {{{150, 1283, 382}, {150, 1283, 382}},
        {{150, 2047, 1053}, {150, 2047, 1053}}},
       {{{504, 4542, 814}, {504, 4542, 814}},
        {{504, 8800, 3046}, {504, 8800, 3046}}}},
      {4,
       6,
       {19, 196, 98},
       {50, 318, 130},
       {{470, 3557, 1046}, {470, 3560, 1050}},
       {{{231, 2226, 662}, {231, 2244, 673}},
        {{231, 3435, 1856}, {231, 3410, 1865}}},
       {{{868, 6640, 1332}, {868, 6640, 1332}},
        {{868, 14807, 7326}, {868, 14807, 7326}}}},
  };
  const Digraph simple = erdos_renyi(16, 40, 7);
  const TemporalGraph g = pinned_counters_graph();

  const auto expect_pin = [](const char* run, const EnumResult& result,
                             const Pin& pin) {
    EXPECT_EQ(result.num_cycles, pin.cycles) << run;
    EXPECT_EQ(result.work.edges_visited, pin.edges_visited) << run;
    EXPECT_EQ(result.work.vertices_visited, pin.vertices_visited) << run;
  };
  const auto options_of = [](const Row& row, bool use_cycle_union) {
    EnumOptions options;
    options.max_cycle_length = row.max_cycle_length;
    options.use_cycle_union = use_cycle_union;
    return options;
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(testing::Message()
                 << "max_cycle_length " << row.max_cycle_length
                 << ", max_hops " << row.max_hops);
    expect_pin("serial static",
               johnson_simple_cycles(simple, options_of(row, true)),
               row.simple);
    expect_pin("serial static BC-DFS", hc_simple_cycles(simple, row.max_hops),
               row.simple_hc);
    expect_pin("serial BC-DFS",
               hc_windowed_cycles(g, kWindowedWindow, row.max_hops),
               row.hc.serial);
    for (const bool use_cycle_union : {true, false}) {
      const EnumOptions options = options_of(row, use_cycle_union);
      const int u = use_cycle_union ? 0 : 1;
      SCOPED_TRACE(testing::Message() << "use_cycle_union " << use_cycle_union);
      expect_pin("serial windowed",
                 johnson_windowed_cycles(g, kWindowedWindow, options),
                 row.windowed[u].serial);
      expect_pin("serial temporal",
                 temporal_johnson_cycles(g, kTemporalWindow, options),
                 row.temporal[u].serial);
    }
  }
  for (const unsigned threads : {1u, 2u, 4u}) {
    Scheduler sched(threads);
    // One worker pins every counter, more workers the cycles alone.
    const auto expect_fine = [&](const char* run, const EnumResult& result,
                                 const Flavour& flavour, int p) {
      if (threads == 1) {
        expect_pin(run, result, p == 0 ? flavour.always : flavour.serial);
      } else {
        EXPECT_EQ(result.num_cycles, flavour.serial.cycles) << run;
      }
    };
    for (const Row& row : rows) {
      SCOPED_TRACE(testing::Message()
                   << threads << " threads, max_cycle_length "
                   << row.max_cycle_length << ", max_hops " << row.max_hops);
      if (threads == 2) {
        expect_pin("coarse static",
                   coarse_johnson_simple_cycles(simple, sched,
                                                options_of(row, true)),
                   row.simple);
      }
      for (const int p : {0, 1}) {
        ParallelOptions popts;
        popts.spawn_policy = p == 0 ? SpawnPolicy::kAlways
                                    : SpawnPolicy::kAdaptive;
        SCOPED_TRACE(testing::Message() << "policy " << p);
        expect_fine("fine BC-DFS",
                    fine_hc_windowed_cycles(g, kWindowedWindow, row.max_hops,
                                            sched, {}, popts),
                    row.hc, p);
      }
      for (const bool use_cycle_union : {true, false}) {
        const EnumOptions options = options_of(row, use_cycle_union);
        const int u = use_cycle_union ? 0 : 1;
        SCOPED_TRACE(testing::Message()
                     << "use_cycle_union " << use_cycle_union);
        if (threads == 2) {
          expect_pin("coarse windowed",
                     coarse_johnson_windowed_cycles(g, kWindowedWindow, sched,
                                                    options),
                     row.windowed[u].serial);
          expect_pin("coarse temporal",
                     coarse_temporal_johnson_cycles(g, kTemporalWindow, sched,
                                                    options),
                     row.temporal[u].serial);
        }
        for (const int p : {0, 1}) {
          ParallelOptions popts;
          popts.spawn_policy = p == 0 ? SpawnPolicy::kAlways
                                      : SpawnPolicy::kAdaptive;
          SCOPED_TRACE(testing::Message() << "policy " << p);
          expect_fine("fine windowed",
                      fine_johnson_windowed_cycles(g, kWindowedWindow, sched,
                                                   options, popts),
                      row.windowed[u], p);
          expect_fine("fine temporal",
                      fine_temporal_johnson_cycles(g, kTemporalWindow, sched,
                                                   options, popts),
                      row.temporal[u], p);
        }
      }
    }
  }
}

// On one worker an adaptive fine run never spawns, so each of the five
// fine enumerators does exactly its serial run's work, on
// JohnsonCountersPinned's inputs and bounds.
TEST(FineGrained, OneWorkerAdaptiveIsSerial) {
  const TemporalGraph g = pinned_counters_graph();
  Scheduler sched(1);
  const ParallelOptions popts;
  ASSERT_EQ(popts.spawn_policy, SpawnPolicy::kAdaptive);
  const auto expect_serial = [](const char* run, const EnumResult& fine,
                                const EnumResult& serial) {
    EXPECT_EQ(fine.work.tasks_spawned, 0u) << run;
    EXPECT_EQ(fine.num_cycles, serial.num_cycles) << run;
    EXPECT_EQ(fine.work.edges_visited, serial.work.edges_visited) << run;
    EXPECT_EQ(fine.work.vertices_visited, serial.work.vertices_visited)
        << run;
  };
  for (const auto& [max_cycle_length, max_hops] :
       {std::pair{0, 3}, std::pair{3, 4}, std::pair{4, 6}}) {
    SCOPED_TRACE(testing::Message() << "max_cycle_length " << max_cycle_length
                                    << ", max_hops " << max_hops);
    expect_serial("BC-DFS",
                  fine_hc_windowed_cycles(g, kWindowedWindow, max_hops, sched,
                                          {}, popts),
                  hc_windowed_cycles(g, kWindowedWindow, max_hops));
    for (const bool use_cycle_union : {true, false}) {
      SCOPED_TRACE(testing::Message() << "use_cycle_union " << use_cycle_union);
      EnumOptions options;
      options.max_cycle_length = max_cycle_length;
      options.use_cycle_union = use_cycle_union;
      expect_serial("windowed Johnson",
                    fine_johnson_windowed_cycles(g, kWindowedWindow, sched,
                                                 options, popts),
                    johnson_windowed_cycles(g, kWindowedWindow, options));
      expect_serial("windowed Read-Tarjan",
                    fine_read_tarjan_windowed_cycles(g, kWindowedWindow, sched,
                                                     options, popts),
                    read_tarjan_windowed_cycles(g, kWindowedWindow, options));
      expect_serial("temporal Johnson",
                    fine_temporal_johnson_cycles(g, kTemporalWindow, sched,
                                                 options, popts),
                    temporal_johnson_cycles(g, kTemporalWindow, options));
      expect_serial("temporal Read-Tarjan",
                    fine_temporal_read_tarjan_cycles(g, kTemporalWindow, sched,
                                                     options, popts),
                    temporal_read_tarjan_cycles(g, kTemporalWindow, options));
    }
  }
}

TEST(FineGrained, WindowSweepAgreesWithSerial) {
  const TemporalGraph g = test_graph(77);
  Scheduler sched(4);
  // Windows above ~400 on this graph explode combinatorially (fine for a
  // benchmark, not for a unit test).
  for (const Timestamp window : {0, 50, 150, 300}) {
    const auto serial = johnson_windowed_cycles(g, window);
    const auto fj = fine_johnson_windowed_cycles(g, window, sched);
    const auto fr = fine_read_tarjan_windowed_cycles(g, window, sched);
    EXPECT_EQ(fj.num_cycles, serial.num_cycles) << "window=" << window;
    EXPECT_EQ(fr.num_cycles, serial.num_cycles) << "window=" << window;
  }
}

TEST(FineGrained, LengthConstraints) {
  const TemporalGraph g = test_graph(91);
  Scheduler sched(4);
  for (const int max_len : {2, 3, 5}) {
    EnumOptions options;
    options.max_cycle_length = max_len;
    const auto serial = johnson_windowed_cycles(g, 300, options);
    const auto fj = fine_johnson_windowed_cycles(g, 300, sched, options);
    const auto fr = fine_read_tarjan_windowed_cycles(g, 300, sched, options);
    EXPECT_EQ(fj.num_cycles, serial.num_cycles) << "len=" << max_len;
    EXPECT_EQ(fr.num_cycles, serial.num_cycles) << "len=" << max_len;
  }
}

}  // namespace
}  // namespace parcycle
