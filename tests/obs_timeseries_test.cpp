// Time-series sampler: ring wraparound, rate derivation against
// hand-computed values (sample_once with synthetic timestamps makes the
// arithmetic exact), rolling-p99 presence, SLO parsing/burn arithmetic
// pinned to its documented formula, the sampler→SLO wiring, and the
// adaptive degraded-budget hint (counter in WorkCounters, floor semantics).
#include "obs/timeseries.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/profiler.hpp"
#include "obs/slo.hpp"
#include "stream/engine.hpp"
#include "support/scheduler.hpp"

namespace parcycle {
namespace {

TEST(SeriesRing, WrapsAroundKeepingNewestSamples) {
  SeriesRing ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.latest(), 0.0);
  for (int i = 0; i < 10; ++i) {
    ring.push(static_cast<std::uint64_t>(i) * 100, static_cast<double>(i));
  }
  EXPECT_EQ(ring.total(), 10u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.latest(), 9.0);
  const std::vector<SeriesRing::Sample> samples = ring.samples();
  ASSERT_EQ(samples.size(), 4u);
  // Oldest first: pushes 6, 7, 8, 9 survive.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(samples[i].value, static_cast<double>(6 + i));
    EXPECT_EQ(samples[i].t_ns, (6 + i) * 100u);
  }
}

TEST(SeriesRing, ZeroCapacityClampsToOne) {
  SeriesRing ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  ring.push(1, 1.0);
  ring.push(2, 2.0);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.latest(), 2.0);
}

// 5 disjoint 2-cycles pushed between two synthetic ticks 2 seconds apart:
// every rate is exact, no clock reads involved.
TEST(TimeSeriesSampler, RateDerivationMatchesHandComputedValues) {
  Scheduler sched(2);
  StreamOptions options;
  options.window = 1'000'000;
  options.batch_size = 1024;  // no auto-batching; flush() drives the work
  options.max_cycle_length = 8;
  StreamEngine engine(options, sched, nullptr);
  TimeSeriesSampler sampler(engine, sched, {});  // never start()ed

  sampler.sample_once(1'000'000'000);  // baseline: no rates derivable yet
  EXPECT_EQ(sampler.ticks(), 1u);
  EXPECT_TRUE(sampler.series("edges_per_sec").empty());

  for (int i = 0; i < 5; ++i) {
    const auto a = static_cast<VertexId>(2 * i);
    const auto b = static_cast<VertexId>(2 * i + 1);
    engine.push(a, b, 2 * i);
    engine.push(b, a, 2 * i + 1);  // closes one 2-cycle per pair
  }
  engine.flush();
  ASSERT_EQ(engine.stats().edges_pushed, 10u);
  ASSERT_EQ(engine.stats().cycles_found, 5u);

  sampler.sample_once(3'000'000'000);  // dt = exactly 2 s
  EXPECT_EQ(sampler.ticks(), 2u);
  ASSERT_EQ(sampler.series("edges_per_sec").size(), 1u);
  EXPECT_EQ(sampler.series("edges_per_sec").back().value, 5.0);
  EXPECT_EQ(sampler.series("cycles_per_sec").back().value, 2.5);
  EXPECT_EQ(sampler.series("shed_per_sec").back().value, 0.0);
  EXPECT_EQ(sampler.series("overload_level").back().value, 0.0);

  // Searches ran between the ticks, so the per-tick latency delta is
  // non-empty and the rolling p99 materialises.
  ASSERT_GE(sampler.series("p99_search_ns").size(), 1u);
  EXPECT_GT(sampler.series("p99_search_ns").back().value, 0.0);

  EXPECT_THROW(sampler.series("no_such_series"), std::out_of_range);

  const std::string prom = sampler.render_prometheus();
  EXPECT_NE(prom.find("parcycle_build_info"), std::string::npos);
  EXPECT_NE(prom.find("parcycle_uptime_seconds"), std::string::npos);
  EXPECT_NE(prom.find("parcycle_stream_edges_per_sec"), std::string::npos);
  EXPECT_NE(sampler.render_statusz().find("parcycle statusz"),
            std::string::npos);
  EXPECT_TRUE(sampler.health().ok);
}

TEST(Slo, ParseAcceptsTheDocumentedSyntax) {
  EXPECT_TRUE(SloTracker::parse("").empty());
  const std::vector<SloObjective> parsed =
      SloTracker::parse("p99_search_ns<2000000@0.1;edges_per_sec>50");
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].metric, "p99_search_ns");
  EXPECT_TRUE(parsed[0].less_than);
  EXPECT_EQ(parsed[0].threshold, 2000000.0);
  EXPECT_EQ(parsed[0].allowed_fraction, 0.1);
  EXPECT_EQ(parsed[1].metric, "edges_per_sec");
  EXPECT_FALSE(parsed[1].less_than);
  EXPECT_EQ(parsed[1].threshold, 50.0);
  EXPECT_EQ(parsed[1].allowed_fraction, 0.01);  // the documented default
  EXPECT_EQ(parsed[0].spec().rfind("p99_search_ns<", 0), 0u);
}

TEST(Slo, ParseRejectsBadSpecs) {
  EXPECT_THROW(SloTracker::parse("bogus_metric<1"), std::invalid_argument);
  EXPECT_THROW(SloTracker::parse("p99_search_ns"), std::invalid_argument);
  EXPECT_THROW(SloTracker::parse("p99_search_ns<"), std::invalid_argument);
  EXPECT_THROW(SloTracker::parse("p99_search_ns<abc"),
               std::invalid_argument);
  EXPECT_THROW(SloTracker::parse("p99_search_ns=5"), std::invalid_argument);
  EXPECT_THROW(SloTracker::parse("shed_fraction<0.1@0"),
               std::invalid_argument);
  EXPECT_THROW(SloTracker::parse("shed_fraction<0.1@1.5"),
               std::invalid_argument);
}

// burn_ratio = (violated/total)/allowed, pinned: 4 ticks at allowed=0.25
// with 2 violations burn exactly 2.0; an absent metric counts the tick but
// never violates.
TEST(Slo, BurnArithmeticIsPinned) {
  SloTracker tracker(SloTracker::parse("p99_search_ns<100@0.25"));
  tracker.evaluate({{"p99_search_ns", 50.0}});   // ok
  tracker.evaluate({{"p99_search_ns", 150.0}});  // violated
  tracker.evaluate({{"p99_search_ns", 150.0}});  // violated
  tracker.evaluate({});                          // absent: counted, ok
  std::vector<SloTracker::Status> status = tracker.status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].ticks_total, 4u);
  EXPECT_EQ(status[0].ticks_violated, 2u);
  EXPECT_EQ(status[0].burn_ratio, 2.0);
  EXPECT_FALSE(status[0].ok);

  // Exactly-spent budget is still ok: burn == 1.0 is the boundary.
  SloTracker boundary(SloTracker::parse("shed_fraction<0.5@0.5"));
  boundary.evaluate({{"shed_fraction", 0.9}});  // violated
  boundary.evaluate({{"shed_fraction", 0.1}});  // ok
  status = boundary.status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].burn_ratio, 1.0);
  EXPECT_TRUE(status[0].ok);

  // Greater-than objectives violate below the threshold.
  SloTracker above(SloTracker::parse("edges_per_sec>10@0.5"));
  above.evaluate({{"edges_per_sec", 5.0}});
  status = above.status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].ticks_violated, 1u);
  EXPECT_FALSE(status[0].ok);
}

TEST(TimeSeriesSampler, EvaluatesSloObjectivesPerTick) {
  Scheduler sched(2);
  StreamOptions options;
  options.window = 1'000'000;
  options.batch_size = 1024;
  StreamEngine engine(options, sched, nullptr);
  TimeSeriesOptions ts_options;
  // An absurd throughput floor: every tick that derives a rate violates.
  ts_options.slo_spec = "edges_per_sec>1000000@0.5";
  TimeSeriesSampler sampler(engine, sched, ts_options);

  sampler.sample_once(1'000'000'000);  // baseline: metric absent, no violation
  engine.push(0, 1, 0);
  engine.push(1, 0, 1);
  engine.flush();
  sampler.sample_once(2'000'000'000);  // rate = 2 edges/s: violated
  std::vector<SloTracker::Status> status = sampler.slo_status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].ticks_total, 2u);
  EXPECT_EQ(status[0].ticks_violated, 1u);
  EXPECT_EQ(status[0].burn_ratio, 1.0);  // (1/2)/0.5: budget exactly spent
  EXPECT_TRUE(status[0].ok);

  sampler.sample_once(3'000'000'000);  // rate = 0: violated again
  status = sampler.slo_status();
  EXPECT_EQ(status[0].ticks_total, 3u);
  EXPECT_EQ(status[0].ticks_violated, 2u);
  EXPECT_FALSE(status[0].ok);  // (2/3)/0.5 > 1

  EXPECT_NE(sampler.render_prometheus().find("parcycle_slo_burn_ratio"),
            std::string::npos);
}

// The key=value token starting at `key` in `text` ("" when absent).
std::string token_of(const std::string& text, const std::string& key) {
  const std::size_t pos = text.find(key);
  if (pos == std::string::npos) {
    return "";
  }
  return text.substr(pos, text.find_first_of(" \n", pos) - pos);
}

// The profiler line states the requested and the achieved sampling rate,
// and the achieved one reads the same as in the collapsed profile header.
TEST(TimeSeriesSampler, StatuszShowsProfilerSamplingRates) {
  ProfilerOptions profiler_options;
  profiler_options.sample_hz = 211;
  StackProfiler prof(1, profiler_options);
  SchedulerOptions sched_options;
  sched_options.thread_observer = &prof;
  Scheduler sched(1, sched_options);
  StreamOptions options;
  options.window = 1'000'000;
  StreamEngine engine(options, sched, nullptr);
  TimeSeriesOptions ts_options;
  ts_options.profiler = &prof;
  TimeSeriesSampler sampler(engine, sched, ts_options);

  const std::string idle = sampler.render_statusz();
  EXPECT_NE(idle.find("profiler: idle taken=0 dropped=0 hz=211 "
                      "effective_hz=0.0 clock=cpu\n"),
            std::string::npos)
      << idle;

  if (!StackProfiler::supported()) {
    return;  // no timer sampling here (e.g. ThreadSanitizer builds)
  }
  ASSERT_TRUE(prof.start());
  volatile std::uint64_t sink = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 4096; ++i) {
      sink = sink + static_cast<std::uint64_t>(i) * 2654435761u;
    }
  }
  // Read live, the open span counts: the rate is already positive.
  const std::string live = token_of(sampler.render_statusz(), "effective_hz=");
  EXPECT_NE(live, "effective_hz=0.0") << live;
  prof.stop();
  const std::string statusz = sampler.render_statusz();
  EXPECT_NE(statusz.find(" hz=211 effective_hz="), std::string::npos)
      << statusz;
  const std::string effective = token_of(statusz, "effective_hz=");
  EXPECT_NE(effective, "effective_hz=0.0") << statusz;
  EXPECT_EQ(effective, token_of(prof.collapsed(), "effective_hz="));
}

TEST(TimeSeriesSampler, RejectsBadSloSpecAtConstruction) {
  Scheduler sched(1);
  StreamOptions options;
  options.window = 1'000'000;
  StreamEngine engine(options, sched, nullptr);
  TimeSeriesOptions ts_options;
  ts_options.slo_spec = "not_a_metric<1";
  EXPECT_THROW(
      { TimeSeriesSampler sampler(engine, sched, ts_options); },
      std::invalid_argument);
}

// batch_size=9 with overload_high_watermark=3 jumps the ladder exactly
// 9/3 = 3 rungs at the first batch boundary — straight to kTightenBudgets —
// so that batch's searches run degraded. A hint above the static degraded
// wall budget widens it (and counts applications); a hint below the static
// floor must be ignored.
TEST(TimeSeriesSampler, AdaptiveHintWidensDegradedBudgetAboveStaticFloor) {
  Scheduler sched(2);
  StreamOptions options;
  options.window = 1'000'000;
  options.batch_size = 9;
  options.overload_high_watermark = 3;
  ASSERT_GT(options.degraded_budget.wall_ns, 0u);  // finite static floor

  {
    StreamEngine engine(options, sched, nullptr);
    engine.set_degraded_wall_hint_ns(1'000'000'000);  // above the floor
    for (int i = 0; i < 9; ++i) {
      engine.push(static_cast<VertexId>(i % 3),
                  static_cast<VertexId>((i + 1) % 3), i);
    }
    EXPECT_EQ(engine.overload_level(), OverloadLevel::kTightenBudgets);
    EXPECT_GT(engine.stats().work.adaptive_budget_applications, 0u);
  }
  {
    StreamEngine engine(options, sched, nullptr);
    engine.set_degraded_wall_hint_ns(1);  // below the floor: never applied
    for (int i = 0; i < 9; ++i) {
      engine.push(static_cast<VertexId>(i % 3),
                  static_cast<VertexId>((i + 1) % 3), i);
    }
    EXPECT_EQ(engine.overload_level(), OverloadLevel::kTightenBudgets);
    EXPECT_EQ(engine.stats().work.adaptive_budget_applications, 0u);
  }
}

}  // namespace
}  // namespace parcycle
