// The stream engine's reorder stage against an oracle: a binary min-heap on
// (ts, src, dst), the reorder stage the bucket ring replaced. Seeded random
// feeds — heavy timestamp ties, negative timestamps, timestamps near the
// Timestamp minimum, slacks from 1 to 2^40, late arrivals, mid-stream
// flushes and snapshot/restore cuts — must give the same ingested sequence,
// late rejections, peak buffering and overload-ladder shifts as the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "stream/engine.hpp"
#include "stream/reorder_buffer.hpp"
#include "support/prng.hpp"
#include "support/scheduler.hpp"

namespace parcycle {
namespace {

constexpr Timestamp kLowest = std::numeric_limits<Timestamp>::min();

bool canonical_less(const TemporalEdge& a, const TemporalEdge& b) {
  return std::tie(a.ts, a.src, a.dst) < std::tie(b.ts, b.src, b.dst);
}

// The heap reorder stage: buffer, then pop everything below the floor.
struct HeapReorder {
  explicit HeapReorder(Timestamp slack_units) : slack(slack_units) {}

  Timestamp slack;
  Timestamp max_seen = kLowest;
  Timestamp floor = kLowest;
  std::vector<TemporalEdge> heap;
  std::uint64_t late = 0;
  std::uint64_t peak = 0;

  static bool after(const TemporalEdge& a, const TemporalEdge& b) {
    return canonical_less(b, a);
  }
  template <typename Emit>
  void pop_while(Timestamp below, Emit&& emit) {
    while (!heap.empty() && heap.front().ts < below) {
      std::pop_heap(heap.begin(), heap.end(), after);
      const TemporalEdge edge = heap.back();
      heap.pop_back();
      emit(edge);
    }
  }
  template <typename Emit>
  void push(const TemporalEdge& edge, Emit&& emit) {
    if (edge.ts < floor) {
      late += 1;
      return;
    }
    heap.push_back(edge);
    std::push_heap(heap.begin(), heap.end(), after);
    peak = std::max<std::uint64_t>(peak, heap.size());
    if (edge.ts > max_seen) {
      max_seen = edge.ts;
      floor = std::max(floor,
                       max_seen < kLowest + slack ? kLowest : max_seen - slack);
    }
    pop_while(floor, emit);
  }
  template <typename Emit>
  void flush(Emit&& emit) {
    if (!heap.empty()) {
      pop_while(std::numeric_limits<Timestamp>::max(), emit);
      while (!heap.empty()) {  // edges at Timestamp max itself
        std::pop_heap(heap.begin(), heap.end(), after);
        emit(heap.back());
        heap.pop_back();
      }
      floor = std::max(floor, max_seen);
    }
  }
};

// The engine's batching and overload ladder around the oracle heap: what
// push()/flush() should ingest, and which ladder shifts they should take.
struct EngineModel {
  explicit EngineModel(const StreamOptions& engine_options)
      : options(engine_options), reorder(engine_options.reorder_slack) {}

  StreamOptions options;
  HeapReorder reorder;
  std::vector<TemporalEdge> pending;
  std::vector<TemporalEdge> ingested;
  int level = 0;
  std::uint64_t shifts = 0;
  std::uint64_t calm = 0;
  std::uint64_t shed = 0;
  std::size_t busiest = 0;  // largest occupancy a batch started with

  std::size_t occupancy() const { return pending.size() + reorder.heap.size(); }
  void set_level(int next) {
    shifts += next != level ? 1 : 0;
    level = next;
  }
  void batch() {
    const std::size_t high = options.overload_high_watermark;
    if (!pending.empty()) {
      busiest = std::max(busiest, occupancy());
    }
    if (!pending.empty() && high != SIZE_MAX && occupancy() >= high) {
      calm = 0;
      set_level(std::min<int>(
          kOverloadLevels - 1,
          level + static_cast<int>(std::min<std::size_t>(
                      occupancy() / high, kOverloadLevels - 1))));
    }
    ingested.insert(ingested.end(), pending.begin(), pending.end());
    pending.clear();
    if (level == 0) {
      return;
    }
    if (occupancy() > high / 2) {
      calm = 0;
    } else if (++calm >= kOverloadRecoverBatches) {
      calm = 0;
      set_level(level - 1);
    }
  }
  void enqueue(const TemporalEdge& edge) {
    pending.push_back(edge);
    if (pending.size() >= options.batch_size) {
      batch();
    }
  }
  void push(const TemporalEdge& edge) {
    if (level == kOverloadLevels - 1) {
      shed += 1;
      return;
    }
    reorder.push(edge, [this](const TemporalEdge& e) { enqueue(e); });
  }
  void flush() {
    reorder.flush([this](const TemporalEdge& e) { enqueue(e); });
    batch();
  }
};

struct FeedSpec {
  const char* name;
  Timestamp slack;
  Timestamp base;       // first timestamp
  Timestamp max_step;   // gap between consecutive sorted timestamps
  double tie_fraction;  // share of zero gaps
  double late_fraction; // arrivals delayed past the slack
  VertexId vertices;
  Timestamp window;     // larger than the feed's span: nothing expires
};

// A sorted timestamp sequence, delivered in an order jittered within the
// slack, with a share of arrivals delayed beyond it (usually late).
std::vector<TemporalEdge> make_feed(const FeedSpec& spec, std::size_t n,
                                    std::uint64_t seed) {
  Xoshiro256 rng(seed);
  struct Arrival {
    TemporalEdge edge;
    Timestamp key;
  };
  std::vector<Arrival> arrivals;
  Timestamp ts = spec.base;
  const auto slack = static_cast<std::uint64_t>(spec.slack);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform() >= spec.tie_fraction) {
      ts += 1 + static_cast<Timestamp>(
                    rng.bounded(static_cast<std::uint64_t>(spec.max_step)));
    }
    TemporalEdge edge{static_cast<VertexId>(rng.bounded(spec.vertices)),
                      static_cast<VertexId>(rng.bounded(spec.vertices)), ts,
                      kInvalidEdge};
    Timestamp delay = static_cast<Timestamp>(rng.bounded(slack + 1));
    if (rng.uniform() < spec.late_fraction) {
      delay += spec.slack + 1;
    }
    arrivals.push_back({edge, ts + delay});
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.key < b.key;
                   });
  std::vector<TemporalEdge> feed;
  for (const Arrival& a : arrivals) {
    feed.push_back(a.edge);
  }
  return feed;
}

StreamOptions options_for(const FeedSpec& spec) {
  StreamOptions options;
  options.window = spec.window;
  options.reorder_slack = spec.slack;
  options.batch_size = 16;
  options.max_cycle_length = 3;  // keep the per-edge searches small
  options.hot_frontier_threshold = SIZE_MAX;
  return options;
}

// Arms the overload ladder with a high watermark at `fraction` of the
// busiest batch start of an unarmed run, so the ladder climbs, sheds and
// recovers on the feed instead of never moving or shedding it all at once.
StreamOptions with_ladder(StreamOptions options,
                          const std::vector<TemporalEdge>& feed,
                          double fraction) {
  EngineModel dry(options);
  for (const TemporalEdge& edge : feed) {
    dry.push(edge);
  }
  options.overload_high_watermark = std::max<std::size_t>(
      2, static_cast<std::size_t>(static_cast<double>(dry.busiest) * fraction));
  return options;
}

std::vector<TemporalEdge> ingested_sequence(const StreamEngine& engine) {
  const auto log = engine.graph().live_log();
  EXPECT_EQ(log.size(), engine.graph().total_ingested())
      << "the window must be wide enough to keep every edge";
  return {log.begin(), log.end()};
}

void expect_same_edges(const std::vector<TemporalEdge>& got,
                       const std::vector<TemporalEdge>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(std::tie(got[i].ts, got[i].src, got[i].dst) ==
                std::tie(want[i].ts, want[i].src, want[i].dst))
        << "at ingest rank " << i;
  }
}

void expect_matches_model(const StreamEngine& engine,
                          const EngineModel& model) {
  const StreamStats stats = engine.stats();
  EXPECT_EQ(stats.late_edges_rejected, model.reorder.late);
  EXPECT_EQ(stats.reorder_peak_buffered, model.reorder.peak);
  EXPECT_EQ(stats.reorder_buffered, model.reorder.heap.size());
  EXPECT_EQ(stats.reorder_floor, model.reorder.floor);
  EXPECT_EQ(stats.reorder_max_seen, model.reorder.max_seen);
  EXPECT_EQ(stats.overload_shifts, model.shifts);
  EXPECT_EQ(static_cast<int>(stats.overload_level), model.level);
  EXPECT_EQ(stats.edges_shed, model.shed);
  expect_same_edges(ingested_sequence(engine), model.ingested);
}

const FeedSpec kSpecs[] = {
    {"heavy_ties", 4, 0, 2, 0.7, 0.05, 6, 1 << 20},
    {"negative", 4000, -2'000'000, 40, 0.2, 0.03, 40, 1 << 20},
    // The late floor saturates at the Timestamp minimum: for the first 500
    // units here, and until a flush hardens it in near_min. The searches
    // read ts - window, so no timestamp lies within a window of the minimum.
    {"near_min_wide", 1'000'500, kLowest + 1'000'001, 400, 0.2, 0.03, 40,
     1'000'000},
    {"near_min", 4000, kLowest + 3001, 2, 0.4, 0.03, 40, 3000},
    {"slack_1", 1, 100, 3, 0.3, 0.05, 20, 1 << 20},
    {"slack_4000", 4000, 0, 20, 0.2, 0.03, 60, 1 << 20},
    {"slack_2_40", Timestamp{1} << 40, 0, Timestamp{1} << 32, 0.3, 0.03, 60,
     Timestamp{1} << 50},
};

constexpr std::size_t kFeedEdges = 1500;

// Pushes feed[begin, end) into both; flushes both at `flush_at`.
void feed_both(StreamEngine& engine, EngineModel& model,
               const std::vector<TemporalEdge>& feed, std::size_t begin,
               std::size_t end, std::size_t flush_at) {
  for (std::size_t i = begin; i < end; ++i) {
    if (i == flush_at) {
      engine.flush();
      model.flush();
    }
    engine.push(feed[i].src, feed[i].dst, feed[i].ts);
    model.push(feed[i]);
    ASSERT_EQ(static_cast<int>(engine.overload_level()), model.level)
        << "after push " << i;
  }
}

TEST(StreamReorder, MatchesHeapOracle) {
  std::uint64_t late = 0;
  std::uint64_t shifts = 0;
  for (const FeedSpec& spec : kSpecs) {
    for (const bool ladder : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(std::string(spec.name) + (ladder ? " ladder" : "") +
                     " seed " + std::to_string(seed));
        const std::vector<TemporalEdge> feed =
            make_feed(spec, kFeedEdges, seed);
        const StreamOptions options =
            ladder ? with_ladder(options_for(spec), feed, 0.25 * (seed + 1))
                   : options_for(spec);
        Xoshiro256 rng(seed * 7919);
        const std::size_t flush_at = rng.bounded(feed.size());
        EngineModel model(options);
        Scheduler::with_pool(1, [&](Scheduler& sched) {
          StreamEngine engine(options, sched, nullptr);
          feed_both(engine, model, feed, 0, feed.size(), flush_at);
          expect_matches_model(engine, model);
          engine.flush();
          model.flush();
          expect_matches_model(engine, model);
        });
        late += model.reorder.late;
        shifts += model.shifts;
        if (!ladder) {
          EXPECT_EQ(model.ingested.size() + model.reorder.late, feed.size());
        }
      }
    }
  }
  // The feeds do exercise the late path and the ladder.
  EXPECT_GT(late, 0u);
  EXPECT_GT(shifts, 0u);
}

// Wide buckets hold several timestamps, so a release often splits the
// floor's bucket. Feeds dense enough to fill them need far more edges than
// an engine replay can search cheaply, so the ring is driven directly, by
// the engine's floor rule, against the heap.
TEST(StreamReorder, WideBucketRingMatchesHeapOracle) {
  const FeedSpec specs[] = {
      {"shift_1", 70'000, -5'000, 1, 0.5, 0.02, 1000, 0},
      {"shift_5", 1 << 20, 0, 8, 0.3, 0.02, 1000, 0},
      {"shift_25", Timestamp{1} << 40, kLowest + 7, Timestamp{1} << 23, 0.3,
       0.02, 1000, 0},
  };
  for (const FeedSpec& spec : specs) {
    SCOPED_TRACE(spec.name);
    const std::vector<TemporalEdge> feed = make_feed(spec, 400'000, 5);
    std::vector<TemporalEdge> want;
    HeapReorder heap(spec.slack);
    for (const TemporalEdge& edge : feed) {
      heap.push(edge, [&](const TemporalEdge& e) { want.push_back(e); });
    }
    heap.flush([&](const TemporalEdge& e) { want.push_back(e); });

    std::vector<TemporalEdge> got;
    const auto collect = [&](const TemporalEdge& e) { got.push_back(e); };
    ReorderBuffer ring;
    ring.reset(static_cast<std::uint64_t>(spec.slack), kLowest);
    ASSERT_GT(ring.shift(), 0);
    Timestamp max_seen = kLowest;
    Timestamp floor = kLowest;
    for (const TemporalEdge& edge : feed) {
      if (edge.ts < floor) {
        continue;
      }
      if (edge.ts > max_seen) {
        max_seen = edge.ts;
        const Timestamp next = std::max(
            floor, max_seen < kLowest + spec.slack ? kLowest
                                                   : max_seen - spec.slack);
        if (next != floor) {
          floor = next;
          ring.release_below(floor, collect);
        }
      }
      ring.insert(edge.src, edge.dst, edge.ts);
    }
    ring.drain(max_seen, collect);
    EXPECT_GT(heap.late, 0u);
    EXPECT_EQ(got.size() + heap.late, feed.size());
    expect_same_edges(got, want);
  }
}

TEST(StreamReorder, RestoreAtRandomCutMatchesHeapOracle) {
  for (const FeedSpec& spec : kSpecs) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(std::string(spec.name) + " seed " + std::to_string(seed));
      const std::vector<TemporalEdge> feed = make_feed(spec, kFeedEdges, seed);
      const StreamOptions options = seed == 2
                                        ? with_ladder(options_for(spec), feed, 0.5)
                                        : options_for(spec);
      Xoshiro256 rng(seed * 104729);
      const std::size_t cut = 1 + rng.bounded(feed.size() - 1);
      const std::size_t flush_at = rng.bounded(feed.size());
      EngineModel model(options);
      std::string bytes;
      Scheduler::with_pool(1, [&](Scheduler& sched) {
        StreamEngine engine(options, sched, nullptr);
        feed_both(engine, model, feed, 0, cut, flush_at);
        std::ostringstream out;
        engine.save_snapshot(out);
        bytes = out.str();
      });
      Scheduler::with_pool(1, [&](Scheduler& sched) {
        StreamEngine engine(options, sched, nullptr);
        std::istringstream in(bytes);
        engine.restore_snapshot(in);
        ASSERT_EQ(engine.edges_pushed(), cut);
        // The reorder section is canonical, so a restored engine saves the
        // bytes it was restored from.
        std::ostringstream again;
        engine.save_snapshot(again);
        EXPECT_EQ(again.str(), bytes);
        feed_both(engine, model, feed, cut, feed.size(), flush_at);
        engine.flush();
        model.flush();
        expect_matches_model(engine, model);
      });
    }
  }
}

TEST(StreamReorder, SaveRestoreSaveIsByteIdenticalWithBufferedEdges) {
  const FeedSpec& spec = kSpecs[5];  // slack 4000
  const std::vector<TemporalEdge> feed = make_feed(spec, kFeedEdges, 11);
  const StreamOptions options = options_for(spec);
  std::string bytes;
  Scheduler::with_pool(1, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, nullptr);
    for (std::size_t i = 0; i < 700; ++i) {
      engine.push(feed[i].src, feed[i].dst, feed[i].ts);
    }
    ASSERT_GT(engine.stats().reorder_buffered, 1u);
    std::ostringstream out;
    engine.save_snapshot(out);
    bytes = out.str();
  });
  Scheduler::with_pool(1, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, nullptr);
    std::istringstream in(bytes);
    engine.restore_snapshot(in);
    std::ostringstream again;
    engine.save_snapshot(again);
    EXPECT_EQ(again.str(), bytes);
  });
}

TEST(StreamReorder, RingGeometryFollowsTheSlack) {
  ReorderBuffer ring;
  ring.reset(4000, 0);  // stream-sparse: one timestamp per bucket
  EXPECT_EQ(ring.buckets(), 4096u);
  EXPECT_EQ(ring.shift(), 0);
  ring.reset(65535, 0);
  EXPECT_EQ(ring.buckets(), 65536u);
  EXPECT_EQ(ring.shift(), 0);
  ring.reset(65536, 0);
  EXPECT_EQ(ring.buckets(), ReorderBuffer::kMaxBuckets);
  EXPECT_EQ(ring.shift(), 1);
  ring.reset(std::uint64_t{1} << 40, 0);
  EXPECT_EQ(ring.shift(), 25);
  ring.reset(std::numeric_limits<std::uint64_t>::max(), kLowest);
  EXPECT_EQ(ring.buckets(), ReorderBuffer::kMaxBuckets);
}

TEST(StreamReorder, WideBucketStraddlingTheFloorKeepsItsUpperEdges) {
  ReorderBuffer ring;
  ring.reset(std::uint64_t{1} << 20, 0);  // shift 5: 32 timestamps a bucket
  ASSERT_EQ(ring.shift(), 5);
  for (const Timestamp ts : {40, 33, 35, 32, 63, 35}) {
    ring.insert(static_cast<VertexId>(ts % 3), 1, ts);
  }
  std::vector<Timestamp> released;
  ring.release_below(36, [&](const TemporalEdge& e) {
    released.push_back(e.ts);
  });
  EXPECT_EQ(released, (std::vector<Timestamp>{32, 33, 35, 35}));
  EXPECT_EQ(ring.size(), 2u);
  released.clear();
  ring.drain(63, [&](const TemporalEdge& e) { released.push_back(e.ts); });
  EXPECT_EQ(released, (std::vector<Timestamp>{40, 63}));
  EXPECT_TRUE(ring.empty());
}

}  // namespace
}  // namespace parcycle
