// Parallel behaviour of the streaming subsystem: thread sweeps must leave
// cycle counts AND work counts untouched (the per-edge search carries no
// shared blocking state, so unlike the batch fine-grained algorithms its
// edge-visit totals are schedule-independent), escalated and serial per-edge
// searches must agree edge-for-edge, and repeated runs must be stable (the
// TSan CI job reruns this suite).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/cycle_types.hpp"
#include "graph/generators.hpp"
#include "obs/trace.hpp"
#include "stream/engine.hpp"
#include "stream/incremental.hpp"
#include "stream/sliding_window_graph.hpp"
#include "support/scheduler.hpp"
#include "support/scratch_pool.hpp"
#include "temporal/temporal_johnson.hpp"

namespace parcycle {
namespace {

TemporalGraph test_graph() {
  ScaleFreeTemporalParams params;
  params.num_vertices = 80;
  params.num_edges = 600;
  params.time_span = 2500;
  params.attachment = 0.8;
  params.burstiness = 0.6;
  params.seed = 1234;
  return scale_free_temporal(params);
}

constexpr Timestamp kWindow = 170;

StreamStats replay(const TemporalGraph& graph, unsigned threads,
                   std::size_t hot_threshold, SpawnPolicy policy) {
  return Scheduler::with_pool(threads, [&](Scheduler& sched) {
    StreamOptions options;
    options.window = kWindow;
    options.batch_size = 64;
    options.hot_frontier_threshold = hot_threshold;
    options.spawn_policy = policy;
    StreamEngine engine(options, sched, nullptr);
    for (const auto& e : graph.edges_by_time()) {
      engine.push(e.src, e.dst, e.ts);
    }
    engine.flush();
    return engine.stats();
  });
}

TEST(StreamParallel, ThreadSweepIsDeterministic) {
  const TemporalGraph graph = test_graph();
  const StreamStats reference = replay(graph, 1, 8, SpawnPolicy::kAdaptive);
  ASSERT_GT(reference.cycles_found, 0u);
  for (const unsigned threads : {2u, 4u}) {
    for (const SpawnPolicy policy :
         {SpawnPolicy::kAdaptive, SpawnPolicy::kAlways}) {
      SCOPED_TRACE(threads);
      const StreamStats run = replay(graph, threads, 8, policy);
      EXPECT_EQ(run.cycles_found, reference.cycles_found);
      EXPECT_EQ(run.work.cycles_found, reference.work.cycles_found);
      EXPECT_EQ(run.work.edges_visited, reference.work.edges_visited);
      EXPECT_EQ(run.work.vertices_visited, reference.work.vertices_visited);
      EXPECT_EQ(run.escalated_edges, reference.escalated_edges);
    }
  }
}

TEST(StreamParallel, EscalationThresholdOnlyMovesWork) {
  const TemporalGraph graph = test_graph();
  const StreamStats serial_only =
      replay(graph, 4, static_cast<std::size_t>(-1), SpawnPolicy::kAdaptive);
  const StreamStats all_fine = replay(graph, 4, 0, SpawnPolicy::kAlways);
  const StreamStats mixed = replay(graph, 4, 6, SpawnPolicy::kAdaptive);
  EXPECT_EQ(serial_only.escalated_edges, 0u);
  EXPECT_GT(all_fine.escalated_edges, 0u);
  EXPECT_EQ(serial_only.cycles_found, all_fine.cycles_found);
  EXPECT_EQ(serial_only.cycles_found, mixed.cycles_found);
  EXPECT_EQ(serial_only.work.edges_visited, all_fine.work.edges_visited);
  EXPECT_EQ(serial_only.work.edges_visited, mixed.work.edges_visited);
}

// Records every reported cycle as reported: vertices from the closing
// edge's head, edges in lockstep with the closing edge last.
class RawCycleSink final : public CycleSink {
 public:
  void on_cycle(std::span<const VertexId> vertices,
                std::span<const EdgeId> edges) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    cycles_.push_back({{vertices.begin(), vertices.end()},
                       {edges.begin(), edges.end()}});
  }

  // The cycles reported since the last call, sorted.
  std::vector<CycleRecord> take_sorted() {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<CycleRecord> out = std::move(cycles_);
    cycles_.clear();
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::mutex mutex_;
  std::vector<CycleRecord> cycles_;
};

// The escalated search is the serial one on every schedule: per edge, the
// same cycles in the same vertex and edge order, and the same visits, on
// 1 to 8 workers under both spawn policies, with and without a length bound
// and the reverse-BFS prune. A one-worker adaptive search spawns nothing.
TEST(StreamParallel, FineSearchMatchesSerialPerEdge) {
  const TemporalGraph graph = test_graph();
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    Scheduler::with_pool(threads, [&](Scheduler& sched) {
      for (const SpawnPolicy policy :
           {SpawnPolicy::kAdaptive, SpawnPolicy::kAlways}) {
        for (const std::int32_t max_length : {0, 4}) {
          for (const bool prune : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "threads " << threads << " policy "
                         << static_cast<int>(policy) << " max_length "
                         << max_length << " prune " << prune);
            EnumOptions eopts;
            eopts.max_cycle_length = max_length;
            eopts.use_cycle_union = prune;
            ParallelOptions popts;
            popts.spawn_policy = policy;
            SlidingWindowGraph live(graph.num_vertices());
            StreamSearchScratch serial_scratch;
            StreamSearchScratch fine_scratch;
            ScratchPool<StreamSearchScratch> pool(
                [] { return std::make_unique<StreamSearchScratch>(); });
            RawCycleSink serial_sink;
            RawCycleSink fine_sink;
            std::uint64_t cycles = 0;
            std::uint64_t spawned = 0;
            for (TemporalEdge e : graph.edges_by_time()) {
              e.id = live.ingest(e.src, e.dst, e.ts);
              WorkCounters serial_work;
              WorkCounters fine_work;
              const std::uint64_t serial =
                  cycles_closed_by_edge(live, e, kWindow, eopts,
                                        serial_scratch, serial_work,
                                        &serial_sink);
              const std::uint64_t fine = fine_cycles_closed_by_edge(
                  live, e, kWindow, settle_edge_lane(live, e, kWindow), sched,
                  eopts, popts, fine_scratch, pool, fine_work, &fine_sink,
                  nullptr);
              ASSERT_EQ(serial, fine) << "edge " << e.id;
              ASSERT_EQ(serial_work.cycles_found, fine_work.cycles_found);
              ASSERT_EQ(serial_work.edges_visited, fine_work.edges_visited);
              ASSERT_EQ(serial_work.vertices_visited,
                        fine_work.vertices_visited);
              ASSERT_EQ(serial_sink.take_sorted(), fine_sink.take_sorted())
                  << "edge " << e.id;
              cycles += serial;
              spawned += fine_work.tasks_spawned;
            }
            EXPECT_GT(cycles, 0u);
            if (threads == 1 && policy == SpawnPolicy::kAdaptive) {
              EXPECT_EQ(spawned, 0u);
            } else if (policy == SpawnPolicy::kAlways) {
              EXPECT_GT(spawned, 0u);
            }
          }
        }
      }
    });
  }
}

StreamStats replay_with(const TemporalGraph& graph, unsigned threads,
                        const StreamOptions& options) {
  return Scheduler::with_pool(threads, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, nullptr);
    for (const auto& e : graph.edges_by_time()) {
      engine.push(e.src, e.dst, e.ts);
    }
    engine.flush();
    return engine.stats();
  });
}

// One lane of a standalone serial replay: cycles_closed_by_edge on every
// edge with the engine's prune rule, plus the edges whose frontier reaches
// the escalation threshold (the ones the engine escalates) and the lanes
// that settle without a search, by reason.
struct LaneReplay {
  std::uint64_t cycles = 0;
  std::uint64_t hot = 0;
  WorkCounters work;
  std::uint64_t self_loops = 0;
  std::uint64_t empty_heads = 0;
  std::uint64_t empty_tails = 0;
  std::uint64_t searched = 0;

  std::uint64_t settled() const {
    return self_loops + empty_heads + empty_tails;
  }
};

std::vector<LaneReplay> standalone_replay(const TemporalGraph& graph,
                                          const StreamOptions& options) {
  SlidingWindowGraph live(graph.num_vertices());
  StreamSearchScratch scratch;
  std::vector<LaneReplay> lanes(options.windows.size());
  for (TemporalEdge e : graph.edges_by_time()) {
    e.id = live.ingest(e.src, e.dst, e.ts);
    for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
      const Timestamp delta = options.windows[lane];
      LaneReplay& replay = lanes[lane];
      const EdgeLane root = settle_edge_lane(live, e, delta);
      const std::size_t frontier = root.head_out.size();
      EnumOptions eopts;
      eopts.use_cycle_union = options.use_reach_prune &&
                              frontier >= options.prune_frontier_threshold;
      replay.cycles +=
          cycles_closed_by_edge(live, e, delta, eopts, scratch, replay.work);
      if (e.src != e.dst && frontier >= options.hot_frontier_threshold) {
        replay.hot += 1;
      }
      if (!root.settled) {
        replay.searched += 1;
      } else if (e.src == e.dst) {
        replay.self_loops += 1;
      } else if (frontier == 0) {
        replay.empty_heads += 1;
      } else {
        replay.empty_tails += 1;
      }
    }
  }
  return lanes;
}

TEST(StreamParallel, ChunkedBatchesMatchStandaloneReplay) {
  const TemporalGraph graph = test_graph();
  StreamOptions options;
  options.windows = {kWindow / 2, kWindow};
  options.prune_frontier_threshold = 4;  // exercise both prune branches
  for (const std::size_t hot : {std::size_t{0}, std::size_t{8}, SIZE_MAX}) {
    options.hot_frontier_threshold = hot;
    const std::vector<LaneReplay> reference = standalone_replay(graph, options);
    ASSERT_GT(reference[0].cycles, 0u);
    for (const std::size_t batch : {1, 7, 64, 256, 300}) {
      for (const unsigned threads : {1u, 2u, 4u}) {
        for (const SpawnPolicy policy :
             {SpawnPolicy::kAdaptive, SpawnPolicy::kAlways}) {
          SCOPED_TRACE(::testing::Message()
                       << "hot " << hot << " batch " << batch << " threads "
                       << threads << " policy " << static_cast<int>(policy));
          options.batch_size = batch;
          options.spawn_policy = policy;
          const StreamStats run = replay_with(graph, threads, options);
          ASSERT_EQ(run.per_window.size(), reference.size());
          for (std::size_t lane = 0; lane < reference.size(); ++lane) {
            const StreamWindowStats& got = run.per_window[lane];
            const LaneReplay& want = reference[lane];
            EXPECT_EQ(got.cycles_found, want.cycles);
            EXPECT_EQ(got.work.edges_visited, want.work.edges_visited);
            EXPECT_EQ(got.work.vertices_visited, want.work.vertices_visited);
            EXPECT_EQ(got.work.searches_truncated,
                      want.work.searches_truncated);
            EXPECT_EQ(got.escalated_edges, want.hot);
          }
          // One latency sample per edge-lane, searched or skipped.
          EXPECT_EQ(run.latency.count(),
                    run.edges_ingested * reference.size());
        }
      }
    }
  }
}

// A triangle within one window of the Timestamp minimum: the expiry cutoff
// and the search bounds clamp at the minimum instead of wrapping around, so
// the engine closes the one cycle, exactly as the standalone replay does.
// An edge at the minimum itself settles: nothing lies strictly before it.
TEST(StreamParallel, WindowNearTimestampMinimumClosesTheTriangle) {
  constexpr Timestamp kMin = std::numeric_limits<Timestamp>::min();
  const TemporalGraph graph(
      4, {{3, 0, kMin}, {0, 1, kMin + 1}, {1, 2, kMin + 2}, {2, 0, kMin + 3}});
  StreamOptions options;
  options.windows = {100};
  const std::vector<LaneReplay> reference = standalone_replay(graph, options);
  ASSERT_EQ(reference[0].cycles, 1u);
  for (const unsigned threads : {1u, 2u}) {
    SCOPED_TRACE(threads);
    const StreamStats run = replay_with(graph, threads, options);
    EXPECT_EQ(run.cycles_found, 1u);
    EXPECT_EQ(run.expired_edges, 0u);
    ASSERT_EQ(run.per_window.size(), 1u);
    EXPECT_EQ(run.per_window[0].cycles_found, reference[0].cycles);
    EXPECT_EQ(run.per_window[0].work.edges_visited,
              reference[0].work.edges_visited);
  }
}

// The test graph with a self-loop spliced in after every 23rd edge, so the
// edge-lanes of a replay mix self-loops, empty heads, empty tails and real
// searches.
TemporalGraph mixed_feed() {
  const TemporalGraph base = test_graph();
  std::vector<TemporalEdge> edges;
  for (const TemporalEdge& e : base.edges_by_time()) {
    edges.push_back(e);
    if (edges.size() % 23 == 0) {
      edges.push_back({e.src, e.src, e.ts});
    }
  }
  return TemporalGraph(base.num_vertices(), std::move(edges));
}

// The latency contract: one histogram sample per edge-lane, where a lane
// that settles without a search records 0 ns and a lane that searches
// records the search's wall time. Bucket 0 therefore holds exactly the
// settled lanes, and the histogram sum is the time of the searches, which a
// traced run bounds by its edge spans (each covers all of its edge's lanes).
TEST(StreamParallel, LatencyHistogramTimesOnlyTheSearches) {
  const TemporalGraph graph = mixed_feed();
  StreamOptions options;
  options.windows = {kWindow / 2, kWindow};
  options.batch_size = 64;
  options.hot_frontier_threshold = 8;
  const std::vector<LaneReplay> reference = standalone_replay(graph, options);
  for (const LaneReplay& want : reference) {
    ASSERT_GT(want.self_loops, 0u);
    ASSERT_GT(want.empty_heads, 0u);
    ASSERT_GT(want.empty_tails, 0u);
    ASSERT_GT(want.searched, 0u);
    ASSERT_GT(want.hot, 0u);
  }
  for (const unsigned threads : {1u, 4u}) {
    for (const bool traced : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "threads " << threads << " traced " << traced);
      TraceRecorder recorder(threads, 1u << 14);
      const StreamStats run =
          Scheduler::with_pool(threads, [&](Scheduler& sched) {
            if (traced) {
              sched.set_tracer(&recorder);
            }
            StreamEngine engine(options, sched, nullptr);
            for (const auto& e : graph.edges_by_time()) {
              engine.push(e.src, e.dst, e.ts);
            }
            engine.flush();
            return engine.stats();
          });
      ASSERT_EQ(run.edges_ingested, graph.num_edges());
      ASSERT_EQ(run.per_window.size(), reference.size());
      for (std::size_t lane = 0; lane < reference.size(); ++lane) {
        const StreamWindowStats& got = run.per_window[lane];
        const LaneReplay& want = reference[lane];
        EXPECT_EQ(got.cycles_found, want.cycles);
        EXPECT_EQ(got.work.edges_visited, want.work.edges_visited);
        EXPECT_EQ(got.escalated_edges, want.hot);
        EXPECT_EQ(got.latency.count(), run.edges_ingested);
        EXPECT_EQ(got.latency.buckets[0], want.settled());
        EXPECT_GE(got.latency.sum, want.searched);
      }
      EXPECT_EQ(run.latency.count(),
                run.edges_ingested * reference.size());
      if (traced) {
        std::uint64_t span_ns = 0;
        for (unsigned w = 0; w < threads; ++w) {
          ASSERT_EQ(recorder.dropped(w), 0u);
          for (const TraceEvent& event : recorder.events(w)) {
            if (event.name == TraceName::kEdgeSearch) {
              span_ns += event.dur_ns;
            }
          }
        }
        EXPECT_LE(run.latency.sum, span_ns);
      }
    }
  }
}

TEST(StreamParallel, BatchSpawnsAtMostChunksPerWorker) {
  const TemporalGraph graph = test_graph();
  for (const unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    Scheduler::with_pool(threads, [&](Scheduler& sched) {
      StreamOptions options;
      options.window = kWindow;
      options.batch_size = 64;
      options.hot_frontier_threshold = SIZE_MAX;  // no escalated spawns
      StreamEngine engine(options, sched, nullptr);
      sched.reset_stats();
      for (const auto& e : graph.edges_by_time()) {
        engine.push(e.src, e.dst, e.ts);
      }
      engine.flush();
      std::uint64_t spawned = 0;
      for (const WorkerStats& worker : sched.worker_stats()) {
        spawned += worker.tasks_spawned;
      }
      const std::uint64_t batches = engine.stats().batches;
      EXPECT_GT(spawned, 0u);
      EXPECT_LE(spawned,
                batches * StreamEngine::kSearchChunksPerWorker * threads);
    });
  }
}

TEST(StreamParallel, ReplayTotalsMatchBatchEnumerator) {
  const TemporalGraph graph = test_graph();
  const EnumResult batch = temporal_johnson_cycles(graph, kWindow);
  for (const unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    const StreamStats run = replay(graph, threads, 12, SpawnPolicy::kAdaptive);
    EXPECT_EQ(run.cycles_found, batch.num_cycles);
  }
}

TEST(StreamParallel, BackpressureBoundsPendingBuffer) {
  // The engine drains synchronously at batch_size: after any push, the
  // sliding graph has absorbed every edge except at most one partial batch.
  const TemporalGraph graph = test_graph();
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    StreamOptions options;
    options.window = kWindow;
    options.batch_size = 32;
    StreamEngine engine(options, sched, nullptr);
    std::uint64_t pushed = 0;
    for (const auto& e : graph.edges_by_time()) {
      engine.push(e.src, e.dst, e.ts);
      pushed += 1;
      const std::uint64_t buffered = pushed - engine.graph().total_ingested();
      EXPECT_LT(buffered, options.batch_size);
    }
    engine.flush();
    EXPECT_EQ(engine.graph().total_ingested(), pushed);
  });
}

TEST(StreamParallel, EngineRejectsOutOfOrderPush) {
  Scheduler::with_pool(1, [](Scheduler& sched) {
    StreamOptions options;
    options.window = 10;
    StreamEngine engine(options, sched, nullptr);
    engine.push(0, 1, 100);
    EXPECT_THROW(engine.push(1, 0, 99), std::invalid_argument);
    EXPECT_NO_THROW(engine.push(1, 0, 100));
    engine.flush();
  });
}

}  // namespace
}  // namespace parcycle
