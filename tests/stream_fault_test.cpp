// Robustness under injected faults: the deterministic FaultInjector itself,
// slab-allocation failure containment, sink isolation (throw / delay /
// quarantine), the overload ladder's climb-and-recover cycle, cooperative
// search budgets, and snapshot generation rotation with corrupt-latest
// fallback. Every test arms a seeded injector, so the whole suite is
// reproducible run-to-run and safe under --repeat until-fail stress.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cycle_types.hpp"
#include "graph/generators.hpp"
#include "obs/trace.hpp"
#include "robust/fault_injection.hpp"
#include "robust/sink_guard.hpp"
#include "robust/snapshot_rotation.hpp"
#include "stream/engine.hpp"
#include "stream/incremental.hpp"
#include "stream/sliding_window_graph.hpp"
#include "support/scheduler.hpp"
#include "support/scratch_pool.hpp"

namespace parcycle {
namespace {

TemporalGraph test_graph() {
  ScaleFreeTemporalParams params;
  params.num_vertices = 50;
  params.num_edges = 400;
  params.time_span = 1500;
  params.attachment = 0.8;
  params.burstiness = 0.5;
  params.allow_self_loops = true;
  params.seed = 23;
  return scale_free_temporal(params);
}

constexpr Timestamp kWindow = 150;

StreamOptions engine_options() {
  StreamOptions options;
  options.window = kWindow;
  options.batch_size = 32;
  options.hot_frontier_threshold = SIZE_MAX;  // serial searches by default
  return options;
}

// Installs the injector for the test's lifetime and guarantees uninstall on
// every exit path — a leaked global injector would poison later tests.
struct ScopedInjector {
  explicit ScopedInjector(std::uint64_t seed = 7) : injector(seed) {}
  ~ScopedInjector() { FaultInjector::install(nullptr); }

  void arm(FaultPoint point, FaultRule rule) {
    injector.arm(point, rule);
    FaultInjector::install(&injector);
  }
  bool arm_spec(const std::string& spec, std::string* error = nullptr) {
    const bool ok = injector.arm_from_spec(spec, error);
    if (ok) {
      FaultInjector::install(&injector);
    }
    return ok;
  }

  FaultInjector injector;
};

StreamStats run_clean_reference(const StreamOptions& options) {
  const TemporalGraph graph = test_graph();
  StreamStats stats;
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, nullptr);
    for (const auto& e : graph.edges_by_time()) {
      engine.push(e.src, e.dst, e.ts);
    }
    engine.flush();
    stats = engine.stats();
  });
  return stats;
}

// ---------------------------------------------------------------------------
// FaultInjector mechanics
// ---------------------------------------------------------------------------

TEST(FaultInjector, EveryAfterLimitArithmetic) {
  FaultInjector injector(1);
  FaultRule rule;
  rule.every = 2;
  rule.after = 3;
  rule.limit = 2;
  injector.arm(FaultPoint::kSinkThrow, rule);
  std::vector<std::size_t> fired_at;
  for (std::size_t hit = 0; hit < 12; ++hit) {
    if (injector.fire(FaultPoint::kSinkThrow)) {
      fired_at.push_back(hit);
    }
  }
  // Skip hits 0..2, then every 2nd, capped at 2 firings: hits 3 and 5.
  EXPECT_EQ(fired_at, (std::vector<std::size_t>{3, 5}));
  EXPECT_EQ(injector.hits(FaultPoint::kSinkThrow), 12u);
  EXPECT_EQ(injector.fired(FaultPoint::kSinkThrow), 2u);
  // Untouched points never fire and cost only their hit count.
  EXPECT_FALSE(injector.fire(FaultPoint::kSlabGrow));
}

TEST(FaultInjector, ParamIsDeliveredOnFiring) {
  FaultInjector injector(1);
  FaultRule rule;
  rule.every = 1;
  rule.param = 4242;
  injector.arm(FaultPoint::kSinkDelay, rule);
  std::uint64_t param = 0;
  ASSERT_TRUE(injector.fire(FaultPoint::kSinkDelay, &param));
  EXPECT_EQ(param, 4242u);
}

TEST(FaultInjector, ProbabilisticGateIsSeedDeterministic) {
  const auto fired_pattern = [](std::uint64_t seed) {
    FaultInjector injector(seed);
    FaultRule rule;
    rule.every = 1;
    rule.prob_mille = 500;
    injector.arm(FaultPoint::kFeedStall, rule);
    std::vector<bool> pattern;
    for (int i = 0; i < 200; ++i) {
      pattern.push_back(injector.fire(FaultPoint::kFeedStall));
    }
    return pattern;
  };
  const auto a = fired_pattern(99);
  const auto b = fired_pattern(99);
  EXPECT_EQ(a, b);  // same seed, same decisions — the chaos-CI contract
  const auto fired = static_cast<std::size_t>(
      std::count(a.begin(), a.end(), true));
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, a.size());
}

TEST(FaultInjector, SpecParsing) {
  FaultInjector injector(1);
  std::string error;
  ASSERT_TRUE(injector.arm_from_spec(
      "sink_throw:every=2,limit=3;slab_grow:after=1,every=1,param=9", &error))
      << error;
  std::vector<std::size_t> fired_at;
  for (std::size_t hit = 0; hit < 7; ++hit) {
    if (injector.fire(FaultPoint::kSinkThrow)) {
      fired_at.push_back(hit);
    }
  }
  EXPECT_EQ(fired_at, (std::vector<std::size_t>{0, 2, 4}));
  EXPECT_FALSE(injector.fire(FaultPoint::kSlabGrow));  // after=1 skips hit 0
  std::uint64_t param = 0;
  EXPECT_TRUE(injector.fire(FaultPoint::kSlabGrow, &param));
  EXPECT_EQ(param, 9u);

  EXPECT_FALSE(injector.arm_from_spec("no_such_point:every=1", &error));
  EXPECT_NE(error.find("no_such_point"), std::string::npos);
  EXPECT_FALSE(injector.arm_from_spec("sink_throw:bogus=1", &error));
  EXPECT_FALSE(injector.arm_from_spec("sink_throw", &error));
  EXPECT_FALSE(injector.arm_from_spec("sink_throw:every=x", &error));
}

// ---------------------------------------------------------------------------
// Slab allocation failure: one batch degrades, the engine stays live
// ---------------------------------------------------------------------------

TEST(StreamFault, SlabAllocFailureIsContained) {
  const StreamOptions options = engine_options();
  const StreamStats reference = run_clean_reference(options);
  ASSERT_GT(reference.cycles_found, 0u);

  ScopedInjector fault;
  FaultRule rule;
  rule.every = 1;
  rule.limit = 1;  // exactly one bad_alloc, at the very first slab growth
  fault.arm(FaultPoint::kSlabGrow, rule);

  const TemporalGraph graph = test_graph();
  StreamStats stats;
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, nullptr);
    for (const auto& e : graph.edges_by_time()) {
      engine.push(e.src, e.dst, e.ts);
    }
    engine.flush();
    stats = engine.stats();
  });
  // The first batch's fan-out died on the injected bad_alloc; the engine
  // caught it, counted it, and every later batch ran normally.
  EXPECT_EQ(stats.search_errors, 1u);
  EXPECT_EQ(stats.batches, reference.batches);
  EXPECT_EQ(stats.edges_ingested, reference.edges_ingested);
  EXPECT_LE(stats.cycles_found, reference.cycles_found);
  EXPECT_EQ(fault.injector.fired(FaultPoint::kSlabGrow), 1u);
}

// An unguarded sink that throws on the first cycle of more than one edge —
// the serial DFS is then mid-path, so the throwing search leaves its scratch
// dirty — and remembers that cycle's closing edge.
class ThrowOnceSink final : public CycleSink {
 public:
  void on_cycle(std::span<const VertexId>,
                std::span<const EdgeId> edges) override {
    if (edges.size() < 2 || thrown_.exchange(true)) {
      return;
    }
    closing_ = edges.back();
    throw std::runtime_error("sink failure");
  }
  EdgeId closing() const { return closing_; }

 private:
  std::atomic<bool> thrown_{false};
  EdgeId closing_ = kInvalidEdge;
};

// A small dense graph on which most edges close cycles, so a chunk that lost
// the edges after a failing one would lose cycles too.
TemporalGraph dense_graph() {
  ScaleFreeTemporalParams params;
  params.num_vertices = 20;
  params.num_edges = 300;
  params.time_span = 600;
  params.attachment = 0.8;
  params.burstiness = 0.5;
  params.allow_self_loops = true;
  params.seed = 23;
  return scale_free_temporal(params);
}

// (cycles found, edges ingested) after every push, then after the flush.
std::vector<std::pair<std::uint64_t, std::uint64_t>> replay_progress(
    const TemporalGraph& graph, const StreamOptions& options,
    unsigned threads, CycleSink* sink, StreamStats* stats) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> progress;
  Scheduler::with_pool(threads, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, sink);
    for (const auto& e : graph.edges_by_time()) {
      engine.push(e.src, e.dst, e.ts);
      progress.emplace_back(engine.cycles_found(),
                            engine.graph().total_ingested());
    }
    engine.flush();
    progress.emplace_back(engine.cycles_found(),
                          engine.graph().total_ingested());
    *stats = engine.stats();
  });
  return progress;
}

TEST(StreamFault, ThrowingSearchLosesOnlyItsOwnEdge) {
  StreamOptions options = engine_options();
  options.batch_size = 64;
  const TemporalGraph graph = dense_graph();
  for (const unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    StreamStats reference;
    const auto clean =
        replay_progress(graph, options, threads, nullptr, &reference);
    ThrowOnceSink sink;
    StreamStats stats;
    const auto faulty = replay_progress(graph, options, threads, &sink, &stats);
    const EdgeId failed = sink.closing();
    ASSERT_NE(failed, kInvalidEdge);

    // The cycles a standalone replay attributes to the failed edge.
    SlidingWindowGraph live(graph.num_vertices());
    StreamSearchScratch scratch;
    WorkCounters work;
    std::uint64_t lost = 0;
    for (TemporalEdge e : graph.edges_by_time()) {
      e.id = live.ingest(e.src, e.dst, e.ts);
      if (e.id == failed) {
        lost = cycles_closed_by_edge(live, e, kWindow, {}, scratch, work);
        break;
      }
    }
    ASSERT_GT(lost, 0u);

    EXPECT_EQ(stats.search_errors, 1u);
    EXPECT_EQ(stats.cycles_found, reference.cycles_found - lost);
    // Exact before the failed edge's batch and in every batch after it: no
    // other edge was lost and no dirty scratch was reused.
    ASSERT_EQ(faulty.size(), clean.size());
    for (std::size_t i = 0; i < clean.size(); ++i) {
      const bool after = faulty[i].second > failed;
      ASSERT_EQ(faulty[i].first + (after ? lost : 0), clean[i].first)
          << "after push " << i;
    }
  }
}

// Sleeps on every cycle, so a search lasts long enough for parked workers
// to wake and steal its branches.
class SlowSink final : public CycleSink {
 public:
  void on_cycle(std::span<const VertexId>, std::span<const EdgeId>) override {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
};

// Eight workers spawning every branch over the dense graph: thieves copy
// their creators' paths (state_copies > 0), and every edge still closes
// exactly the serial search's cycles. Whether a worker is awake to steal
// is up to the schedule, so the replay repeats, exact every time, until
// one copied a path.
TEST(StreamFault, StolenBranchesCopyPathsAndCountExactly) {
  const TemporalGraph graph = dense_graph();
  Scheduler::with_pool(8, [&](Scheduler& sched) {
    ParallelOptions popts;
    popts.spawn_policy = SpawnPolicy::kAlways;
    ScratchPool<StreamSearchScratch> pool(
        [] { return std::make_unique<StreamSearchScratch>(); });
    SlowSink sink;
    std::uint64_t copies = 0;
    for (int attempt = 0; attempt < 20 && copies == 0; ++attempt) {
      SlidingWindowGraph live(graph.num_vertices());
      StreamSearchScratch serial_scratch;
      StreamSearchScratch fine_scratch;
      WorkCounters serial_work;
      WorkCounters fine_work;
      for (TemporalEdge e : graph.edges_by_time()) {
        e.id = live.ingest(e.src, e.dst, e.ts);
        const std::uint64_t serial = cycles_closed_by_edge(
            live, e, kWindow, {}, serial_scratch, serial_work);
        const std::uint64_t fine = fine_cycles_closed_by_edge(
            live, e, kWindow, settle_edge_lane(live, e, kWindow), sched, {},
            popts, fine_scratch, pool, fine_work, &sink, nullptr);
        ASSERT_EQ(serial, fine) << "edge " << e.id;
      }
      ASSERT_GT(serial_work.cycles_found, 0u);
      ASSERT_EQ(fine_work.cycles_found, serial_work.cycles_found);
      ASSERT_EQ(fine_work.edges_visited, serial_work.edges_visited);
      copies = fine_work.state_copies;
    }
    EXPECT_GT(copies, 0u);
  });
}

// ---------------------------------------------------------------------------
// Sink isolation
// ---------------------------------------------------------------------------

TEST(StreamFault, ThrowingSinkIsQuarantinedWithoutLosingCycleTotals) {
  StreamOptions options = engine_options();
  const StreamStats reference = run_clean_reference(options);
  ASSERT_GT(reference.cycles_found, 4u);  // need cycles beyond the quarantine

  ScopedInjector fault;
  FaultRule rule;
  rule.every = 1;  // every delivery throws
  fault.arm(FaultPoint::kSinkThrow, rule);

  options.guard_sinks = true;
  options.sink_guard.quarantine_after = 4;
  const TemporalGraph graph = test_graph();
  CountingSink downstream;
  StreamStats stats;
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, &downstream);
    for (const auto& e : graph.edges_by_time()) {
      engine.push(e.src, e.dst, e.ts);
    }
    engine.flush();
    stats = engine.stats();
  });
  // Cycle accounting is search-side: a poisonous sink cannot dent it.
  EXPECT_EQ(stats.cycles_found, reference.cycles_found);
  EXPECT_EQ(downstream.count(), 0u);
  EXPECT_EQ(stats.sink_delivered, 0u);
  EXPECT_EQ(stats.sink_errors, 4u);  // exactly quarantine_after, then cut off
  EXPECT_EQ(stats.sink_quarantined, 1u);
  EXPECT_EQ(stats.sink_errors + stats.sink_dropped, stats.cycles_found);
}

TEST(StreamFault, SlowSinkNeverStallsTheEngine) {
  StreamOptions options = engine_options();
  const StreamStats reference = run_clean_reference(options);

  ScopedInjector fault;
  FaultRule rule;
  rule.every = 1;
  rule.param = 1000;  // 1ms per delivery vs a 100µs hand-off timeout
  fault.arm(FaultPoint::kSinkDelay, rule);

  options.guard_sinks = true;
  options.sink_guard.queue_capacity = 2;
  options.sink_guard.handoff_timeout_us = 100;
  const TemporalGraph graph = test_graph();
  CountingSink downstream;
  StreamStats stats;
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, &downstream);
    for (const auto& e : graph.edges_by_time()) {
      engine.push(e.src, e.dst, e.ts);
    }
    engine.flush();
    stats = engine.stats();
  });
  // Deliveries are best-effort (timeout drops are expected and counted); the
  // enumeration totals are not.
  EXPECT_EQ(stats.cycles_found, reference.cycles_found);
  EXPECT_EQ(stats.sink_quarantined, 0u);
  EXPECT_GT(stats.sink_delivered + stats.sink_dropped, 0u);
}

// ---------------------------------------------------------------------------
// Overload ladder
// ---------------------------------------------------------------------------

TEST(StreamFault, OverloadLadderClimbsShedsAndRecovers) {
  const TemporalGraph graph = test_graph();
  const auto edges = graph.edges_by_time();
  StreamOptions options = engine_options();
  options.batch_size = 64;
  options.overload_high_watermark = 8;  // a full batch = 8x the watermark

  // Declared before the pool: ring reads require a quiescent recorder, so the
  // kOverloadShift instants are only counted after with_pool joins the workers.
  TraceRecorder recorder(2);
  StreamStats stats;
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    sched.set_tracer(&recorder);
    StreamEngine engine(options, sched, nullptr);
    // Batch 1 fills and fires: occupancy 64 = 8x high -> the ladder jumps
    // straight to the top (clamped), but THIS batch still searches fully.
    for (std::size_t i = 0; i < 64; ++i) {
      engine.push(edges[i].src, edges[i].dst, edges[i].ts);
    }
    EXPECT_EQ(engine.overload_level(), OverloadLevel::kShed);
    EXPECT_EQ(engine.stats().edges_ingested, 64u);

    // While shedding, arrivals are dropped before they can buffer.
    for (std::size_t i = 64; i < 100; ++i) {
      engine.push(edges[i].src, edges[i].dst, edges[i].ts);
    }
    EXPECT_EQ(engine.stats().edges_shed, 36u);
    EXPECT_EQ(engine.stats().edges_ingested, 64u);

    // Hysteretic recovery: each calm (empty) flush counts toward the streak;
    // every kOverloadRecoverBatches consecutive calm batches step down one
    // rung. 4 rungs x 2 batches = 8 flushes back to normal.
    for (int i = 0; i < 8; ++i) {
      engine.flush();
    }
    EXPECT_EQ(engine.overload_level(), OverloadLevel::kNormal);

    // Recovered: the next batch ingests and searches again (and, at 8x the
    // watermark, deterministically re-climbs — the decision is pure).
    for (std::size_t i = 100; i < 164; ++i) {
      engine.push(edges[i].src, edges[i].dst, edges[i].ts);
    }
    stats = engine.stats();
  });
  EXPECT_EQ(stats.edges_ingested, 128u);
  EXPECT_EQ(stats.edges_shed, 36u);
  EXPECT_EQ(stats.work.edges_shed, 36u);  // mirrored for bench/CLI columns
  // Shifts: up(1) + four down-steps + up(1) again.
  EXPECT_EQ(stats.overload_shifts, 6u);
  EXPECT_EQ(stats.overload_level, OverloadLevel::kShed);

  // Every shift left a trace instant on some worker ring.
  std::uint64_t shift_events = 0;
  for (unsigned w = 0; w < recorder.num_workers(); ++w) {
    for (const TraceEvent& event : recorder.events(w)) {
      if (event.name == TraceName::kOverloadShift) {
        shift_events += 1;
      }
    }
  }
  EXPECT_EQ(shift_events, stats.overload_shifts);
}

// flush() releases the reorder buffer into batches; each batch must count
// only the edges still buffered, so a flush below the watermark stays calm.
TEST(StreamFault, FlushBelowTheWatermarkLeavesTheLadderNormal) {
  StreamOptions options = engine_options();
  options.batch_size = 256;
  options.reorder_slack = 10'000;
  options.overload_high_watermark = 1000;
  Scheduler::with_pool(1, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, nullptr);
    for (VertexId i = 0; i < 900; ++i) {
      engine.push(i % 50, (i * 7 + 1) % 50, i);
    }
    ASSERT_EQ(engine.stats().reorder_buffered, 900u);
    engine.flush();
    const StreamStats stats = engine.stats();
    EXPECT_EQ(stats.edges_ingested, 900u);
    EXPECT_EQ(stats.batches, 4u);
    EXPECT_EQ(stats.overload_level, OverloadLevel::kNormal);
    EXPECT_EQ(stats.overload_shifts, 0u);
  });
}

TEST(StreamFault, TightenedBudgetsTruncateSearches) {
  const TemporalGraph graph = test_graph();
  const auto edges = graph.edges_by_time();
  StreamOptions options = engine_options();
  options.batch_size = 64;
  // occupancy/high = 64/21 = 3 rungs: kTightenBudgets exactly, so the batch
  // runs with the degraded budget (and forced prune + serial).
  options.overload_high_watermark = 21;
  options.degraded_budget = SearchBudget{/*wall_ns=*/0, /*edge_visits=*/1};

  StreamStats stats;
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, nullptr);
    for (std::size_t i = 0; i < 64; ++i) {
      engine.push(edges[i].src, edges[i].dst, edges[i].ts);
    }
    stats = engine.stats();
  });
  EXPECT_EQ(stats.overload_level, OverloadLevel::kTightenBudgets);
  EXPECT_GT(stats.work.searches_truncated, 0u);
}

// ---------------------------------------------------------------------------
// Cooperative search budgets
// ---------------------------------------------------------------------------

TEST(StreamFault, SerialBudgetTruncationIsDeterministic) {
  StreamOptions options = engine_options();
  const StreamStats reference = run_clean_reference(options);
  ASSERT_GT(reference.cycles_found, 0u);

  options.search_budget = SearchBudget{/*wall_ns=*/0, /*edge_visits=*/5};
  const auto run_once = [&]() {
    const TemporalGraph graph = test_graph();
    StreamStats stats;
    Scheduler::with_pool(2, [&](Scheduler& sched) {
      StreamEngine engine(options, sched, nullptr);
      for (const auto& e : graph.edges_by_time()) {
        engine.push(e.src, e.dst, e.ts);
      }
      engine.flush();
      stats = engine.stats();
    });
    return stats;
  };
  const StreamStats a = run_once();
  const StreamStats b = run_once();
  // Edge-visit budgets in serial searches are schedule-independent: the
  // truncation points, and therefore every counter, replay exactly.
  EXPECT_GT(a.work.searches_truncated, 0u);
  EXPECT_EQ(a.work.searches_truncated, b.work.searches_truncated);
  EXPECT_EQ(a.cycles_found, b.cycles_found);
  EXPECT_EQ(a.work.edges_visited, b.work.edges_visited);
  // A truncated search is a lower bound, never an over-count.
  EXPECT_LE(a.cycles_found, reference.cycles_found);
}

TEST(StreamFault, FineGrainedBudgetTruncatesWithoutOvercounting) {
  StreamOptions options = engine_options();
  const StreamStats reference = run_clean_reference(options);

  options.hot_frontier_threshold = 0;  // escalate everything
  options.search_budget = SearchBudget{/*wall_ns=*/0, /*edge_visits=*/3};
  const TemporalGraph graph = test_graph();
  StreamStats stats;
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, nullptr);
    for (const auto& e : graph.edges_by_time()) {
      engine.push(e.src, e.dst, e.ts);
    }
    engine.flush();
    stats = engine.stats();
  });
  // The shared atomic budget makes WHICH branch gets cut schedule-dependent,
  // but the invariants are not: truncation happened, was counted, and the
  // partial result never exceeds the exact one.
  EXPECT_GT(stats.work.searches_truncated, 0u);
  EXPECT_LE(stats.cycles_found, reference.cycles_found);
}

// ---------------------------------------------------------------------------
// Snapshot rotation: corrupt-latest fallback, untouched-on-failure restore
// ---------------------------------------------------------------------------

std::string rotation_base() {
  return testing::TempDir() + "parcycle_fault_rotation_" +
         std::to_string(::getpid()) + ".snap";
}

void flip_byte(const std::string& path, std::size_t offset) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.is_open()) << path;
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.get(byte);
  file.seekp(static_cast<std::streamoff>(offset));
  file.put(static_cast<char>(byte ^ 0x40));
}

void cleanup_rotation(const std::string& base) {
  std::remove(base.c_str());
  std::remove((base + ".1").c_str());
  std::remove((base + ".2").c_str());
  std::remove((base + ".plain").c_str());
}

TEST(StreamFault, RotationFallsBackToPreviousGeneration) {
  const TemporalGraph graph = test_graph();
  const auto edges = graph.edges_by_time();
  const StreamOptions options = engine_options();
  const std::string base = rotation_base();
  cleanup_rotation(base);

  Scheduler::with_pool(1, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, nullptr);
    for (std::size_t i = 0; i < 100; ++i) {
      engine.push(edges[i].src, edges[i].dst, edges[i].ts);
    }
    const RotatedSnapshotInfo first = save_snapshot_rotated(engine, base);
    EXPECT_EQ(first.generation, 1);
    for (std::size_t i = 100; i < 200; ++i) {
      engine.push(edges[i].src, edges[i].dst, edges[i].ts);
    }
    const RotatedSnapshotInfo second = save_snapshot_rotated(engine, base);
    EXPECT_EQ(second.generation, 2);
  });

  // Corrupt the pointed-at (latest) generation: restore must fall back to
  // generation 1 and resume from the older cursor.
  flip_byte(base + ".2", 100);
  Scheduler::with_pool(1, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, nullptr);
    const RotatedSnapshotInfo restored = restore_snapshot_rotated(engine, base);
    EXPECT_EQ(restored.generation, 1);
    EXPECT_EQ(engine.edges_pushed(), 100u);
  });
  cleanup_rotation(base);
}

TEST(StreamFault, FailedRestoreLeavesTheEngineRetryable) {
  const TemporalGraph graph = test_graph();
  const auto edges = graph.edges_by_time();
  const StreamOptions options = engine_options();
  const std::string base = rotation_base() + ".retry";
  cleanup_rotation(base);

  Scheduler::with_pool(1, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, nullptr);
    for (std::size_t i = 0; i < 150; ++i) {
      engine.push(edges[i].src, edges[i].dst, edges[i].ts);
    }
    save_snapshot_rotated(engine, base);
    save_snapshot_rotated(engine, base);
    engine.save_snapshot_file(base + ".plain");
  });
  flip_byte(base + ".1", 80);
  flip_byte(base + ".2", 80);

  Scheduler::with_pool(1, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, nullptr);
    // Both generations corrupt: rotation fails after trying each...
    EXPECT_THROW(restore_snapshot_rotated(engine, base), std::runtime_error);
    // ...but restore is parse-then-commit, so the SAME engine is still fresh
    // and restores cleanly from an intact file.
    engine.restore_snapshot_file(base + ".plain");
    EXPECT_EQ(engine.edges_pushed(), 150u);
  });
  cleanup_rotation(base);
}

TEST(StreamFault, InjectedSnapshotCorruptionIsSurvivedByRotation) {
  const TemporalGraph graph = test_graph();
  const auto edges = graph.edges_by_time();
  const StreamOptions options = engine_options();
  const std::string base = rotation_base() + ".inject";
  cleanup_rotation(base);

  ScopedInjector fault;
  FaultRule rule;
  rule.every = 1;
  rule.after = 1;  // first save clean, second save corrupted as written
  rule.param = 64;
  fault.arm(FaultPoint::kSnapshotBitFlip, rule);

  Scheduler::with_pool(1, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, nullptr);
    for (std::size_t i = 0; i < 100; ++i) {
      engine.push(edges[i].src, edges[i].dst, edges[i].ts);
    }
    save_snapshot_rotated(engine, base);  // generation 1, intact
    for (std::size_t i = 100; i < 200; ++i) {
      engine.push(edges[i].src, edges[i].dst, edges[i].ts);
    }
    save_snapshot_rotated(engine, base);  // generation 2, bit-flipped
  });
  EXPECT_EQ(fault.injector.fired(FaultPoint::kSnapshotBitFlip), 1u);

  Scheduler::with_pool(1, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, nullptr);
    const RotatedSnapshotInfo restored = restore_snapshot_rotated(engine, base);
    EXPECT_EQ(restored.generation, 1);
    EXPECT_EQ(engine.edges_pushed(), 100u);
  });
  cleanup_rotation(base);
}

}  // namespace
}  // namespace parcycle
