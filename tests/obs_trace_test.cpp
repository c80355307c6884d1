// TraceRecorder + Chrome exporter: ring wraparound keeps the newest events,
// per-worker export order is monotonic, a disabled recorder records nothing
// and allocates nothing on the hot path, and the exporter emits valid JSON
// under real multi-threaded scheduler runs (1/2/4 workers). The suite carries
// the `parallel` label so the TSan job and the scheduler-stress loop cover
// the recorder's owner-writes/quiescent-reads contract.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace_export.hpp"
#include "obs_test_support.hpp"
#include "support/scheduler.hpp"

// Global allocation counter: proves the disabled-recorder hot path touches
// the allocator not at all (record_* must branch out before any push).
//
// GCC sometimes inlines the free-based replacement delete below and then
// pairs it against the *default* operator new signature, reporting a
// spurious mismatched-new-delete; the replacement new is malloc-based, so
// the new/free pairing is in fact correct.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc{};
}

// The nothrow variant must be replaced alongside the throwing one: libstdc++'s
// temporary buffers (std::stable_sort in the exporter) allocate through it but
// deallocate through plain operator delete, so a malloc-based delete paired
// with the default nothrow new is an alloc/dealloc mismatch under ASan.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace parcycle {
namespace {

TEST(TraceRecorder, RecordsSpansInstantsAndCounters) {
  TraceRecorder rec(2, 16, /*enabled=*/true);
  rec.record_span(0, TraceName::kTask, 100, 250, 7);
  rec.record_instant(1, TraceName::kSteal, 300, 0);
  rec.record_counter(0, TraceName::kLiveEdges, 400, 42);
  ASSERT_EQ(rec.recorded(0), 2u);
  ASSERT_EQ(rec.recorded(1), 1u);
  const auto w0 = rec.events(0);
  EXPECT_EQ(w0[0].type, TraceEventType::kSpan);
  EXPECT_EQ(w0[0].ts_ns, 100u);
  EXPECT_EQ(w0[0].dur_ns, 150u);
  EXPECT_EQ(w0[0].arg, 7u);
  EXPECT_EQ(w0[1].type, TraceEventType::kCounter);
  EXPECT_EQ(w0[1].arg, 42u);
  const auto w1 = rec.events(1);
  EXPECT_EQ(w1[0].type, TraceEventType::kInstant);
  EXPECT_EQ(w1[0].name, TraceName::kSteal);
}

TEST(TraceRecorder, WraparoundKeepsTheNewestEvents) {
  constexpr std::size_t kCapacity = 8;
  TraceRecorder rec(1, kCapacity, /*enabled=*/true);
  constexpr std::uint64_t kTotal = 20;
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    rec.record_span(0, TraceName::kTask, i * 10, i * 10 + 5, i);
  }
  EXPECT_EQ(rec.recorded(0), kTotal);
  EXPECT_EQ(rec.dropped(0), kTotal - kCapacity);
  const auto events = rec.events(0);
  ASSERT_EQ(events.size(), kCapacity);
  // The retained window is exactly the last kCapacity records, oldest first.
  for (std::size_t i = 0; i < kCapacity; ++i) {
    EXPECT_EQ(events[i].arg, kTotal - kCapacity + i) << "slot " << i;
  }
}

TEST(TraceRecorder, ExportedOrderIsMonotonicPerWorker) {
  TraceRecorder rec(1, 64, /*enabled=*/true);
  // Spans are recorded at END time, so a long-running span lands after
  // shorter ones it encloses; the exporter re-sorts by start.
  rec.record_span(0, TraceName::kTask, 50, 60);
  rec.record_span(0, TraceName::kWorkerBusy, 10, 100);
  rec.record_instant(0, TraceName::kSteal, 55);
  std::ostringstream out;
  write_chrome_trace(rec, out);
  const std::string json = out.str();
  // worker_busy (ts 10) must precede task (ts 50) and the instant (ts 55).
  const auto busy_pos = json.find("worker_busy");
  const auto task_pos = json.find("\"task\"");
  const auto steal_pos = json.find("\"steal\"");
  ASSERT_NE(busy_pos, std::string::npos);
  ASSERT_NE(task_pos, std::string::npos);
  ASSERT_NE(steal_pos, std::string::npos);
  EXPECT_LT(busy_pos, task_pos);
  EXPECT_LT(task_pos, steal_pos);
}

TEST(TraceRecorder, DisabledRecorderStaysEmptyAndAllocationFree) {
  TraceRecorder rec(2, 1024, /*enabled=*/false);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    rec.record_span(0, TraceName::kTask, i, i + 1);
    rec.record_instant(1, TraceName::kSteal, i);
    rec.record_counter(0, TraceName::kLiveEdges, i, i);
  }
  {
    // The RAII span helper must not even read the clock when disabled.
    TraceSpan span(&rec, 0, TraceName::kSearchRoot, 1);
  }
  TraceSpan null_span(nullptr, 0, TraceName::kSearchRoot);
  (void)null_span;
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(rec.recorded(0), 0u);
  EXPECT_EQ(rec.recorded(1), 0u);
  EXPECT_EQ(rec.dropped(0), 0u);
}

// The /tracez renderer, tested directly rather than through a live server:
// banner, per-worker retained/recorded/dropped line, one indented line per
// event with the right kind tag, and newest-N truncation from the front.
TEST(TraceRecorder, RenderTracezTextShowsNewestEventsPerWorker) {
  TraceRecorder rec(2, 16, /*enabled=*/true);
  rec.record_span(0, TraceName::kTask, 1000, 251000, 7);
  rec.record_instant(0, TraceName::kSteal, 300000, 0);
  rec.record_counter(1, TraceName::kLiveEdges, 400000, 42);
  const std::string text = render_tracez_text(rec, 32);
  EXPECT_NE(text.find("tracez: newest 32 events per worker "
                      "(recorder enabled)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("worker 0: retained=2 recorded=2 dropped=0"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("worker 1: retained=1 recorded=1 dropped=0"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("span    task ts_us=1.000 dur_us=250.000 arg=7"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("instant steal ts_us=300.000 arg=0"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("counter live_edges ts_us=400.000 value=42"),
            std::string::npos)
      << text;

  // last_n=1 keeps only the NEWEST event of worker 0: the steal instant
  // survives, the older task span is cut.
  const std::string tail = render_tracez_text(rec, 1);
  EXPECT_NE(tail.find("instant steal"), std::string::npos) << tail;
  EXPECT_EQ(tail.find("span    task"), std::string::npos) << tail;
  // Truncation is display-only: the counter line still reports both.
  EXPECT_NE(tail.find("worker 0: retained=2 recorded=2 dropped=0"),
            std::string::npos)
      << tail;

  // A disabled recorder renders honestly as empty, not as an error.
  TraceRecorder off(1, 16, /*enabled=*/false);
  const std::string disabled = render_tracez_text(off, 32);
  EXPECT_NE(disabled.find("(recorder disabled)"), std::string::npos)
      << disabled;
  EXPECT_NE(disabled.find("worker 0: retained=0 recorded=0 dropped=0"),
            std::string::npos)
      << disabled;
}

TEST(TraceRecorder, ClearResetsAllRings) {
  TraceRecorder rec(2, 8, /*enabled=*/true);
  for (int i = 0; i < 20; ++i) {
    rec.record_instant(0, TraceName::kSteal, i);
    rec.record_instant(1, TraceName::kSteal, i);
  }
  rec.clear();
  EXPECT_EQ(rec.recorded(0), 0u);
  EXPECT_EQ(rec.recorded(1), 0u);
  EXPECT_EQ(rec.dropped(1), 0u);
  EXPECT_TRUE(rec.events(0).empty());
}

// End-to-end: a real scheduler run under per-task timing fills the rings
// from multiple worker threads; the export after with_pool returns (pool
// joined) must be well-formed and contain task spans.
TEST(TraceRecorder, SchedulerRunsExportValidJsonAcrossThreadCounts) {
  for (const unsigned threads : {1u, 2u, 4u}) {
    TraceRecorder rec(threads, 4096, /*enabled=*/true);
    Scheduler::with_pool(
        threads, SchedulerOptions{.timing = TimingMode::kPerTask},
        [&](Scheduler& sched) {
          sched.set_tracer(&rec);
          std::atomic<int> counter{0};
          TaskGroup group(sched);
          for (int i = 0; i < 2000; ++i) {
            group.spawn([&counter] {
              counter.fetch_add(1, std::memory_order_relaxed);
            });
          }
          group.wait();
          ASSERT_EQ(counter.load(), 2000);
        });
    std::uint64_t total = 0;
    for (unsigned w = 0; w < threads; ++w) {
      total += rec.recorded(w);
    }
    EXPECT_GE(total, 2000u) << threads << " threads";
    std::ostringstream out;
    write_chrome_trace(rec, out);
    const std::string json = out.str();
    expect_balanced_json(json);
    EXPECT_NE(json.find("\"task\""), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
  }
}

// Tracing under the default transition timing: no per-task spans, but the
// busy intervals and steals recorded at transitions still land in the rings.
TEST(TraceRecorder, TransitionTimingRecordsBusySpans) {
  TraceRecorder rec(2, 4096, /*enabled=*/true);
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    sched.set_tracer(&rec);
    TaskGroup group(sched);
    std::atomic<int> counter{0};
    for (int i = 0; i < 500; ++i) {
      group.spawn([&counter] {
        counter.fetch_add(1, std::memory_order_relaxed);
      });
    }
    group.wait();
  });
  std::ostringstream out;
  write_chrome_trace(rec, out);
  EXPECT_NE(out.str().find("worker_busy"), std::string::npos);
}

}  // namespace
}  // namespace parcycle
