#include "support/scheduler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

namespace parcycle {
namespace {

TEST(Scheduler, SingleWorkerRunsTasks) {
  Scheduler sched(1);
  std::atomic<int> counter{0};
  TaskGroup group(sched);
  for (int i = 0; i < 100; ++i) {
    group.spawn([&counter] { counter.fetch_add(1); });
  }
  group.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(Scheduler, MultiWorkerRunsAllTasks) {
  Scheduler sched(4);
  std::atomic<int> counter{0};
  TaskGroup group(sched);
  for (int i = 0; i < 10000; ++i) {
    group.spawn([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  group.wait();
  EXPECT_EQ(counter.load(), 10000);
}

TEST(Scheduler, NestedSpawnsComplete) {
  Scheduler sched(4);
  std::atomic<int> counter{0};
  TaskGroup outer(sched);
  for (int i = 0; i < 32; ++i) {
    outer.spawn([&] {
      TaskGroup inner;
      for (int j = 0; j < 32; ++j) {
        inner.spawn([&] { counter.fetch_add(1, std::memory_order_relaxed); });
      }
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(counter.load(), 32 * 32);
}

// Recursive fork-join: computes Fibonacci via task recursion; exercises deep
// nesting, stealing, and wait-executes-tasks behaviour.
int fib_task(int n) {
  if (n < 2) {
    return n;
  }
  int left = 0;
  int right = 0;
  TaskGroup group;
  group.spawn([&left, n] { left = fib_task(n - 1); });
  group.spawn([&right, n] { right = fib_task(n - 2); });
  group.wait();
  return left + right;
}

TEST(Scheduler, RecursiveForkJoin) {
  Scheduler sched(4);
  TaskGroup group(sched);
  int result = 0;
  group.spawn([&result] { result = fib_task(18); });
  group.wait();
  EXPECT_EQ(result, 2584);
}

TEST(Scheduler, ParallelForEachIndexCoversRange) {
  Scheduler sched(3);
  std::vector<std::atomic<int>> hits(500);
  parallel_for_each_index(sched, 0, 500,
                          [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Scheduler, ParallelForChunkedCoversRange) {
  Scheduler sched(3);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for_chunked(sched, 0, 1000, 7,
                       [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// Worker i starts on the i-th allowed CPU, wrapping around a set smaller
// than the pool, in the set's own ids.
TEST(Scheduler, WorkerStartCpuWrapsAroundTheAllowedSet) {
  const std::vector<int> allowed = {2, 3, 5};
  EXPECT_EQ(detail::worker_start_cpu(allowed, 0), 2);
  EXPECT_EQ(detail::worker_start_cpu(allowed, 1), 3);
  EXPECT_EQ(detail::worker_start_cpu(allowed, 2), 5);
  EXPECT_EQ(detail::worker_start_cpu(allowed, 3), 2);
  EXPECT_EQ(detail::worker_start_cpu(allowed, 7), 3);
  EXPECT_EQ(detail::worker_start_cpu({0}, 5), 0);
  EXPECT_EQ(detail::worker_start_cpu({}, 1), -1);
}

TEST(Scheduler, ParallelForChunkedEmptyRange) {
  Scheduler sched(2);
  int calls = 0;
  parallel_for_chunked(sched, 5, 5, 4, [&](std::size_t) { calls += 1; });
  EXPECT_EQ(calls, 0);
}

TEST(Scheduler, ExceptionPropagatesToWait) {
  Scheduler sched(2);
  TaskGroup group(sched);
  group.spawn([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(group.wait(), std::runtime_error);
}

TEST(Scheduler, WorkerStatsAccountForAllTasks) {
  Scheduler sched(4);
  sched.reset_stats();
  TaskGroup group(sched);
  constexpr int kTasks = 2000;
  std::atomic<int> counter{0};
  for (int i = 0; i < kTasks; ++i) {
    group.spawn([&counter] {
      // A little work so busy_ns is non-trivial.
      volatile int x = 0;
      for (int j = 0; j < 100; ++j) {
        x = x + j;
      }
      counter.fetch_add(1, std::memory_order_relaxed);
    });
  }
  group.wait();
  EXPECT_EQ(counter.load(), kTasks);

  const auto stats = sched.worker_stats();
  ASSERT_EQ(stats.size(), 4u);
  std::uint64_t executed = 0;
  std::uint64_t spawned = 0;
  for (const auto& s : stats) {
    executed += s.tasks_executed;
    spawned += s.tasks_spawned;
  }
  EXPECT_EQ(executed, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(spawned, static_cast<std::uint64_t>(kTasks));
}

TEST(Scheduler, CurrentIsScopedToWorkers) {
  EXPECT_EQ(Scheduler::current(), nullptr);
  {
    Scheduler sched(2);
    EXPECT_EQ(Scheduler::current(), &sched);
    EXPECT_EQ(Scheduler::current_worker_id(), 0);
    TaskGroup group(sched);
    std::atomic<bool> saw_scheduler{false};
    group.spawn([&] {
      saw_scheduler.store(Scheduler::current() != nullptr &&
                          Scheduler::current_worker_id() >= 0);
    });
    group.wait();
    EXPECT_TRUE(saw_scheduler.load());
  }
  EXPECT_EQ(Scheduler::current(), nullptr);
}

TEST(Scheduler, WithPoolScopesTheSchedulerAndReturnsTheResult) {
  // Consecutive pools on one thread: the scoped helper makes the
  // one-scheduler-per-thread lifetime rule impossible to violate.
  for (const unsigned threads : {1u, 2u, 4u}) {
    const int result = Scheduler::with_pool(threads, [&](Scheduler& sched) {
      EXPECT_EQ(Scheduler::current(), &sched);
      EXPECT_EQ(sched.num_workers(), threads);
      std::atomic<int> counter{0};
      TaskGroup group(sched);
      for (int i = 0; i < 16; ++i) {
        group.spawn([&counter] { counter.fetch_add(1); });
      }
      group.wait();
      return counter.load();
    });
    EXPECT_EQ(result, 16);
    EXPECT_EQ(Scheduler::current(), nullptr);
  }
  // Void-returning bodies work too.
  Scheduler::with_pool(2, [](Scheduler& sched) { (void)sched; });
  EXPECT_EQ(Scheduler::current(), nullptr);
}

namespace {
void spin_for_a_while() {
  volatile int x = 0;
  for (int j = 0; j < 20000; ++j) {
    x = x + j;
  }
}

std::uint64_t total_busy_ns(const Scheduler& sched) {
  std::uint64_t total = 0;
  for (const auto& stats : sched.worker_stats()) {
    total += stats.busy_ns;
  }
  return total;
}
}  // namespace

TEST(Scheduler, TransitionTimingRecordsBusyTime) {
  // Default mode: no clock reads per task, but the busy intervals opened at
  // find/idle transitions still cover the task bodies.
  Scheduler sched(2);
  TaskGroup group(sched);
  for (int i = 0; i < 64; ++i) {
    group.spawn(spin_for_a_while);
  }
  group.wait();
  EXPECT_GT(total_busy_ns(sched), 0u);
}

TEST(Scheduler, TransitionTimingCountsWorkAfterNestedWait) {
  // The fine-grained enumerators wait at every recursion level and then do
  // real work after the wait (e.g. Johnson's exit critical section). A
  // nested wait must not close the busy interval: only the outermost wait
  // returns to sequential code.
  Scheduler sched(1);
  constexpr auto kPostWaitWork = std::chrono::milliseconds(20);
  TaskGroup outer(sched);
  outer.spawn([&sched, kPostWaitWork] {
    TaskGroup inner(sched);
    inner.spawn([] {});
    inner.wait();
    std::this_thread::sleep_for(kPostWaitWork);  // post-wait task time
  });
  outer.wait();
  const auto busy = std::chrono::nanoseconds(total_busy_ns(sched));
  EXPECT_GE(busy, kPostWaitWork / 2);
}

TEST(Scheduler, PerTaskTimingRecordsBusyTime) {
  Scheduler sched(2, SchedulerOptions{.timing = TimingMode::kPerTask});
  TaskGroup group(sched);
  for (int i = 0; i < 64; ++i) {
    group.spawn(spin_for_a_while);
  }
  group.wait();
  EXPECT_GT(total_busy_ns(sched), 0u);
}

TEST(Scheduler, SmallClosuresTakeTheSlabPath) {
  static_assert(spawn_uses_slab_v<decltype([] {})>);
  Scheduler sched(2);
  std::atomic<int> counter{0};
  TaskGroup group(sched);
  for (int i = 0; i < 1000; ++i) {
    group.spawn([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  group.wait();
  EXPECT_EQ(counter.load(), 1000);
  std::uint64_t heap_tasks = 0;
  for (const auto& stats : sched.worker_stats()) {
    heap_tasks += stats.tasks_heap_allocated;
  }
  EXPECT_EQ(heap_tasks, 0u);
}

TEST(Scheduler, OversizedClosuresFallBackToTheHeap) {
  struct BigCapture {
    std::array<std::byte, 2 * kTaskSlabBlockSize> payload{};
  };
  Scheduler sched(2);
  std::atomic<int> counter{0};
  TaskGroup group(sched);
  constexpr int kTasks = 16;
  for (int i = 0; i < kTasks; ++i) {
    BigCapture big;
    big.payload[0] = std::byte{42};
    auto closure = [big, &counter] {
      counter.fetch_add(static_cast<int>(big.payload[0]),
                        std::memory_order_relaxed);
    };
    static_assert(!spawn_uses_slab_v<decltype(closure)>);
    group.spawn(std::move(closure));
  }
  group.wait();
  EXPECT_EQ(counter.load(), 42 * kTasks);
  std::uint64_t heap_tasks = 0;
  for (const auto& stats : sched.worker_stats()) {
    heap_tasks += stats.tasks_heap_allocated;
  }
  EXPECT_EQ(heap_tasks, static_cast<std::uint64_t>(kTasks));
}

TEST(Scheduler, ThrowingClosureMoveLeaksNoSlabBlock) {
  struct ThrowOnMove {
    ThrowOnMove() = default;
    ThrowOnMove(const ThrowOnMove&) = default;
    ThrowOnMove(ThrowOnMove&&) { throw std::runtime_error("move failed"); }
    void operator()() const {}
  };
  Scheduler sched(1);
  TaskGroup group(sched);
  EXPECT_THROW(group.spawn(ThrowOnMove{}), std::runtime_error);
  // The failed spawn left no pending count behind...
  EXPECT_TRUE(group.done());
  group.wait();
  // ...and its slab block went straight back to the freelist.
  const auto slabs = sched.slab_stats();
  EXPECT_EQ(slabs[0].acquires, 1u);
  EXPECT_EQ(slabs[0].local_releases, 1u);
  // The block is reusable: a healthy spawn takes it again without growth.
  TaskGroup group2(sched);
  group2.spawn([] {});
  group2.wait();
  EXPECT_EQ(sched.slab_stats()[0].chunks_allocated, 1u);
}

TEST(Scheduler, SlabCanBeDisabledForComparison) {
  Scheduler sched(2, SchedulerOptions{.use_task_slab = false});
  std::atomic<int> counter{0};
  TaskGroup group(sched);
  for (int i = 0; i < 100; ++i) {
    group.spawn([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  group.wait();
  EXPECT_EQ(counter.load(), 100);
  std::uint64_t heap_tasks = 0;
  std::uint64_t slab_acquires = 0;
  for (const auto& stats : sched.worker_stats()) {
    heap_tasks += stats.tasks_heap_allocated;
  }
  for (const auto& stats : sched.slab_stats()) {
    slab_acquires += stats.acquires;
  }
  EXPECT_EQ(heap_tasks, 100u);
  EXPECT_EQ(slab_acquires, 0u);
}

TEST(Scheduler, ResetStatsZeroesCountersBetweenPhases) {
  // Per-phase measurement pattern: run, read, reset, run again — the second
  // read must only cover the second phase. Slab stats are deliberately NOT
  // reset: chunks_allocated tracks live memory, not per-phase work.
  Scheduler sched(4, SchedulerOptions{.timing = TimingMode::kPerTask});
  static constexpr int kTasks = 500;
  const auto run_phase = [&sched] {
    std::atomic<int> counter{0};
    TaskGroup group(sched);
    for (int i = 0; i < kTasks; ++i) {
      group.spawn([&counter] {
        counter.fetch_add(1, std::memory_order_relaxed);
      });
    }
    group.wait();
    ASSERT_EQ(counter.load(), kTasks);
  };
  const auto totals = [&sched] {
    std::uint64_t executed = 0;
    std::uint64_t spawned = 0;
    std::uint64_t busy = 0;
    for (const auto& s : sched.worker_stats()) {
      executed += s.tasks_executed;
      spawned += s.tasks_spawned;
      busy += s.busy_ns;
    }
    return std::tuple{executed, spawned, busy};
  };

  run_phase();
  auto [executed1, spawned1, busy1] = totals();
  EXPECT_EQ(executed1, static_cast<std::uint64_t>(kTasks));
  EXPECT_GT(busy1, 0u);
  std::uint64_t hist_count1 = 0;
  for (const auto& hist : sched.task_latency_histograms()) {
    hist_count1 += hist.count();
  }
  EXPECT_EQ(hist_count1, static_cast<std::uint64_t>(kTasks));
  const auto slabs_before = sched.slab_stats();

  sched.reset_stats();
  auto [executed0, spawned0, busy0] = totals();
  EXPECT_EQ(executed0, 0u);
  EXPECT_EQ(spawned0, 0u);
  EXPECT_EQ(busy0, 0u);
  for (const auto& hist : sched.task_latency_histograms()) {
    EXPECT_TRUE(hist.empty());
  }
  // Slab accounting survives the reset.
  const auto slabs_after = sched.slab_stats();
  ASSERT_EQ(slabs_after.size(), slabs_before.size());
  for (std::size_t w = 0; w < slabs_after.size(); ++w) {
    EXPECT_EQ(slabs_after[w].acquires, slabs_before[w].acquires);
    EXPECT_EQ(slabs_after[w].chunks_allocated,
              slabs_before[w].chunks_allocated);
  }

  // The second phase counts only itself.
  run_phase();
  auto [executed2, spawned2, busy2] = totals();
  EXPECT_EQ(executed2, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(spawned2, static_cast<std::uint64_t>(kTasks));
  EXPECT_GT(busy2, 0u);
}

// The thread_observer contract the profiler and perf-counter groups build
// on: on_worker_start runs exactly once per worker id, ON that worker's own
// thread, before any task; on_worker_stop runs once per worker at teardown.
constexpr unsigned kObserverWorkers = 4;

TEST(Scheduler, ThreadObserverSeesEveryWorkerOnItsOwnThread) {
  struct Recorder final : WorkerThreadObserver {
    std::array<std::atomic<int>, kObserverWorkers> starts{};
    std::array<std::atomic<int>, kObserverWorkers> stops{};
    std::array<std::thread::id, kObserverWorkers> start_threads{};
    void on_worker_start(unsigned worker) noexcept override {
      ASSERT_LT(worker, kObserverWorkers);
      start_threads[worker] = std::this_thread::get_id();
      starts[worker].fetch_add(1, std::memory_order_relaxed);
    }
    void on_worker_stop(unsigned worker) noexcept override {
      ASSERT_LT(worker, kObserverWorkers);
      // Detach runs on the same thread that attached.
      EXPECT_EQ(std::this_thread::get_id(), start_threads[worker]);
      stops[worker].fetch_add(1, std::memory_order_relaxed);
    }
  } recorder;
  constexpr unsigned kWorkers = kObserverWorkers;

  SchedulerOptions options;
  options.thread_observer = &recorder;
  {
    Scheduler sched(kWorkers, options);
    TaskGroup group(sched);
    std::atomic<int> counter{0};
    for (int i = 0; i < 1000; ++i) {
      group.spawn([&counter] {
        counter.fetch_add(1, std::memory_order_relaxed);
      });
    }
    group.wait();
    EXPECT_EQ(counter.load(), 1000);
    // Worker 0 is the constructing thread: its attach ran synchronously in
    // the Scheduler constructor. Workers 1..N-1 attach on their own threads
    // as they come up (a fast pool can drain the group before a slow thread
    // launches, so their attach is only guaranteed by teardown). No stop
    // hook fires while the pool is live.
    EXPECT_EQ(recorder.starts[0].load(), 1);
    EXPECT_EQ(recorder.start_threads[0], std::this_thread::get_id());
    for (unsigned w = 0; w < kWorkers; ++w) {
      EXPECT_LE(recorder.starts[w].load(), 1) << "worker " << w;
      EXPECT_EQ(recorder.stops[w].load(), 0) << "worker " << w;
    }
  }
  // Teardown joined every worker: each attached exactly once, detached
  // exactly once, and workers 1..N-1 ran on distinct non-main threads.
  for (unsigned w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(recorder.starts[w].load(), 1) << "worker " << w;
    EXPECT_EQ(recorder.stops[w].load(), 1) << "worker " << w;
  }
  for (unsigned a = 1; a < kWorkers; ++a) {
    EXPECT_NE(recorder.start_threads[a], std::this_thread::get_id());
    for (unsigned b = a + 1; b < kWorkers; ++b) {
      EXPECT_NE(recorder.start_threads[a], recorder.start_threads[b]);
    }
  }
}

// The chain fans one observer slot out to several; stops run in reverse
// registration order so dependent observers unwind LIFO.
TEST(Scheduler, ObserverChainForwardsStartsAndReversesStops) {
  struct Logger final : WorkerThreadObserver {
    explicit Logger(std::vector<int>& log, int id) : log_(log), id_(id) {}
    void on_worker_start(unsigned) noexcept override { log_.push_back(id_); }
    void on_worker_stop(unsigned) noexcept override { log_.push_back(-id_); }
    std::vector<int>& log_;
    int id_;
  };
  std::vector<int> log;
  Logger first(log, 1);
  Logger second(log, 2);
  WorkerObserverChain chain;
  chain.add(&first);
  chain.add(&second);
  chain.add(nullptr);  // ignored, not a crash
  chain.on_worker_start(0);
  chain.on_worker_stop(0);
  EXPECT_EQ(log, (std::vector<int>{1, 2, -2, -1}));
}

TEST(Scheduler, ManySmallGroupsSequentially) {
  Scheduler sched(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> counter{0};
    TaskGroup group(sched);
    for (int i = 0; i < 10; ++i) {
      group.spawn([&counter] { counter.fetch_add(1); });
    }
    group.wait();
    ASSERT_EQ(counter.load(), 10) << "round " << round;
  }
}

}  // namespace
}  // namespace parcycle
