// Work-stealing task scheduler.
//
// This is the library's substitute for the TBB runtime the paper builds on:
// every worker owns a Chase-Lev deque; a worker executes its own tasks in
// LIFO order (preserving the depth-first order of the recursion tree it is
// unfolding, which is what lets the fine-grained Johnson algorithm keep the
// serial pruning discipline on the non-stolen part of the tree) and steals
// from the FIFO end of a random victim when idle.
//
// The thread that constructs the Scheduler becomes worker 0 and participates
// in task execution whenever it calls TaskGroup::wait(). TaskGroup::wait()
// never blocks the thread: it keeps executing pending tasks (its own first,
// stolen ones otherwise) until every task spawned into the group has
// completed, exactly like tbb::task_group::wait().
//
// The spawn/execute hot path is allocation-free in steady state: task objects
// live in per-worker TaskSlab blocks (task_slab.hpp), recycled via the owning
// worker's freelist and an MPSC return list for cross-worker frees. Closures
// too large for a slab block fall back to operator new (counted in
// WorkerStats::tasks_heap_allocated); the fine-grained enumerators
// static_assert spawn_uses_slab_v for their task types so that fallback can
// never silently reappear on the paths the paper measures.
#pragma once

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"
#include "support/chase_lev_deque.hpp"
#include "support/spinlock.hpp"
#include "support/task_slab.hpp"

namespace parcycle {

class Scheduler;
class TaskGroup;
class TraceRecorder;

namespace detail {

struct TaskBase {
  virtual ~TaskBase() = default;
  virtual void run() = 0;

  TaskGroup* group = nullptr;
  // Worker that spawned the task; compared against the executing worker to
  // detect steals (the algorithms' copy-on-steal hook) and to return slab
  // blocks to the slab that issued them.
  std::uint32_t creator_worker = 0;
  // Allocated from the creator's TaskSlab (the steady-state path) rather
  // than the heap (oversized closures, or SchedulerOptions::use_task_slab
  // disabled for A/B measurement).
  bool from_slab = false;
};

template <typename F>
struct ClosureTask final : TaskBase {
  explicit ClosureTask(F&& f) : fn(std::move(f)) {}
  void run() override { fn(); }
  F fn;
};

// The CPU worker `worker` starts on: the worker-th of the process's allowed
// CPUs (`allowed`, ascending), counted modulo their number; -1 when none is
// listed. A new thread otherwise starts on its creator's CPU, and the
// kernel can take a second or more to spread a fresh pool.
inline int worker_start_cpu(const std::vector<int>& allowed, unsigned worker) {
  return allowed.empty() ? -1 : allowed[worker % allowed.size()];
}

template <typename T>
inline constexpr bool task_fits_slab_v =
    sizeof(T) <= kTaskSlabBlockSize && alignof(T) <= kTaskSlabBlockAlign;

}  // namespace detail

// True when spawning a closure of type F takes the zero-allocation slab path.
// The fine-grained enumerators static_assert this for their task types: a
// task outgrowing the slab block is a perf bug that should fail the build,
// not silently fall back to operator new.
template <typename F>
inline constexpr bool spawn_uses_slab_v =
    detail::task_fits_slab_v<detail::ClosureTask<std::decay_t<F>>>;

// Worker-thread registry hook: the scheduler calls on_worker_start on each
// worker's OWN thread once it is registered (worker 0 = the constructing
// thread, inside the constructor; workers 1..N-1 at the top of their thread
// main), and on_worker_stop on the same thread just before it leaves the
// pool (thread exit for spawned workers, the destructor for worker 0).
// This is the attach point for per-thread OS resources — the sampling
// profiler's per-thread timers and the perf_event counter groups
// (obs/profiler.hpp, obs/perf_counters.hpp) — which must be created and
// torn down from the thread they measure. Hooks run outside the task hot
// path (once per thread lifetime) and must not throw.
class WorkerThreadObserver {
 public:
  virtual ~WorkerThreadObserver() = default;
  virtual void on_worker_start(unsigned worker) noexcept = 0;
  virtual void on_worker_stop(unsigned worker) noexcept = 0;
};

// Fans one observer slot out to several (profiler + counters). Stops run in
// reverse registration order. Populate before constructing the Scheduler.
class WorkerObserverChain final : public WorkerThreadObserver {
 public:
  void add(WorkerThreadObserver* observer) {
    if (observer != nullptr) {
      observers_.push_back(observer);
    }
  }
  void on_worker_start(unsigned worker) noexcept override {
    for (WorkerThreadObserver* observer : observers_) {
      observer->on_worker_start(worker);
    }
  }
  void on_worker_stop(unsigned worker) noexcept override {
    for (auto it = observers_.rbegin(); it != observers_.rend(); ++it) {
      (*it)->on_worker_stop(worker);
    }
  }

 private:
  std::vector<WorkerThreadObserver*> observers_;
};

// How WorkerStats::busy_ns is accounted.
enum class TimingMode : std::uint8_t {
  // Timestamp only when a worker transitions between finding work and going
  // idle. Zero clock reads per task: an enumeration spawning millions of
  // fine-grained tasks pays a handful of clock syscalls per worker. busy_ns
  // then includes the scheduling gaps between back-to-back tasks, which is
  // the per-thread utilisation bench_fig1_load_balance plots.
  kTransitions,
  // Two steady_clock reads around every task body: exact per-task busy time,
  // at per-task cost (the pre-slab scheduler's behaviour).
  kPerTask,
  // No busy-time accounting at all; busy_ns stays 0.
  kOff,
};

struct SchedulerOptions {
  TimingMode timing = TimingMode::kTransitions;
  // Allocate task objects from per-worker slabs. Disabling falls back to
  // operator new/delete per task — only useful for measuring the slab's
  // effect (bench_micro spawn-throughput) and as a bisection escape hatch.
  bool use_task_slab = true;
  // Per-thread attach/detach hook (see WorkerThreadObserver above). Must
  // outlive the Scheduler. nullptr (the default) costs nothing anywhere.
  WorkerThreadObserver* thread_observer = nullptr;
};

// Per-worker execution statistics; used by the Figure 1 reproduction
// (per-thread busy time) and by scheduler tests.
struct WorkerStats {
  std::uint64_t tasks_executed = 0;
  std::uint64_t tasks_spawned = 0;
  std::uint64_t tasks_stolen = 0;  // tasks acquired from another worker's deque
  std::uint64_t busy_ns = 0;       // wall time spent executing (see TimingMode)
  std::uint64_t tasks_heap_allocated = 0;  // spawns that bypassed the slab
};

class Scheduler {
 public:
  // Spawns `num_threads - 1` additional worker threads; the calling thread is
  // registered as worker 0. Only one Scheduler may be active per thread.
  explicit Scheduler(unsigned num_threads, SchedulerOptions options = {});
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  unsigned num_workers() const noexcept { return num_workers_; }

  // Scheduler active on the calling thread, or nullptr.
  static Scheduler* current() noexcept;
  // Worker index of the calling thread within its scheduler, or -1.
  static int current_worker_id() noexcept;

  // Scoped run: constructs a Scheduler with `num_threads` workers, invokes
  // fn(sched), and tears the pool down before returning fn's result. Only one
  // Scheduler may be active per thread (the constructor asserts), so prefer
  // this helper to a named local wherever consecutive pools are needed —
  // the lifetime mistake is then unrepresentable.
  template <typename Fn>
  static auto with_pool(unsigned num_threads, Fn&& fn) {
    Scheduler sched(num_threads);
    return std::forward<Fn>(fn)(sched);
  }

  // Options-carrying variant (e.g. TimingMode::kPerTask for per-task trace
  // spans without a long-lived named Scheduler).
  template <typename Fn>
  static auto with_pool(unsigned num_threads, SchedulerOptions options,
                        Fn&& fn) {
    Scheduler sched(num_threads, options);
    return std::forward<Fn>(fn)(sched);
  }

  // Attach/detach a span recorder (obs/trace.hpp). Busy intervals, steals,
  // and (under TimingMode::kPerTask) per-task spans land in the recorder's
  // per-worker rings, reusing the clock reads the timing mode already pays
  // for — attaching a tracer adds no extra clock reads in kTransitions mode.
  // The recorder must outlive the scheduler (the destructor records worker
  // 0's final busy span). nullptr detaches; a null tracer costs one
  // predictable branch per timing transition.
  void set_tracer(TraceRecorder* tracer) noexcept {
    tracer_.store(tracer, std::memory_order_release);
  }
  TraceRecorder* tracer() const noexcept {
    return tracer_.load(std::memory_order_acquire);
  }

  // Safe to call while workers are running: the task counters and busy time
  // are single-writer relaxed atomics, so a concurrent snapshot is internally
  // consistent per counter (point-in-time approximate across counters, exact
  // when quiescent). reset_stats() still requires quiescence.
  std::vector<WorkerStats> worker_stats() const;
  void reset_stats();

  // Per-worker per-task latency histograms; populated only under
  // TimingMode::kPerTask (transition timing never reads the clock per task).
  // Read while quiescent, like worker_stats().
  std::vector<Log2Histogram> task_latency_histograms() const;

  // Per-worker task-slab counters (read while quiescent, like worker_stats).
  std::vector<TaskSlabStats> slab_stats() const;

  // Approximate number of tasks waiting in the calling worker's deque. The
  // fine-grained algorithms use this for adaptive task granularity: spawning
  // is pointless when the deque already holds plenty of stealable work.
  std::int64_t local_queue_size() const noexcept;

 private:
  friend class TaskGroup;

  struct alignas(64) WorkerSlot {
    ChaseLevDeque<detail::TaskBase*> deque;
    TaskSlab slab;
    // Task counters are single-writer (the owning worker) relaxed atomics so
    // a live sampler (obs/timeseries.hpp) can snapshot them mid-run without
    // a data race. The owner increments with store(load+1, relaxed) — plain
    // register arithmetic, no lock prefix — so the hot path cost is
    // unchanged versus the previous plain fields.
    std::atomic<std::uint64_t> tasks_executed{0};
    std::atomic<std::uint64_t> tasks_spawned{0};
    std::atomic<std::uint64_t> tasks_stolen{0};
    std::atomic<std::uint64_t> tasks_heap_allocated{0};
    // Accumulated busy time: transition timing folds a busy interval in when
    // the worker goes idle, which can race a stats reader that returned from
    // wait() a moment earlier — merged into WorkerStats by worker_stats().
    std::atomic<std::uint64_t> busy_ns{0};
    std::uint64_t steal_seed = 0;
    // TimingMode::kTransitions bookkeeping: the open busy interval. Written
    // only by the owning worker; atomics (relaxed writes, release on the
    // open flag) let worker_stats() fold a still-open interval into its
    // snapshot instead of reporting a saturated worker as idle.
    std::atomic<std::uint64_t> busy_since_ns{0};
    std::atomic<bool> busy_open{false};
    // How deeply nested in task bodies this worker currently is (waits nest
    // inside tasks in the fine-grained enumerators; only the outermost wait
    // returns to sequential code). Worker-private.
    std::uint32_t task_depth = 0;
    // Per-task latencies under TimingMode::kPerTask. Worker-private.
    Log2Histogram task_hist;
  };

  void worker_main(unsigned worker_id);
  void execute(detail::TaskBase* task, unsigned worker_id);
  detail::TaskBase* find_task(unsigned worker_id);
  detail::TaskBase* steal_task(unsigned worker_id);
  void push_task(detail::TaskBase* task);
  void wake_workers();

  // Spawn-side slab hooks (called from TaskGroup::spawn on a worker thread).
  void* acquire_task_block();
  void release_unused_task_block(void* block);
  void note_heap_task();
  bool uses_slab() const noexcept { return options_.use_task_slab; }
  // Return a finished task's block to the slab that issued it.
  void release_task_block(void* block, std::uint32_t creator_worker,
                          unsigned executing_worker);

  // Transition-mode timing: open the busy interval on the first executed
  // task, close it when the worker runs out of work.
  void begin_busy(WorkerSlot& slot);
  void note_idle(unsigned worker_id);
  // Wait-exit hook: back inside a task body the interval resumes; back in
  // sequential caller code it closes.
  void end_wait(unsigned worker_id);

  unsigned num_workers_;
  SchedulerOptions options_;
  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  std::vector<std::thread> threads_;

  std::atomic<TraceRecorder*> tracer_{nullptr};
  std::atomic<bool> shutdown_{false};
  std::atomic<int> num_sleepers_{0};
  std::atomic<std::uint64_t> wake_epoch_{0};
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
};

// A group of tasks that can be waited on. Groups may nest arbitrarily (each
// recursive call of the fine-grained algorithms owns one).
class TaskGroup {
 public:
  // Binds to the scheduler active on this thread.
  TaskGroup();
  explicit TaskGroup(Scheduler& sched) : sched_(sched) {}
  // A spawn loop can unwind with tasks already in flight (an allocation
  // failure mid-fan-out, for instance), so the destructor drains the group
  // instead of asserting quiescence: unwinding must never abandon live
  // tasks that still point at this group. Task exceptions raised during the
  // drain are swallowed — the destructor context has nowhere to rethrow.
  ~TaskGroup() {
    while (pending_.load(std::memory_order_acquire) > 0) {
      try {
        wait();
      } catch (...) {
      }
    }
  }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  // Spawns fn as an independently schedulable task. Must be called from a
  // worker thread of the bound scheduler. Steady state allocates nothing:
  // the task object is placement-constructed in a block from the calling
  // worker's slab and the block is recycled when the task finishes.
  template <typename F>
  void spawn(F&& fn) {
    using Task = detail::ClosureTask<std::decay_t<F>>;
    pending_.fetch_add(1, std::memory_order_acq_rel);
    Task* task;
    try {
      if constexpr (detail::task_fits_slab_v<Task>) {
        if (sched_.uses_slab()) {
          void* block = sched_.acquire_task_block();
          try {
            task = new (block) Task(std::forward<F>(fn));
          } catch (...) {
            // The closure's move/copy ctor threw: placement-delete is a
            // no-op, so hand the block back to the freelist ourselves.
            sched_.release_unused_task_block(block);
            throw;
          }
          task->from_slab = true;
        } else {
          task = new Task(std::forward<F>(fn));
          sched_.note_heap_task();
        }
      } else {
        task = new Task(std::forward<F>(fn));
        sched_.note_heap_task();
      }
    } catch (...) {
      pending_.fetch_sub(1, std::memory_order_acq_rel);
      throw;
    }
    task->group = this;
    task->creator_worker =
        static_cast<std::uint32_t>(Scheduler::current_worker_id());
    sched_.push_task(task);
  }

  // Executes pending work until every task spawned into this group (including
  // tasks spawned transitively into it) has finished. Re-throws the first
  // exception raised by any task in the group.
  void wait();

  bool done() const noexcept {
    return pending_.load(std::memory_order_acquire) == 0;
  }

 private:
  friend class Scheduler;

  void record_exception(std::exception_ptr eptr);

  Scheduler& sched_;
  std::atomic<std::int64_t> pending_{0};
  std::atomic<bool> has_exception_{false};
  Spinlock exception_lock_;
  std::exception_ptr exception_;
};

// Dynamic parallel for-each over [begin, end): one task per index, scheduled
// dynamically. This is exactly the coarse-grained parallelisation pattern of
// Section 4 of the paper when the indices are starting vertices/edges.
template <typename Fn>
void parallel_for_each_index(Scheduler& sched, std::size_t begin,
                             std::size_t end, Fn&& fn) {
  TaskGroup group(sched);
  for (std::size_t i = begin; i < end; ++i) {
    group.spawn([i, &fn] { fn(i); });
  }
  group.wait();
}

// Chunked variant for cheap loop bodies: splits the range into `chunks`
// contiguous blocks, one task per block.
template <typename Fn>
void parallel_for_chunked(Scheduler& sched, std::size_t begin, std::size_t end,
                          std::size_t num_chunks, Fn&& fn) {
  if (end <= begin) {
    return;
  }
  const std::size_t total = end - begin;
  num_chunks = std::max<std::size_t>(1, std::min(num_chunks, total));
  const std::size_t chunk = (total + num_chunks - 1) / num_chunks;
  TaskGroup group(sched);
  for (std::size_t lo = begin; lo < end; lo += chunk) {
    const std::size_t hi = std::min(end, lo + chunk);
    group.spawn([lo, hi, &fn] {
      for (std::size_t i = lo; i < hi; ++i) {
        fn(i);
      }
    });
  }
  group.wait();
}

}  // namespace parcycle
