#include "support/scheduler.hpp"

#include <chrono>

#include "obs/trace.hpp"
#include "support/prng.hpp"
#include "support/tsan.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace parcycle {

namespace {

thread_local Scheduler* tl_scheduler = nullptr;
thread_local int tl_worker_id = -1;

// Owner-only counter bump: the slot's counters are written by exactly one
// worker, so a relaxed load+store (no read-modify-write, no lock prefix)
// keeps the hot path identical to the plain-field code while letting a live
// sampler read the counter concurrently without a data race.
inline void bump(std::atomic<std::uint64_t>& counter) noexcept {
  counter.store(counter.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Moves the calling worker thread to its own CPU (detail::worker_start_cpu),
// then gives it back the process's whole CPU set, so that the pool runs in
// parallel from its first task and the kernel still balances it later.
// Best effort: a failed call leaves the thread where it is.
void start_on_own_cpu(unsigned worker_id) {
#if defined(__linux__)
  cpu_set_t all;
  CPU_ZERO(&all);
  if (sched_getaffinity(0, sizeof(all), &all) != 0) {
    return;
  }
  std::vector<int> allowed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &all)) {
      allowed.push_back(cpu);
    }
  }
  const int cpu = detail::worker_start_cpu(allowed, worker_id);
  if (cpu < 0) {
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) == 0) {
    (void)sched_setaffinity(0, sizeof(all), &all);
  }
#else
  (void)worker_id;
#endif
}

}  // namespace

Scheduler* Scheduler::current() noexcept { return tl_scheduler; }

int Scheduler::current_worker_id() noexcept { return tl_worker_id; }

Scheduler::Scheduler(unsigned num_threads, SchedulerOptions options)
    : num_workers_(num_threads == 0 ? 1 : num_threads), options_(options) {
  assert(tl_scheduler == nullptr &&
         "nested schedulers on one thread are not supported");
  slots_.reserve(num_workers_);
  SplitMix64 seeder(0x5eedc0de12345678ULL);
  for (unsigned i = 0; i < num_workers_; ++i) {
    slots_.push_back(std::make_unique<WorkerSlot>());
    slots_.back()->steal_seed = seeder.next() | 1;
  }
  // The constructing thread is worker 0.
  tl_scheduler = this;
  tl_worker_id = 0;
  if (options_.thread_observer != nullptr) {
    options_.thread_observer->on_worker_start(0);
  }
  threads_.reserve(num_workers_ - 1);
  for (unsigned i = 1; i < num_workers_; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

Scheduler::~Scheduler() {
  shutdown_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(park_mutex_);
    wake_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  park_cv_.notify_all();
  for (auto& thread : threads_) {
    thread.join();
  }
  note_idle(0);  // close worker 0's busy interval, if any
  if (options_.thread_observer != nullptr) {
    options_.thread_observer->on_worker_stop(0);
  }
  tl_scheduler = nullptr;
  tl_worker_id = -1;
  // All groups must have been waited on before destruction; any task still in
  // a deque at this point is a bug in the caller.
  for (auto& slot : slots_) {
    assert(slot->deque.empty() && "scheduler destroyed with pending tasks");
    (void)slot;
  }
}

void Scheduler::worker_main(unsigned worker_id) {
  start_on_own_cpu(worker_id);
  tl_scheduler = this;
  tl_worker_id = static_cast<int>(worker_id);
  if (options_.thread_observer != nullptr) {
    options_.thread_observer->on_worker_start(worker_id);
  }
  while (!shutdown_.load(std::memory_order_acquire)) {
    detail::TaskBase* task = find_task(worker_id);
    if (task != nullptr) {
      execute(task, worker_id);
      continue;
    }
    note_idle(worker_id);
    // Park until new work is announced. The epoch/counter protocol below
    // avoids lost wakeups; the timed wait is belt-and-braces.
    const std::uint64_t epoch = wake_epoch_.load(std::memory_order_acquire);
    num_sleepers_.fetch_add(1, std::memory_order_seq_cst);
    task = find_task(worker_id);
    if (task != nullptr) {
      num_sleepers_.fetch_sub(1, std::memory_order_relaxed);
      execute(task, worker_id);
      continue;
    }
    {
      std::unique_lock<std::mutex> lk(park_mutex_);
      park_cv_.wait_for(lk, std::chrono::milliseconds(1), [&] {
        return shutdown_.load(std::memory_order_acquire) ||
               wake_epoch_.load(std::memory_order_acquire) != epoch;
      });
    }
    num_sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }
  note_idle(worker_id);
  if (options_.thread_observer != nullptr) {
    options_.thread_observer->on_worker_stop(worker_id);
  }
  tl_scheduler = nullptr;
  tl_worker_id = -1;
}

void Scheduler::begin_busy(WorkerSlot& slot) {
  if (options_.timing == TimingMode::kTransitions &&
      !slot.busy_open.load(std::memory_order_relaxed)) {
    slot.busy_since_ns.store(now_ns(), std::memory_order_relaxed);
    // Release pairs with the acquire in worker_stats(): a reader that sees
    // the interval open also sees its start time.
    slot.busy_open.store(true, std::memory_order_release);
  }
}

void Scheduler::note_idle(unsigned worker_id) {
  WorkerSlot& slot = *slots_[worker_id];
  if (slot.busy_open.load(std::memory_order_relaxed)) {
    const std::uint64_t now = now_ns();
    const std::uint64_t since =
        slot.busy_since_ns.load(std::memory_order_relaxed);
    slot.busy_ns.fetch_add(now - since, std::memory_order_relaxed);
    slot.busy_open.store(false, std::memory_order_relaxed);
    // The busy span reuses the two timestamps this transition already took:
    // tracing in kTransitions mode adds no clock reads.
    if (TraceRecorder* tr = tracer_.load(std::memory_order_acquire)) {
      tr->record_span(worker_id, TraceName::kWorkerBusy, since, now);
    }
  }
}

void Scheduler::end_wait(unsigned worker_id) {
  WorkerSlot& slot = *slots_[worker_id];
  if (slot.task_depth > 0) {
    // The wait was nested inside a task body (the fine-grained enumerators
    // wait at every recursion level): the work that follows it — e.g.
    // Johnson's exit critical section — is task time, so reopen the interval
    // if an idle spin inside the wait closed it. No clock read happens on
    // the common path where the interval never closed.
    begin_busy(slot);
  } else {
    // Outermost wait: the caller is back in sequential code, which
    // transition timing counts as idle.
    note_idle(worker_id);
  }
}

void Scheduler::execute(detail::TaskBase* task, unsigned worker_id) {
  WorkerSlot& slot = *slots_[worker_id];
  bump(slot.tasks_executed);
  const std::uint32_t creator = task->creator_worker;
  if (creator != worker_id) {
    bump(slot.tasks_stolen);
  }
  TaskGroup* group = task->group;
  const bool from_slab = task->from_slab;
  // Default (kTransitions) timing touches no clock here: the busy interval
  // opened on the worker's first task stays open across back-to-back tasks
  // and is closed by note_idle when the worker runs out of work.
  begin_busy(slot);
  slot.task_depth += 1;
  const bool per_task_timing = options_.timing == TimingMode::kPerTask;
  const std::uint64_t t0 = per_task_timing ? now_ns() : 0;
  TraceRecorder* const tr = tracer_.load(std::memory_order_acquire);
  if (tr != nullptr && creator != worker_id) {
    // One extra clock read per STEAL (rare by design), never per task.
    tr->record_instant(worker_id, TraceName::kSteal,
                       per_task_timing ? t0 : trace_now_ns(), creator);
  }
  try {
    task->run();
  } catch (...) {
    group->record_exception(std::current_exception());
  }
  slot.task_depth -= 1;
  if (per_task_timing) {
    const std::uint64_t t1 = now_ns();
    slot.busy_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
    slot.task_hist.record(t1 - t0);
    if (tr != nullptr) {
      tr->record_span(worker_id, TraceName::kTask, t0, t1, creator);
    }
  }
  if (from_slab) {
    task->~TaskBase();
    release_task_block(task, creator, worker_id);
  } else {
    delete task;
  }
  group->pending_.fetch_sub(1, std::memory_order_acq_rel);
}

detail::TaskBase* Scheduler::find_task(unsigned worker_id) {
  if (auto task = slots_[worker_id]->deque.pop()) {
    return *task;
  }
  return steal_task(worker_id);
}

detail::TaskBase* Scheduler::steal_task(unsigned worker_id) {
  if (num_workers_ == 1) {
    return nullptr;
  }
  WorkerSlot& slot = *slots_[worker_id];
  // xorshift-based victim selection; a couple of sweeps over the other
  // workers before giving up.
  std::uint64_t seed = slot.steal_seed;
  const unsigned attempts = 2 * num_workers_;
  for (unsigned i = 0; i < attempts; ++i) {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    const unsigned victim = static_cast<unsigned>(seed % num_workers_);
    if (victim == worker_id) {
      continue;
    }
    if (auto task = slots_[victim]->deque.steal()) {
      slot.steal_seed = seed;
      return *task;
    }
  }
  slot.steal_seed = seed;
  return nullptr;
}

void Scheduler::push_task(detail::TaskBase* task) {
  const int worker = tl_worker_id;
  assert(tl_scheduler == this && worker >= 0 &&
         "tasks must be spawned from a worker thread of this scheduler");
  slots_[static_cast<unsigned>(worker)]->deque.push(task);
  bump(slots_[static_cast<unsigned>(worker)]->tasks_spawned);
  wake_workers();
}

void* Scheduler::acquire_task_block() {
  const int worker = tl_worker_id;
  assert(tl_scheduler == this && worker >= 0 &&
         "tasks must be spawned from a worker thread of this scheduler");
  return slots_[static_cast<unsigned>(worker)]->slab.acquire();
}

void Scheduler::release_unused_task_block(void* block) {
  const int worker = tl_worker_id;
  assert(tl_scheduler == this && worker >= 0);
  slots_[static_cast<unsigned>(worker)]->slab.release_local(block);
}

void Scheduler::note_heap_task() {
  const int worker = tl_worker_id;
  assert(tl_scheduler == this && worker >= 0 &&
         "tasks must be spawned from a worker thread of this scheduler");
  bump(slots_[static_cast<unsigned>(worker)]->tasks_heap_allocated);
}

void Scheduler::release_task_block(void* block, std::uint32_t creator_worker,
                                   unsigned executing_worker) {
  TaskSlab& slab = slots_[creator_worker]->slab;
  if (creator_worker == executing_worker) {
    slab.release_local(block);
  } else {
    slab.release_remote(block);
  }
}

void Scheduler::wake_workers() {
  // Pairs with the seq_cst increment of num_sleepers_ in worker_main: either
  // the sleeper sees our push in its re-check, or we see its increment here.
  // (Under TSan the fence vanishes and the load itself is seq_cst.)
  fence_unless_tsan(std::memory_order_seq_cst);
  if (num_sleepers_.load(PARCYCLE_TSAN ? std::memory_order_seq_cst
                                       : std::memory_order_relaxed) > 0) {
    {
      std::lock_guard<std::mutex> lk(park_mutex_);
      wake_epoch_.fetch_add(1, std::memory_order_relaxed);
    }
    park_cv_.notify_all();
  }
}

std::vector<WorkerStats> Scheduler::worker_stats() const {
  std::vector<WorkerStats> out;
  out.reserve(num_workers_);
  for (const auto& slot : slots_) {
    WorkerStats stats;
    stats.tasks_executed = slot->tasks_executed.load(std::memory_order_relaxed);
    stats.tasks_spawned = slot->tasks_spawned.load(std::memory_order_relaxed);
    stats.tasks_stolen = slot->tasks_stolen.load(std::memory_order_relaxed);
    stats.tasks_heap_allocated =
        slot->tasks_heap_allocated.load(std::memory_order_relaxed);
    out.push_back(stats);
    std::uint64_t busy = slot->busy_ns.load(std::memory_order_relaxed);
    // Fold in a still-open interval: a worker that stayed saturated for the
    // whole run may not have transitioned to idle yet when the caller
    // returns from wait(), and its whole busy time would otherwise be
    // missing from the snapshot. Approximate under concurrent transitions,
    // exact when quiescent.
    if (slot->busy_open.load(std::memory_order_acquire)) {
      const std::uint64_t since =
          slot->busy_since_ns.load(std::memory_order_relaxed);
      const std::uint64_t now = now_ns();
      busy += now > since ? now - since : 0;
    }
    out.back().busy_ns = busy;
  }
  return out;
}

void Scheduler::reset_stats() {
  const std::uint64_t now = now_ns();
  for (auto& slot : slots_) {
    slot->tasks_executed.store(0, std::memory_order_relaxed);
    slot->tasks_spawned.store(0, std::memory_order_relaxed);
    slot->tasks_stolen.store(0, std::memory_order_relaxed);
    slot->tasks_heap_allocated.store(0, std::memory_order_relaxed);
    slot->busy_ns.store(0, std::memory_order_relaxed);
    slot->task_hist.clear();
    // A worker saturated through the end of the previous run may still have
    // its busy interval open (it closes at the next failed find). Rebase the
    // interval's start so the eventual note_idle folds only post-reset time
    // into the fresh counters, not the previous run's whole span. The
    // rebase can race the owner's own fold; the error is then bounded by
    // the reset-to-idle gap, which the quiescent-call contract tolerates.
    if (slot->busy_open.load(std::memory_order_relaxed)) {
      slot->busy_since_ns.store(now, std::memory_order_relaxed);
    }
  }
}

std::vector<Log2Histogram> Scheduler::task_latency_histograms() const {
  std::vector<Log2Histogram> out;
  out.reserve(num_workers_);
  for (const auto& slot : slots_) {
    out.push_back(slot->task_hist);
  }
  return out;
}

std::vector<TaskSlabStats> Scheduler::slab_stats() const {
  std::vector<TaskSlabStats> out;
  out.reserve(num_workers_);
  for (const auto& slot : slots_) {
    out.push_back(slot->slab.stats());
  }
  return out;
}

std::int64_t Scheduler::local_queue_size() const noexcept {
  const int worker = tl_worker_id;
  if (tl_scheduler != this || worker < 0) {
    return 0;
  }
  return slots_[static_cast<unsigned>(worker)]->deque.size();
}

TaskGroup::TaskGroup() : sched_(*Scheduler::current()) {
  assert(Scheduler::current() != nullptr &&
         "TaskGroup requires an active scheduler on this thread");
}

void TaskGroup::wait() {
  const int worker = Scheduler::current_worker_id();
  assert(Scheduler::current() == &sched_ && worker >= 0 &&
         "wait() must be called from a worker thread of the bound scheduler");
  const auto worker_id = static_cast<unsigned>(worker);
  int idle_spins = 0;
  while (pending_.load(std::memory_order_acquire) > 0) {
    detail::TaskBase* task = sched_.find_task(worker_id);
    if (task != nullptr) {
      sched_.execute(task, worker_id);
      idle_spins = 0;
      continue;
    }
    sched_.note_idle(worker_id);
    // The remaining tasks of this group are executing on other workers; back
    // off politely while they finish.
    if (++idle_spins > 64) {
      std::this_thread::yield();
    }
  }
  sched_.end_wait(worker_id);
  if (has_exception_.load(std::memory_order_acquire)) {
    std::exception_ptr to_throw;
    {
      LockGuard<Spinlock> guard(exception_lock_);
      to_throw = exception_;
      exception_ = nullptr;
      has_exception_.store(false, std::memory_order_release);
    }
    if (to_throw) {
      std::rethrow_exception(to_throw);
    }
  }
}

void TaskGroup::record_exception(std::exception_ptr eptr) {
  LockGuard<Spinlock> guard(exception_lock_);
  if (!exception_) {
    exception_ = eptr;
    has_exception_.store(true, std::memory_order_release);
  }
}

}  // namespace parcycle
