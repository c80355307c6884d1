// The drivers every enumerator shares: each algorithm keeps only its search
// and hands one per-start hook to one of three root loops.
//
//  * roots::serial_loop runs the starts in order on one state and scratch;
//  * roots::coarse_loop runs one start per task (the paper's Section 4
//    baseline), each on its worker's state and scratch;
//  * fine::FineRun::run_roots is the copy-on-steal driver of the five
//    fine-grained enumerators (Section 5): fine Johnson, Read-Tarjan and
//    BC-DFS on windowed simple cycles, and fine temporal Johnson and
//    Read-Tarjan, each in the file of its serial driver.
//
// roots::StartRun puts the serial and coarse loops over edges_by_time(),
// with the self-loop rule, the way FineRun does for the fine one; the
// static-graph drivers call the two loops over their start vertices.
// roots::drain runs Read-Tarjan calls depth-first on one state, the
// serial form of fine::exec_call; it hands child calls to the walk through
// a lambda, a template parameter like every other hook.
//
// A run whose per-start scratch is a CycleUnionBlock, with cycle-unions on
// (the temporal enumerators), runs in two phases: the closability pass
// (roots::closable_starts, in parallel in coarse and fine runs) lists the
// starts that can close a cycle, and the root loop then visits only those,
// its blocks packed with 256 listed starts each. The starts it leaves out
// would have been skipped without touching the state, so cycles and the
// visit counters of every schedule-independent run are those of a run over
// every start (fine Johnson's visits depend on where it spawns, as they
// always have). Every other run (the windowed drivers, and temporal runs
// with cycle-unions off: 2SCENT and the ablations) visits every start.
//
// In a fine run the search context of a root lives on the root's stack;
// every call waits for its tasks before it returns, so tasks hold raw
// pointers to it. Two task shapes share the run struct and the root loop:
//  * prefix repair (Johnson, BC-DFS, temporal Johnson and the per-edge
//    stream search): a stolen task copies its creator's state under the
//    creator's lock and repairs it back to the state's spawn-time Mark.
//    These searches write each visit once, over a spawner that is a fine
//    run or a roots::SerialSpawner, so their serial, coarse and fine runs
//    share it;
//  * prefix replay (both Read-Tarjans): a stolen task replays its creator's
//    path and undo log up to the spawn-time prefix, without a lock.
// Hooks are template parameters: nothing on the per-visit path goes through
// std::function.
//
// When a fine run spawns: SpawnPolicy::kAlways spawns every recursive call.
// Under kAdaptive (fine::should_spawn) a run on one worker never spawns, so
// it does the serial run's work; on several workers a search splits only
// while the spawning worker's deque is shallow, and in a FineRun only once
// every root task of run_roots has started: until then an idle worker takes
// a root task, and a split pays only when no root is left to take.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/cycle_types.hpp"
#include "core/johnson_state.hpp"  // ScratchPool
#include "core/options.hpp"
#include "graph/temporal_graph.hpp"
#include "obs/trace.hpp"
#include "support/counter_sink.hpp"
#include "support/scheduler.hpp"
#include "support/spinlock.hpp"
#include "temporal/cycle_union.hpp"

namespace parcycle::roots {

// A self-loop start is a cycle of its own, on no other: reports it into
// `counters` and returns true, or returns false for any other start.
inline bool take_self_loop(const TemporalEdge& e0, CycleSink* sink,
                           WorkCounters& counters) {
  if (e0.src != e0.dst) {
    return false;
  }
  counters.cycles_found += 1;
  if (sink != nullptr) {
    sink->on_cycle({&e0.src, 1}, {&e0.id, 1});
  }
  return true;
}

// The per-start scratch of an edge-start search: a CycleUnionBlock, or an
// epoch-stamped per-start scratch with init(n).
template <typename Scratch>
std::unique_ptr<Scratch> new_scratch(const TemporalGraph& graph,
                                     Timestamp window, bool use_cycle_union) {
  if constexpr (std::is_constructible_v<Scratch, const TemporalGraph&,
                                        Timestamp, bool>) {
    return std::make_unique<Scratch>(graph, window, use_cycle_union);
  } else {
    auto scratch = std::make_unique<Scratch>();
    scratch->init(graph.num_vertices());
    return scratch;
  }
}

// The starts a root loop visits, in order: the first `count` ids of
// edges_by_time(), or `ids` when it is not empty.
struct StartList {
  std::size_t count = 0;
  std::vector<EdgeId> ids;

  EdgeId operator[](std::size_t i) const {
    return ids.empty() ? static_cast<EdgeId>(i) : ids[i];
  }
};

// The closability pass: the ascending ids of the starts of edges_by_time()
// that can close a cycle (CycleUnionBlock::closable), a block of
// CycleUnionBlock::kStarts consecutive starts at a time on objects of
// `pool`, as tasks of `sched` when one is given.
template <typename Scratch>
std::vector<EdgeId> closable_starts(std::size_t num_edges,
                                    ScratchPool<Scratch>& pool,
                                    Scheduler* sched) {
  constexpr std::size_t kStarts = CycleUnionBlock::kStarts;
  std::vector<CycleUnionLanes> closable((num_edges + kStarts - 1) / kStarts);
  const auto pass = [&](std::size_t b) {
    auto block = pool.acquire();
    closable[b] = block->closable(b);
    pool.release(std::move(block));
  };
  if (sched != nullptr) {
    parallel_for_chunked(*sched, 0, closable.size(),
                         std::size_t{32} * sched->num_workers(), pass);
  } else {
    for (std::size_t b = 0; b < closable.size(); ++b) {
      pass(b);
    }
  }
  // Counted first: the list lives for the whole run, so it is allocated
  // once at its size.
  std::size_t count = 0;
  for (const CycleUnionLanes& lanes : closable) {
    for (const std::uint64_t w : lanes.words) {
      count += static_cast<std::size_t>(std::popcount(w));
    }
  }
  std::vector<EdgeId> ids;
  ids.reserve(count);
  for (std::size_t b = 0; b < closable.size(); ++b) {
    for (std::size_t k = 0; k < CycleUnionLanes::kWords; ++k) {
      for (std::uint64_t w = closable[b].words[k]; w != 0; w &= w - 1) {
        ids.push_back(static_cast<EdgeId>(
            b * kStarts + 64 * k +
            static_cast<std::size_t>(std::countr_zero(w))));
      }
    }
  }
  return ids;
}

// The starts a run over edges_by_time() visits: with a CycleUnionBlock
// scratch and cycle-unions on, the closable ones, which every object of
// `pool` then serves; otherwise all of them.
template <typename Scratch>
StartList run_starts(const TemporalGraph& graph, bool use_cycle_union,
                     ScratchPool<Scratch>& pool, Scheduler* sched) {
  if constexpr (std::is_base_of_v<CycleUnionBlock, Scratch>) {
    if (use_cycle_union) {
      std::vector<EdgeId> ids =
          closable_starts(graph.num_edges(), pool, sched);
      const std::size_t count = ids.size();
      return {count, std::move(ids)};
    }
  }
  return {graph.num_edges(), {}};
}

// Hands out a scratch of `pool` that serves `starts`.
template <typename Scratch>
std::unique_ptr<Scratch> serving(ScratchPool<Scratch>& pool,
                                 const StartList& starts) {
  auto scratch = pool.acquire();
  if constexpr (std::is_base_of_v<CycleUnionBlock, Scratch>) {
    if (!starts.ids.empty()) {
      scratch->serve(starts.ids);
    }
  }
  return scratch;
}

// The serial root loop: search(i, scratch, state) for every start i below
// `starts`, in order, on one State(n) and one make_scratch(). The search
// gets a reset state and returns false when it skipped the start without
// touching it; otherwise the loop merges the state's counters and resets it.
template <typename State, typename MakeScratch, typename Search>
WorkCounters serial_loop(std::size_t starts, VertexId n,
                         const MakeScratch& make_scratch,
                         const Search& search) {
  State state(n);
  const auto scratch = make_scratch();
  WorkCounters total;
  for (std::size_t i = 0; i < starts; ++i) {
    if (search(i, *scratch, state)) {
      total += state.counters;
      state.reset();
    }
  }
  return total;
}

// The coarse root loop: the serial loop with one task per start, which runs
// on its worker's state and scratch. A start task never waits, so a worker
// runs one start at a time and never shares its state or scratch.
template <typename State, typename MakeScratch, typename Search>
WorkCounters coarse_loop(Scheduler& sched, std::size_t starts, VertexId n,
                         const MakeScratch& make_scratch,
                         const Search& search) {
  struct Worker {
    std::unique_ptr<State> state;
    decltype(make_scratch()) scratch;
  };
  std::vector<Worker> workers(sched.num_workers());
  PerWorkerCounters work(sched);
  parallel_for_each_index(sched, 0, starts, [&](std::size_t i) {
    Worker& slot =
        workers[static_cast<std::size_t>(Scheduler::current_worker_id())];
    // Out of the slot while the start runs: a start that throws (a sink may)
    // drops its state mid-search, and the worker's next start builds anew.
    Worker worker = std::move(slot);
    if (worker.state == nullptr) {
      worker.state = std::make_unique<State>(n);
      worker.scratch = make_scratch();
    }
    if (search(i, *worker.scratch, *worker.state)) {
      work.merge(worker.state->counters);
      worker.state->reset();
    }
    slot = std::move(worker);
  });
  return work.total();
}

// Whole-run data of a serial or coarse run over the starting edges of
// edges_by_time(). A hook search(run, e0, scratch, state) reads it as the
// fine hooks read FineRun; it gets every visited start (run_starts) that is
// not a self-loop, on a reset state, and returns false when it skipped the
// start without touching the state.
template <typename StateT, typename Scratch>
struct StartRun {
  using State = StateT;

  const TemporalGraph& graph;
  Timestamp window;
  EnumOptions options;
  CycleSink* sink;

  template <typename Search>
  EnumResult serial(const Search& search) const {
    ScratchPool<Scratch> pool = scratch_pool();
    const StartList starts =
        run_starts(graph, options.use_cycle_union, pool, nullptr);
    return EnumResult::of(serial_loop<State>(
        starts.count, graph.num_vertices(),
        [&] { return serving(pool, starts); }, per_start(starts, search)));
  }

  template <typename Search>
  EnumResult coarse(Scheduler& sched, const Search& search) const {
    ScratchPool<Scratch> pool = scratch_pool();
    const StartList starts =
        run_starts(graph, options.use_cycle_union, pool, &sched);
    return EnumResult::of(coarse_loop<State>(
        sched, starts.count, graph.num_vertices(),
        [&] { return serving(pool, starts); }, per_start(starts, search)));
  }

 private:
  ScratchPool<Scratch> scratch_pool() const {
    return ScratchPool<Scratch>([this] {
      return new_scratch<Scratch>(graph, window, options.use_cycle_union);
    });
  }

  template <typename Search>
  auto per_start(const StartList& starts, const Search& search) const {
    return [this, &starts, &search, edges = graph.edges_by_time()](
               std::size_t i, Scratch& scratch, State& state) {
      const TemporalEdge& e0 = edges[starts[i]];
      return take_self_loop(e0, sink, state.counters) ||
             search(*this, e0, scratch, state);
    };
  }
};

// The spawner of serial and coarse runs. A visit written over a spawner
// (core/johnson_impl.hpp, temporal/temporal_johnson.cpp,
// stream/incremental.cpp) reads it as its search context's `run`, where a
// fine run puts itself: this one never spawns, and its lock guard and task
// list are empty, so the visit compiles to a plain recursive loop.
template <typename StateT>
struct SerialSpawner {
  using State = StateT;

  struct Guard {
    explicit Guard(Spinlock&) {}
  };

  template <typename Search>
  struct Children {
    explicit Children(Search&) {}
    template <typename Child>
    void spawn(State&, Child&&) {}
    static constexpr bool wait() { return false; }
  };

  static constexpr bool should_spawn() { return false; }
};

template <typename State, typename Scratch>
SerialSpawner<State> spawner(const StartRun<State, Scratch>&) {
  return {};
}

// A serial Read-Tarjan scratch: the search's per-start scratch plus the
// stack drain() keeps deferred calls on, reused from start to start.
template <typename Scratch, typename Call>
struct DrainScratch : Scratch {
  using Scratch::Scratch;
  std::vector<Call> pending;
};

// Runs Read-Tarjan calls depth-first on one state, in fine::exec_call's
// order without tasks: walks `root`, then pops the deepest deferred call,
// rewinds the state to its prefix and walks it, until none is left.
// walk(call, collect) reports the call's cycle and hands each child call to
// collect. `pending` is empty before and after.
template <typename State, typename Call, typename Walk>
void drain(State& state, std::vector<Call>& pending, Call&& root,
           const Walk& walk) {
  const auto collect = [&pending](Call&& call) {
    pending.push_back(std::move(call));
  };
  pending.push_back(std::move(root));
  while (!pending.empty()) {
    Call call = std::move(pending.back());
    pending.pop_back();
    state.truncate_path(call.path_len);
    state.truncate_log(call.log_len);
    walk(call, collect);
  }
}

}  // namespace parcycle::roots

namespace parcycle::fine {

// Should the calling worker spawn its next recursive call as a task? Under
// kAdaptive never on one worker, and otherwise while its deque is shallow.
inline bool should_spawn(const Scheduler& sched, const ParallelOptions& popts) {
  switch (popts.spawn_policy) {
    case SpawnPolicy::kAlways:
      return true;
    case SpawnPolicy::kAdaptive:
      return sched.num_workers() > 1 &&
             sched.local_queue_size() < popts.spawn_queue_threshold;
  }
  return true;
}

template <typename Search>
class SpawnedChildren;

// Whole-run state. `Scratch` is the per-block search scratch (see
// roots::new_scratch). A fine run is the spawner of its visits (see
// roots::SerialSpawner): it spawns by the run's policy, a visit's state
// mutations run under the state's lock, and each call waits for the
// children it spawned.
template <typename StateT, typename Scratch>
struct FineRun {
  using State = StateT;
  using Guard = LockGuard<Spinlock>;
  template <typename Search>
  using Children = SpawnedChildren<Search>;

  const TemporalGraph& graph;
  Timestamp window;
  Scheduler& sched;
  EnumOptions options;
  ParallelOptions popts;
  CycleSink* sink;
  bool bounded = options.max_cycle_length > 0;

  // One state per block of roots in flight, plus the copies stolen tasks
  // make of their creator's.
  ScratchPool<State> state_pool{
      [n = graph.num_vertices()] { return std::make_unique<State>(n); }};
  // Pooled, not per worker: a worker waiting inside a root can run another
  // block while the first block's scratch is still in use.
  ScratchPool<Scratch> scratch_pool{[this] {
    return roots::new_scratch<Scratch>(graph, window, options.use_cycle_union);
  }};
  // Per-worker sinks, summed once after the run's final wait.
  PerWorkerCounters work{sched};
  // The root tasks of run_roots no worker has started yet. Read on every
  // spawn decision and written once per root task, so it keeps a cache line
  // of its own, away from the pools' locks.
  alignas(64) std::atomic<std::size_t> roots_waiting{0};

  // The spawn rule of the header: kAdaptive waits for every root task.
  bool should_spawn() const {
    if (popts.spawn_policy == SpawnPolicy::kAdaptive &&
        roots_waiting.load(std::memory_order_relaxed) > 0) {
      return false;
    }
    return fine::should_spawn(sched, popts);
  }

  std::unique_ptr<State> acquire_state() {
    auto state = state_pool.acquire();
    state->reset();
    return state;
  }

  // Merges a stolen task's counters and returns its state to the pool.
  void release_state(std::unique_ptr<State> state) {
    work.merge(state->counters);
    state_pool.release(std::move(state));
  }

  // The root loop. The visited starts of edges_by_time()
  // (roots::run_starts, its closability pass run in parallel) go out in
  // blocks of CycleUnionBlock::kStarts, each searched on one state and one
  // scratch. search_root(run, e0, scratch, state) gets every visited start
  // that is not a self-loop, on a reset state; it returns false when it
  // skipped the start without touching the state, and waits for every task
  // of the root.
  template <typename SearchRoot>
  void run_roots(SearchRoot&& search_root) {
    const auto edges = graph.edges_by_time();
    const roots::StartList starts =
        roots::run_starts(graph, options.use_cycle_union, scratch_pool, &sched);
    constexpr std::size_t kStarts = CycleUnionBlock::kStarts;
    const std::size_t blocks = (starts.count + kStarts - 1) / kStarts;
    if (blocks == 0) {
      return;
    }
    const auto search_block = [&](std::size_t b) {
      // Every task of a root has finished before the next root starts, so
      // one state and one scratch serve the whole block.
      auto scratch = roots::serving(scratch_pool, starts);
      auto state = acquire_state();
      WorkCounters self_loops;
      TraceRecorder* const tracer = sched.tracer();
      const auto worker = static_cast<unsigned>(Scheduler::current_worker_id());
      const std::size_t last = std::min(starts.count, (b + 1) * kStarts);
      for (std::size_t i = b * kStarts; i < last; ++i) {
        const TemporalEdge& e0 = edges[starts[i]];
        TraceSpan trace(tracer, worker, TraceName::kSearchRoot, e0.id);
        if (!roots::take_self_loop(e0, sink, self_loops) &&
            search_root(*this, e0, *scratch, *state)) {
          work.merge(state->counters);
          state->reset();
        }
      }
      work.merge(self_loops);
      state_pool.release(std::move(state));
      scratch_pool.release(std::move(scratch));
    };
    // Blocks go out in timestamp-ordered chunks, one root task each (the
    // paper's distribution of starting edges); load balance within a chunk
    // comes from the spawned tasks. A packed block holds 256 searched roots
    // and every worker starts on them at once after the closability pass,
    // so those go out one per task, which keeps the run's tail to one block.
    const std::size_t chunks = std::min(
        blocks, starts.ids.empty() ? std::size_t{32} * sched.num_workers()
                                   : blocks);
    const std::size_t chunk = (blocks + chunks - 1) / chunks;
    const std::size_t tasks = (blocks + chunk - 1) / chunk;
    roots_waiting.store(tasks, std::memory_order_relaxed);
    parallel_for_each_index(sched, 0, tasks, [&](std::size_t t) {
      roots_waiting.fetch_sub(1, std::memory_order_relaxed);
      for (std::size_t b = t * chunk; b < std::min(blocks, (t + 1) * chunk);
           ++b) {
        search_block(b);
      }
    });
  }

  // Single-threaded; call after run_roots returned.
  EnumResult result() const { return EnumResult::of(work.total()); }
};

template <typename State, typename Scratch>
FineRun<State, Scratch>& spawner(FineRun<State, Scratch>& run) {
  return run;
}

// The state type a search context's run works on.
template <typename Search>
using StateOf = typename std::remove_reference_t<decltype(Search::run)>::State;

// ---------------------------------------------------------------------------
// Prefix repair. A Child is one deferred recursive call, a callable
// `bool(Search&, State&)`: it re-checks the call against the state it runs
// on (which evolved since the spawn, as in the serial neighbour loop), makes
// it, and returns whether the subtree found a cycle.
//
// A child that ran on a private copy reports a cycle to its creator even
// when it found none. Its subtree's blocking (B-lists, barriers, closing
// times) lives on the copy and is dropped with it, so the creator's state
// could never lift a block it based on that failure: a vertex blocked there
// would stay blocked past the unblocking that should free it, and a later
// cycle through it would be lost. A success exit blocks nothing, so it is
// always sound; it only costs revisits.
// ---------------------------------------------------------------------------

template <typename Search, typename Child>
struct RepairTask {
  using State = StateOf<Search>;

  Search* search;
  State* creator;
  typename State::Mark mark;  // the creator's position at the spawn
  std::uint32_t creator_worker;
  std::atomic<bool>* found;
  Child child;

  void operator()() {
    auto& run = search->run;
    State* st = creator;
    std::unique_ptr<State> owned;
    // Same-thread LIFO execution leaves the creator's state exactly at the
    // spawn-time prefix; anything else (a steal, or a sibling executed out
    // of its natural nesting while this worker helped another search)
    // requires a private copy.
    if (Scheduler::current_worker_id() == static_cast<int>(creator_worker) &&
        creator->path_length() == mark.path_len) {
      st->counters.state_reuses += 1;
    } else {
      owned = run.acquire_state();
      {
        LockGuard<Spinlock> guard(creator->lock());
        owned->copy_from(*creator);
      }
      if (run.popts.naive_state_restore) {
        owned->naive_restore_to_prefix(mark.path_len);
      } else {
        owned->repair_to_prefix(mark);
      }
      st = owned.get();
    }
    assert(st->path_length() == mark.path_len);
    if (child(*search, *st) || owned != nullptr) {
      found->store(true, std::memory_order_release);
    }
    if (owned != nullptr) {
      run.release_state(std::move(owned));
    }
  }
};

// The tasks one recursive call spawned; wait() before the call exits.
template <typename Search>
class SpawnedChildren {
 public:
  explicit SpawnedChildren(Search& search)
      : search_(search), group_(search.run.sched) {}

  template <typename Child>
  void spawn(StateOf<Search>& st, Child&& child) {
    using Task = RepairTask<Search, std::decay_t<Child>>;
    static_assert(spawn_uses_slab_v<Task>,
                  "RepairTask outgrew the scheduler's task-slab block");
    spawned_ = true;
    st.counters.tasks_spawned += 1;
    group_.spawn(Task{
        &search_, &st, st.mark(),
        static_cast<std::uint32_t>(Scheduler::current_worker_id()), &found_,
        std::forward<Child>(child)});
  }

  // Waits for every spawned child; true when one of them found a cycle.
  bool wait() {
    if (!spawned_) {
      return false;
    }
    group_.wait();
    return found_.load(std::memory_order_acquire);
  }

 private:
  Search& search_;
  TaskGroup group_;
  std::atomic<bool> found_{false};
  bool spawned_ = false;
};

// ---------------------------------------------------------------------------
// Prefix replay. A Child is one deferred Read-Tarjan call, with the
// creator's path_len and log_len at the spawn. The search context's
// `walk(State&, const Child&, collect)` reports the call's cycle, walks its
// extension and passes every alternate extension to `collect`.
// ---------------------------------------------------------------------------

template <typename Search, typename Child>
void exec_call(Search& search, StateOf<Search>& st, Child&& child);

template <typename Search, typename Child>
struct ReplayTask {
  Search* search;
  StateOf<Search>* creator;
  std::uint32_t creator_worker;
  Child child;

  void operator()() {
    // In-place reuse is only legal when rewinding to the child's prefix
    // cannot clobber a live inline frame of the creator state (see the floor
    // comment in rt_state.hpp). Otherwise take the steal path even on the
    // same worker.
    if (Scheduler::current_worker_id() == static_cast<int>(creator_worker) &&
        child.path_len >= creator->floor()) {
      creator->counters.state_reuses += 1;
      exec_call(*search, *creator, std::move(child));
      return;
    }
    // Steal path: replay the spawn-time prefix into a private state. Entries
    // below the prefix are immutable while this task is alive (the spawning
    // call's TaskGroup::wait pins them), so the copy needs no lock.
    auto owned = search->run.acquire_state();
    owned->copy_prefix_from(*creator, child.path_len, child.log_len);
    exec_call(*search, *owned, std::move(child));
    search->run.release_state(std::move(owned));
  }
};

// Executes one Read-Tarjan call: rewinds the state to the child's prefix,
// walks its extension (reporting the cycle and collecting alternates), then
// runs the collected children — a shallowest-prefix block as stealable tasks,
// the rest inline depth-first. Waits for all spawned descendants before
// returning, keeping every live task's prefix stable.
template <typename Search, typename Child>
void exec_call(Search& search, StateOf<Search>& st, Child&& child) {
  using Call = std::decay_t<Child>;
  using Task = ReplayTask<Search, Call>;
  static_assert(spawn_uses_slab_v<Task>,
                "ReplayTask outgrew the scheduler's task-slab block");
  st.truncate_path(child.path_len);
  st.truncate_log(child.log_len);
  const std::size_t saved_floor = st.floor();
  st.set_floor(child.path_len);

  std::vector<Call> collected;
  search.walk(st, child,
              [&collected](Call&& c) { collected.push_back(std::move(c)); });

  TaskGroup group(search.run.sched);
  // Children arrive ordered by increasing path prefix. Spawn a shallow block
  // (big subtrees, best to steal) while the policy wants more stealable
  // work; inline tasks never rewind below a spawned sibling's prefix because
  // spawned prefixes are the shallowest of the batch.
  std::size_t first_inline = 0;
  while (first_inline < collected.size() && search.run.should_spawn()) {
    st.counters.tasks_spawned += 1;
    group.spawn(
        Task{&search, &st,
             static_cast<std::uint32_t>(Scheduler::current_worker_id()),
             std::move(collected[first_inline])});
    first_inline += 1;
  }
  // Inline children run deepest-first so rewinds are monotone.
  for (std::size_t i = collected.size(); i-- > first_inline;) {
    exec_call(search, st, std::move(collected[i]));
  }
  if (first_inline > 0) {
    group.wait();
  }
  st.set_floor(saved_floor);
}

}  // namespace parcycle::fine
