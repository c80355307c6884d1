#include "stream/incremental.hpp"

#include <cassert>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>

#include "core/driver.hpp"  // spawners, RepairTask, take_self_loop
#include "core/johnson_impl.hpp"  // kUnboundedRem, child_rem, report_cycle
#include "obs/trace.hpp"

namespace parcycle {

namespace {

// The search context of one per-edge search. `run` is its spawner: a
// roots::SerialSpawner, or the StreamRun of a fine search.
template <typename Spawner>
struct StreamSearch {
  Spawner run;
  const SlidingWindowGraph& graph;
  VertexId target;
  Timestamp hi;  // closing.ts - 1
  EdgeId closing_id;
  bool bounded;
  const HopDistances* prune;  // reverse-BFS distances, or null
  CycleSink* sink;
  SearchBudgetState* budget;

  // May the search step into w with `rem_after` path edges still available
  // after the step? (Unbounded, rem_after is kUnboundedRem, which every
  // reached vertex's distance is below.)
  bool admissible(VertexId w, std::int32_t rem_after) const {
    return prune == nullptr || prune->distance(w) <= rem_after;
  }
  bool expired() const { return budget != nullptr && budget->expired(); }
};

template <typename Search>
void visit(Search& search, StreamSearchScratch& st, StreamOutEdges out,
           std::int32_t rem);

// Steps along `e` to its head, visits it, and steps back.
template <typename Search>
void step(Search& search, StreamSearchScratch& st,
          const SlidingWindowGraph::OutEdge& e, std::int32_t rem) {
  using Guard = typename std::remove_reference_t<decltype(search.run)>::Guard;
  {
    Guard guard(st.lock());
    st.push(e.dst, e.id);
  }
  visit(search, st,
        search.graph.out_edges_in_window(e.dst, e.ts + 1, search.hi), rem);
  Guard guard(st.lock());
  st.pop();
}

// The one DFS visit, from the path's last vertex with `rem` path edges of
// budget left; `out` holds its out-edges that leave after its arrival and
// inside the window. Each branch is stepped into in place or, when the run
// spawns, by a task on its creator's spawn-time path. A charge that finds
// the budget expired unwinds the search, so a serial search stops at the
// same edge on every run.
template <typename Search>
void visit(Search& search, StreamSearchScratch& st, StreamOutEdges out,
           std::int32_t rem) {
  using Run = std::remove_reference_t<decltype(search.run)>;
  using Guard = typename Run::Guard;
  assert(rem >= 1);
  st.counters.vertices_visited += 1;
  typename Run::template Children<Search> children(search);
  for (const auto& e : out) {
    st.counters.edges_visited += 1;
    if (search.budget != nullptr && !search.budget->charge()) {
      break;
    }
    if (e.dst == search.target) {
      st.counters.cycles_found += 1;
      if (search.sink != nullptr) {
        // The target sits on the path only for the sink call; a copy taken
        // meanwhile drops it when it truncates to its mark.
        {
          Guard guard(st.lock());
          st.push(search.target, e.id);
        }
        detail::report_cycle<true>(st, search.closing_id, search.sink);
        Guard guard(st.lock());
        st.pop();
      }
      continue;
    }
    if (search.bounded && rem <= 1) {
      continue;
    }
    if (st.on_path(e.dst)) {
      continue;
    }
    const std::int32_t next = detail::child_rem(rem, search.bounded);
    if (!search.admissible(e.dst, next)) {
      continue;
    }
    if (search.run.should_spawn()) {
      children.spawn(st, [e, next](Search& s, StreamSearchScratch& at) {
        step(s, at, e, next);
        return false;  // no blocking state waits on the answer
      });
      continue;
    }
    step(search, st, e, next);
    if (search.expired()) {
      break;
    }
  }
  children.wait();
}

// The spawner of a fine search: the RepairTask/SpawnedChildren interface of
// core/driver.hpp. A stolen branch's scratch comes from `pool` and goes back
// to it reset, its counters merged into `stolen`.
struct StreamRun {
  using State = StreamSearchScratch;
  using Guard = LockGuard<Spinlock>;
  template <typename Search>
  using Children = fine::SpawnedChildren<Search>;

  Scheduler& sched;
  ParallelOptions popts;
  ScratchPool<StreamSearchScratch>& pool;
  SearchBudgetState* budget;
  Spinlock lock{};
  WorkCounters stolen{};

  // fine::should_spawn; an expired search spawns nothing.
  bool should_spawn() const {
    return (budget == nullptr || !budget->expired()) &&
           fine::should_spawn(sched, popts);
  }

  std::unique_ptr<StreamSearchScratch> acquire_state() {
    auto state = pool.acquire();
    state->reset();
    return state;
  }

  void release_state(std::unique_ptr<StreamSearchScratch> state) {
    {
      LockGuard<Spinlock> guard(lock);
      stolen += state->counters;
    }
    state->reset();
    pool.release(std::move(state));
  }
};

// Both entry points: the lane's self-loop, the length bound, scratch growth
// and the optional reverse-BFS prune with its root-reachability early-out,
// then the visit from the closing edge's head over `run`. Returns the
// cycles the root scratch counted; a fine search's stolen branches count
// theirs into the run.
template <typename Run>
std::uint64_t search_lane(Run& run, const SlidingWindowGraph& graph,
                          const TemporalEdge& closing, Timestamp window,
                          const EdgeLane& lane, const EnumOptions& options,
                          StreamSearchScratch& scratch, WorkCounters& work,
                          CycleSink* sink, SearchBudgetState* budget) {
  if (lane.settled) {
    return roots::take_self_loop(closing, sink, work) ? 1 : 0;
  }
  const bool bounded = options.max_cycle_length > 0;
  const std::int32_t rem0 =
      bounded ? options.max_cycle_length - 1 : detail::kUnboundedRem;
  if (rem0 < 1) {
    return 0;  // max_cycle_length == 1 admits only self-loops
  }
  const Timestamp lo = saturating_sub(closing.ts, window);
  const Timestamp hi = closing.ts - 1;
  scratch.ensure(graph.num_vertices());
  if (options.use_cycle_union) {
    // Reverse BFS from the tail over the window's in-edges: a superset of
    // the vertices that can temporally reach the tail (it ignores time), so
    // pruning on it never loses a cycle. Bounded, vertices further than the
    // length bound cannot fit on a path. It charges the budget per scanned
    // edge too: a window dense enough to blow the search budget usually
    // blows it here, before the DFS starts.
    if (!scratch.prune.compute(
            closing.src, bounded ? rem0 : -1,
            [&](VertexId v) { return graph.in_edges_in_window(v, lo, hi); },
            [](const SlidingWindowGraph::InEdge& e) { return e.src; },
            budget)) {
      // Budget expired inside the BFS: the distances are incomplete, so the
      // whole search is abandoned (zero cycles, partial result).
      work.searches_truncated += 1;
      return 0;
    }
    if (scratch.prune.distance(closing.dst) > rem0) {
      return 0;
    }
  }
  // An escalated search gets its own root span nested inside the engine's
  // edge_search span: the gap between the two is the prologue's cost.
  TraceRecorder* tracer = nullptr;
  if constexpr (std::is_same_v<Run, StreamRun>) {
    tracer = run.sched.tracer();
  }
  TraceSpan trace(tracer,
                  static_cast<unsigned>(Scheduler::current_worker_id()),
                  TraceName::kSearchRoot, closing.id);
  const HopDistances* prune =
      options.use_cycle_union ? &scratch.prune : nullptr;
  StreamSearch<Run&> search{run,     graph, closing.src, hi,    closing.id,
                            bounded, prune, sink,        budget};
  assert(scratch.path_length() == 0);
  scratch.counters = WorkCounters{};
  scratch.push(closing.dst, kInvalidEdge);
  // Every visit waits for the branches it spawned, so the search has
  // quiesced here and the scratch's prune distances are no longer read.
  visit(search, scratch, lane.head_out, rem0);
  scratch.pop();
  if (search.expired()) {
    work.searches_truncated += 1;
  }
  work += scratch.counters;
  return scratch.counters.cycles_found;
}

}  // namespace

EdgeLane settle_edge_lane(const SlidingWindowGraph& graph,
                          const TemporalEdge& closing, Timestamp window) {
  if (closing.src == closing.dst || window <= 0 ||
      closing.ts == std::numeric_limits<Timestamp>::min()) {
    // A self-loop closes only itself; strictly increasing timestamps need a
    // positive span and an earlier timestamp.
    return EdgeLane{{}, true};
  }
  const Timestamp lo = saturating_sub(closing.ts, window);
  const Timestamp hi = closing.ts - 1;
  const StreamOutEdges head_out =
      graph.out_edges_in_window(closing.dst, lo, hi);
  // The head cannot leave, or the tail cannot be re-entered.
  return EdgeLane{head_out,
                  head_out.empty() ||
                      graph.in_edges_in_window(closing.src, lo, hi).empty()};
}

std::uint64_t cycles_closed_by_edge(const SlidingWindowGraph& graph,
                                    const TemporalEdge& closing,
                                    Timestamp window,
                                    const EnumOptions& options,
                                    StreamSearchScratch& scratch,
                                    WorkCounters& work, CycleSink* sink,
                                    SearchBudgetState* budget) {
  return cycles_closed_by_edge(graph, closing, window,
                               settle_edge_lane(graph, closing, window),
                               options, scratch, work, sink, budget);
}

std::uint64_t cycles_closed_by_edge(const SlidingWindowGraph& graph,
                                    const TemporalEdge& closing,
                                    Timestamp window, const EdgeLane& lane,
                                    const EnumOptions& options,
                                    StreamSearchScratch& scratch,
                                    WorkCounters& work, CycleSink* sink,
                                    SearchBudgetState* budget) {
  roots::SerialSpawner<StreamSearchScratch> run;
  return search_lane(run, graph, closing, window, lane, options, scratch,
                     work, sink, budget);
}

std::uint64_t fine_cycles_closed_by_edge(
    const SlidingWindowGraph& graph, const TemporalEdge& closing,
    Timestamp window, const EdgeLane& lane, Scheduler& sched,
    const EnumOptions& options, const ParallelOptions& popts,
    StreamSearchScratch& scratch, ScratchPool<StreamSearchScratch>& pool,
    WorkCounters& work, CycleSink* sink, SearchBudgetState* budget) {
  StreamRun run{sched, popts, pool, budget};
  const std::uint64_t found = search_lane(run, graph, closing, window, lane,
                                          options, scratch, work, sink, budget);
  work += run.stolen;
  return found + run.stolen.cycles_found;
}

}  // namespace parcycle
