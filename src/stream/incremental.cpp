#include "stream/incremental.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <optional>
#include <utility>

#include "core/driver.hpp"  // fine::should_spawn
#include "core/johnson_impl.hpp"  // detail::kUnboundedRem / child_rem
#include "obs/trace.hpp"

namespace parcycle {

void StreamSearchScratch::ensure(VertexId n) {
  if (n <= stamp_.size()) {
    return;
  }
  stamp_.resize(n, 0);
  dist_.resize(n, 0);
  on_path.resize(n);
}

namespace {

// Reverse BFS from `target` over the in-adjacency restricted to ts in
// [lo, hi]: marks every vertex with a (time-agnostic) reverse path to the
// target, with its minimum hop count. A superset of the vertices that can
// temporally reach the target, so pruning on it never loses a cycle. When
// `max_path_edges` >= 0 the BFS stops at that depth — vertices further away
// cannot appear on a path short enough for the length bound.
//
// The BFS charges `budget` per scanned edge too: a window dense enough to
// blow the search budget usually blows it right here, before the DFS ever
// starts. Returns false when the budget expired mid-BFS — the marks are then
// incomplete (no longer a superset) and the caller must NOT search on them.
bool compute_reverse_prune(const SlidingWindowGraph& graph, VertexId target,
                           Timestamp lo, Timestamp hi,
                           std::int32_t max_path_edges,
                           StreamSearchScratch& scratch,
                           SearchBudgetState* budget) {
  scratch.begin_epoch();
  scratch.mark(target, 0);
  auto& queue = scratch.bfs_queue;
  queue.clear();
  queue.push_back(target);
  std::size_t head = 0;
  while (head < queue.size()) {
    const VertexId x = queue[head++];
    const std::int32_t d = scratch.distance(x);
    if (max_path_edges >= 0 && d >= max_path_edges) {
      continue;  // deeper vertices cannot fit the length bound
    }
    const auto in_edges = graph.in_edges_in_window(x, lo, hi);
    if (budget != nullptr && !budget->charge(in_edges.size())) {
      return false;
    }
    for (const auto& e : in_edges) {
      if (!scratch.reached(e.src)) {
        scratch.mark(e.src, d + 1);
        queue.push_back(e.src);
      }
    }
  }
  return true;
}

// Shared immutable parameters of one per-edge search.
struct StreamSearchParams {
  const SlidingWindowGraph& graph;
  VertexId target;
  Timestamp lo;
  Timestamp hi;  // closing.ts - 1
  EdgeId closing_id;
  bool bounded;
  bool pruned;
  const StreamSearchScratch* prune;  // reverse-BFS marks (read-only)

  // May the search step into w with `rem_after` path edges still available
  // after the step?
  bool admissible(VertexId w, std::int32_t rem_after) const {
    if (!pruned) {
      return true;
    }
    if (!prune->reached(w)) {
      return false;
    }
    return !bounded || prune->distance(w) <= rem_after;
  }
};

void report_cycle(const StreamSearchParams& params, CycleSink* sink,
                  std::vector<VertexId>& vertices, std::vector<EdgeId>& edges,
                  EdgeId via_target) {
  if (sink == nullptr) {
    return;
  }
  vertices.push_back(params.target);
  edges.push_back(via_target);
  edges.push_back(params.closing_id);
  sink->on_cycle({vertices.data(), vertices.size()},
                 {edges.data(), edges.size()});
  vertices.pop_back();
  edges.pop_back();
  edges.pop_back();
}

// ---------------------------------------------------------------------------
// Serial DFS
// ---------------------------------------------------------------------------

struct SerialStreamSearch {
  const StreamSearchParams& params;
  StreamSearchScratch& scratch;
  WorkCounters& work;
  CycleSink* sink;
  SearchBudgetState* budget;
  std::uint64_t found = 0;
  bool truncated = false;

  // Path frontier is scratch.path_vertices.back(); `out` holds its
  // out-edges that leave after its arrival and inside the window.
  void extend(StreamOutEdges out, std::int32_t rem) {
    work.vertices_visited += 1;
    for (const auto& e : out) {
      work.edges_visited += 1;
      if (budget != nullptr && !budget->charge()) {
        truncated = true;
        return;  // unwind: the path stack pops on the way out
      }
      if (e.dst == params.target) {
        if (!params.bounded || rem >= 1) {
          found += 1;
          work.cycles_found += 1;
          report_cycle(params, sink, scratch.path_vertices,
                       scratch.path_edges, e.id);
        }
        continue;
      }
      if (params.bounded && rem <= 1) {
        continue;
      }
      if (scratch.on_path.test(e.dst)) {
        continue;
      }
      const std::int32_t next = detail::child_rem(rem, params.bounded);
      if (!params.admissible(e.dst, next)) {
        continue;
      }
      scratch.path_vertices.push_back(e.dst);
      scratch.path_edges.push_back(e.id);
      scratch.on_path.set(e.dst);
      extend(params.graph.out_edges_in_window(e.dst, e.ts + 1, params.hi),
             next);
      scratch.on_path.reset(e.dst);
      scratch.path_vertices.pop_back();
      scratch.path_edges.pop_back();
      if (truncated) {
        return;
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Fine-grained DFS: branches spawn as tasks carrying their own path copy.
// With no shared blocking state every instance is found exactly once on
// every schedule, so cycle and edge-visit totals are deterministic.
// ---------------------------------------------------------------------------

struct FineStreamRun {
  const StreamSearchParams& params;
  Scheduler& sched;
  ParallelOptions popts;
  CycleSink* sink;
  SearchBudgetState* budget;

  std::atomic<std::uint64_t> cycles{0};
  std::atomic<std::uint64_t> edges_visited{0};
  std::atomic<std::uint64_t> vertices_visited{0};
  std::atomic<std::uint64_t> tasks_spawned{0};
  std::atomic<bool> truncated{false};

  void merge(const WorkCounters& local) {
    cycles.fetch_add(local.cycles_found, std::memory_order_relaxed);
    edges_visited.fetch_add(local.edges_visited, std::memory_order_relaxed);
    vertices_visited.fetch_add(local.vertices_visited,
                               std::memory_order_relaxed);
    tasks_spawned.fetch_add(local.tasks_spawned, std::memory_order_relaxed);
  }

  bool should_spawn() const {
    if (budget != nullptr && budget->expired()) {
      return false;  // expired searches unwind inline, no new tasks
    }
    return fine::should_spawn(sched, popts);
  }
};

// Explores from vertices.back(); `out` holds its out-edges that leave after
// its arrival and inside the window.
void fine_explore(FineStreamRun& run, std::vector<VertexId>& vertices,
                  std::vector<EdgeId>& edges, StreamOutEdges out,
                  std::int32_t rem, WorkCounters& local);

// One spawned branch: enter `v` via edge (`via`, `arrival`) on top of the
// prefix path the task owns.
struct StreamBranchTask {
  FineStreamRun* run;
  VertexId v;
  Timestamp arrival;
  EdgeId via;
  std::int32_t rem;
  std::vector<VertexId> prefix_vertices;
  std::vector<EdgeId> prefix_edges;

  void operator()() {
    prefix_vertices.push_back(v);
    prefix_edges.push_back(via);
    WorkCounters local;
    fine_explore(*run, prefix_vertices, prefix_edges,
                 run->params.graph.out_edges_in_window(v, arrival + 1,
                                                       run->params.hi),
                 rem, local);
    run->merge(local);
  }
};

// Branch tasks must ride the zero-allocation slab spawn path.
static_assert(spawn_uses_slab_v<StreamBranchTask>,
              "StreamBranchTask outgrew the scheduler's task-slab block");

void fine_explore(FineStreamRun& run, std::vector<VertexId>& vertices,
                  std::vector<EdgeId>& edges, StreamOutEdges out,
                  std::int32_t rem, WorkCounters& local) {
  const StreamSearchParams& params = run.params;
  local.vertices_visited += 1;
  TaskGroup group(run.sched);
  bool spawned = false;
  for (const auto& e : out) {
    local.edges_visited += 1;
    if (run.budget != nullptr && !run.budget->charge()) {
      run.truncated.store(true, std::memory_order_relaxed);
      break;  // fall through to the group wait: children unwind the same way
    }
    if (e.dst == params.target) {
      if (!params.bounded || rem >= 1) {
        local.cycles_found += 1;
        report_cycle(params, run.sink, vertices, edges, e.id);
      }
      continue;
    }
    if (params.bounded && rem <= 1) {
      continue;
    }
    // Paths are shallow relative to the window, so membership is a linear
    // scan over the owned path instead of a per-task bitset.
    if (std::find(vertices.begin(), vertices.end(), e.dst) !=
        vertices.end()) {
      continue;
    }
    const std::int32_t next = detail::child_rem(rem, params.bounded);
    if (!params.admissible(e.dst, next)) {
      continue;
    }
    if (run.should_spawn()) {
      local.tasks_spawned += 1;
      spawned = true;
      group.spawn(
          StreamBranchTask{&run, e.dst, e.ts, e.id, next, vertices, edges});
      continue;
    }
    vertices.push_back(e.dst);
    edges.push_back(e.id);
    fine_explore(run, vertices, edges,
                 params.graph.out_edges_in_window(e.dst, e.ts + 1, params.hi),
                 next, local);
    vertices.pop_back();
    edges.pop_back();
  }
  if (spawned) {
    group.wait();
  }
}

// ---------------------------------------------------------------------------
// Shared entry logic
// ---------------------------------------------------------------------------

// Shared prologue of both variants for a lane that did not settle: budget
// derivation, window bounds, scratch growth and the (optional) reverse-BFS
// prune with its root-reachability early-out. Returns the search parameters,
// or nothing when the lane closes no cycle — keeping the serial and fine
// paths structurally unable to diverge on any of these decisions.
struct PreparedSearch {
  StreamSearchParams params;
  std::int32_t rem0;
};

std::optional<PreparedSearch> prepare_search(
    const SlidingWindowGraph& graph, const TemporalEdge& closing,
    Timestamp window, const EnumOptions& options,
    StreamSearchScratch& scratch, WorkCounters& work,
    SearchBudgetState* budget) {
  const bool bounded = options.max_cycle_length > 0;
  const std::int32_t rem0 =
      bounded ? options.max_cycle_length - 1 : detail::kUnboundedRem;
  if (rem0 < 1) {
    return std::nullopt;  // max_cycle_length == 1 admits only self-loops
  }
  const Timestamp lo = saturating_sub(closing.ts, window);
  const Timestamp hi = closing.ts - 1;
  scratch.ensure(graph.num_vertices());
  if (options.use_cycle_union) {
    if (!compute_reverse_prune(graph, closing.src, lo, hi,
                               bounded ? rem0 : -1, scratch, budget)) {
      // Budget expired inside the BFS: the marks are incomplete, so the
      // whole search is abandoned (zero cycles, partial result).
      work.searches_truncated += 1;
      return std::nullopt;
    }
    if (!scratch.reached(closing.dst) ||
        (bounded && scratch.distance(closing.dst) > rem0)) {
      return std::nullopt;
    }
  }
  return PreparedSearch{
      StreamSearchParams{graph,      closing.src, lo,
                         hi,         closing.id,  bounded,
                         options.use_cycle_union, &scratch},
      rem0};
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

std::uint64_t settled_lane_cycles(const TemporalEdge& closing,
                                  WorkCounters& work, CycleSink* sink) {
  if (closing.src != closing.dst) {
    return 0;
  }
  work.cycles_found += 1;
  if (sink != nullptr) {
    sink->on_cycle({&closing.src, 1}, {&closing.id, 1});
  }
  return 1;
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
  if (lane.settled) {
    return settled_lane_cycles(closing, work, sink);
  }
  const auto prepared = prepare_search(graph, closing, window, options,
                                       scratch, work, budget);
  if (!prepared) {
    return 0;
  }
  const StreamSearchParams& params = prepared->params;
  const std::int32_t rem0 = prepared->rem0;
  SerialStreamSearch search{params, scratch, work, sink, budget};
  assert(scratch.path_vertices.empty() && scratch.path_edges.empty());
  scratch.path_vertices.push_back(closing.dst);
  scratch.on_path.set(closing.dst);
  scratch.on_path.set(closing.src);  // the target never re-enters the path
  search.extend(lane.head_out, rem0);
  scratch.on_path.reset(closing.src);
  scratch.on_path.reset(closing.dst);
  scratch.path_vertices.pop_back();
  if (search.truncated) {
    work.searches_truncated += 1;
  }
  return search.found;
}

std::uint64_t fine_cycles_closed_by_edge(const SlidingWindowGraph& graph,
                                         const TemporalEdge& closing,
                                         Timestamp window, Scheduler& sched,
                                         const EnumOptions& options,
                                         const ParallelOptions& popts,
                                         StreamSearchScratch& scratch,
                                         WorkCounters& work, CycleSink* sink,
                                         SearchBudgetState* budget) {
  return fine_cycles_closed_by_edge(graph, closing, window,
                                    settle_edge_lane(graph, closing, window),
                                    sched, options, popts, scratch, work, sink,
                                    budget);
}

std::uint64_t fine_cycles_closed_by_edge(
    const SlidingWindowGraph& graph, const TemporalEdge& closing,
    Timestamp window, const EdgeLane& lane, Scheduler& sched,
    const EnumOptions& options, const ParallelOptions& popts,
    StreamSearchScratch& scratch, WorkCounters& work, CycleSink* sink,
    SearchBudgetState* budget) {
  if (lane.settled) {
    return settled_lane_cycles(closing, work, sink);
  }
  const auto prepared = prepare_search(graph, closing, window, options,
                                       scratch, work, budget);
  if (!prepared) {
    return 0;
  }
  const StreamSearchParams& params = prepared->params;
  // The escalated search gets its own root span nested inside the engine's
  // edge_search span: the gap between the two is the prepare/prune cost.
  TraceSpan trace(sched.tracer(),
                  static_cast<unsigned>(Scheduler::current_worker_id()),
                  TraceName::kSearchRoot, closing.id);
  FineStreamRun run{params, sched, popts, sink, budget};
  std::vector<VertexId> vertices{closing.dst};
  std::vector<EdgeId> edges;
  WorkCounters local;
  // Every nested fine_explore waits for its own task group, so the search
  // has fully quiesced when this call returns (and the scratch's prune marks
  // are no longer read).
  fine_explore(run, vertices, edges, lane.head_out, prepared->rem0, local);
  run.merge(local);
  if (run.truncated.load(std::memory_order_relaxed)) {
    work.searches_truncated += 1;
  }
  work.cycles_found += run.cycles.load(std::memory_order_relaxed);
  work.edges_visited += run.edges_visited.load(std::memory_order_relaxed);
  work.vertices_visited +=
      run.vertices_visited.load(std::memory_order_relaxed);
  work.tasks_spawned += run.tasks_spawned.load(std::memory_order_relaxed);
  return run.cycles.load(std::memory_order_relaxed);
}

}  // namespace parcycle
