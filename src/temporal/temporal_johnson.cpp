#include "temporal/temporal_johnson.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <vector>

#include "core/driver.hpp"
#include "core/johnson_impl.hpp"  // kUnboundedRem / child_rem
#include "temporal/temporal_johnson_impl.hpp"

namespace parcycle {

namespace detail {

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

namespace {

// First edge of a time-ordered adjacency with ts > after.
template <class Edge>
const Edge* first_after(std::span<const Edge> adjacency, Timestamp after) {
  return std::upper_bound(
      adjacency.data(), adjacency.data() + adjacency.size(), after,
      [](Timestamp t, const Edge& e) { return t < e.ts; });
}

// Does a time-ordered adjacency hold an edge with ts in (after, hi]?
template <class Edge>
bool any_after(std::span<const Edge> adjacency, Timestamp after,
               Timestamp hi) {
  const Edge* first = first_after(adjacency, after);
  return first != adjacency.data() + adjacency.size() && first->ts <= hi;
}

// Fills `out` with v's out-edges with ts in (after, hi] that can lie on a
// cycle of the start: those into `tail` or into a vertex of `cycle_union`
// (the others need no unblock registration either). Returns how many edges
// the window holds, kept or not: the edges the search counts as visited.
// One upper bound and a forward scan; with `by_dst` the kept edges are
// grouped by destination, each group ascending by (ts, id): the order a
// stable sort by dst of the time-ordered adjacency gives, without the sort's
// temporary buffer.
std::size_t collect_out_edges(const TemporalGraph& graph, VertexId v,
                              Timestamp after, Timestamp hi, VertexId tail,
                              CycleUnionView cycle_union, bool by_dst,
                              std::vector<TemporalGraph::OutEdge>& out) {
  out.clear();
  const auto all = graph.out_edges(v);
  const TemporalGraph::OutEdge* const end = all.data() + all.size();
  const TemporalGraph::OutEdge* const first = first_after(all, after);
  const TemporalGraph::OutEdge* e = first;
  for (; e != end && e->ts <= hi; ++e) {
    if (e->dst == tail || cycle_union.contains(e->dst)) {
      out.push_back(*e);
    }
  }
  if (by_dst) {
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.dst != b.dst ? a.dst < b.dst : a.id < b.id;
    });
  }
  return static_cast<std::size_t>(e - first);
}

}  // namespace

bool TemporalJohnsonSearch::prepare_root(const TemporalGraph& graph,
                                         const TemporalEdge& e0,
                                         Timestamp window,
                                         CycleUnionView cycle_union,
                                         ClosingTimeState& state,
                                         Timestamp& hi_out) {
  const Timestamp hi = saturating_add(e0.ts, window);
  hi_out = hi;
  // A head outside the union means no temporal cycle through e0; so does a
  // head without a strictly-later out-edge or a tail without a later
  // in-edge. A head inside a block's union implies both edges, so only a
  // search without a block looks them up.
  if (!cycle_union.contains(e0.dst)) {
    return false;
  }
  if (cycle_union.lanes == nullptr &&
      (!any_after(graph.out_edges(e0.dst), e0.ts, hi) ||
       !any_after(graph.in_edges(e0.src), e0.ts, hi))) {
    return false;
  }
  state.push(e0.src);  // tail; empty bundle, only pins the vertex
  ClosingTimeState::Hop& head = state.push(e0.dst);
  head.edges.push_back(BundleEdge{e0.ts, e0.id, 1});
  return true;
}

void TemporalJohnsonSearch::report_instances(const ClosingTimeState& state,
                                             VertexId tail,
                                             const BundleEdge& closing,
                                             CycleSink* sink) {
  if (sink == nullptr) {
    return;
  }
  const std::size_t len = state.path_length();
  std::vector<VertexId> vertices(len);
  for (std::size_t i = 0; i < len; ++i) {
    vertices[i] = state.hop(i).vertex;
  }
  assert(vertices[0] == tail);
  (void)tail;
  std::vector<EdgeId> edges(len);
  edges[len - 1] = closing.id;

  // Depth-first expansion of every strictly-increasing edge selection. Hop h
  // (h >= 1) selects the inbound edge of vertices[h], stored at edges[h-1];
  // every selected timestamp must precede the closing edge's.
  const std::function<void(std::size_t, Timestamp)> expand =
      [&](std::size_t hop, Timestamp prev_ts) {
        if (hop == len) {
          sink->on_cycle({vertices.data(), len}, {edges.data(), len});
          return;
        }
        for (const BundleEdge& edge : state.hop(hop).edges) {
          if (edge.ts <= prev_ts) {
            continue;
          }
          if (edge.ts >= closing.ts) {
            break;  // edges ascend by ts: nothing later can fit
          }
          edges[hop - 1] = edge.id;
          expand(hop + 1, edge.ts);
        }
      };
  expand(1, std::numeric_limits<Timestamp>::min());
}

// ---------------------------------------------------------------------------
// Serial search
// ---------------------------------------------------------------------------

bool TemporalJohnsonSearch::search_from(const TemporalEdge& e0,
                                        ClosingTimeState& state,
                                        CycleUnionView cycle_union) {
  Timestamp hi = 0;
  if (!prepare_root(graph_, e0, window_, cycle_union, state, hi)) {
    return false;
  }
  tail_ = e0.src;
  hi_ = hi;
  union_ = cycle_union;
  const bool bounded = options_.max_cycle_length > 0;
  const std::int32_t rem0 = bounded ? options_.max_cycle_length - 1
                                    : detail::kUnboundedRem;
  if (rem0 >= 1) {
    explore(state, rem0);
  }
  return true;
}

bool search_start(const TemporalJohnsonRun& run, const TemporalEdge& e0,
                  CycleUnionBlock& block, ClosingTimeState& state) {
  return TemporalJohnsonSearch(run.graph, run.window, run.options, run.sink)
      .search_from(e0, state, block.view(e0.id));
}

bool TemporalJohnsonSearch::explore(ClosingTimeState& st, std::int32_t rem) {
  const bool bounded = options_.max_cycle_length > 0;
  const std::size_t hop_index = st.path_length() - 1;
  const VertexId v = st.hop(hop_index).vertex;
  const Timestamp min_arrival = st.hop(hop_index).edges.front().ts;
  st.counters.vertices_visited += 1;

  // Entry: provisionally close v for arrivals >= the current one (2SCENT's
  // discipline). If the subtree finds a cycle the exit raise revises this;
  // if it fails, the claim stands and is backed by the per-edge unblock
  // registrations made below the moment each branch fails.
  if (!bounded) {
    st.lower_closing_time(v, min_arrival);
  }

  // Collect admissible continuations, grouped by destination (bundling) or
  // one edge per group (ablation).
  std::vector<TemporalGraph::OutEdge>& scratch = st.frame(hop_index).edges;
  st.counters.edges_visited +=
      collect_out_edges(graph_, v, min_arrival, hi_, tail_, union_,
                        options_.path_bundling, scratch);

  bool found = false;
  Timestamp success_max = std::numeric_limits<Timestamp>::min();
  // Registers a non-closing edge as failed-for-now; fires later if ct(w)
  // rises above it. Must happen immediately (not at exit): a raise cascading
  // out of a later sibling's success would otherwise pass the entry by.
  const auto register_failed = [&](VertexId w, std::size_t first,
                                   std::size_t last) {
    if (bounded) {
      return;
    }
    for (std::size_t k = first; k < last; ++k) {
      st.register_unblock(w, v, scratch[k].ts);
    }
  };

  std::size_t i = 0;
  while (i < scratch.size()) {
    std::size_t j = i + 1;
    if (options_.path_bundling) {
      while (j < scratch.size() && scratch[j].dst == scratch[i].dst) {
        j += 1;
      }
    }
    const VertexId w = scratch[i].dst;

    if (w == tail_) {
      // Closing edges: every admissible one closes all instances arriving
      // strictly before it.
      for (std::size_t k = i; k < j; ++k) {
        const std::uint64_t count =
            instances_before(st.hop(hop_index), scratch[k].ts);
        if (count > 0 && (!bounded || rem >= 1)) {
          st.counters.cycles_found += count;
          found = true;
          success_max = std::max(success_max, scratch[k].ts);
          report_instances(st, tail_,
                           BundleEdge{scratch[k].ts, scratch[k].id, count},
                           sink_);
        }
      }
      i = j;
      continue;
    }

    const std::int32_t next = detail::child_rem(rem, bounded);
    if (next < 1 || st.on_path(w)) {
      register_failed(w, i, j);
      i = j;
      continue;
    }
    // Usable edges: closing-time pruning applies per edge (skipped when
    // length-bounded: the blocking lemma does not carry over to budgets).
    // Pruned edges are registered right away so a later ct(w) raise
    // re-enables them even if the rest of this branch succeeds.
    ClosingTimeState::Hop& hop = st.push(w);
    for (std::size_t k = i; k < j; ++k) {
      if (!bounded && !st.arrival_open(w, scratch[k].ts)) {
        st.register_unblock(w, v, scratch[k].ts);
        continue;
      }
      const std::uint64_t count =
          instances_before(st.hop(hop_index), scratch[k].ts);
      if (count > 0) {
        hop.edges.push_back(BundleEdge{scratch[k].ts, scratch[k].id, count});
      }
    }
    if (hop.edges.empty()) {
      st.pop();
      i = j;
      continue;
    }
    const Timestamp branch_max = hop.edges.back().ts;
    if (explore(st, next)) {
      found = true;
      success_max = std::max(success_max, branch_max);
    } else {
      register_failed(w, i, j);
    }
    st.pop();
    i = j;
  }

  if (!bounded && found) {
    // Arrivals before the last successful departure may still close a cycle;
    // later ones provably fail (every later edge failed and is registered).
    st.raise_closing_time(v, success_max);
  }
  return found;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Serial and coarse-grained drivers
// ---------------------------------------------------------------------------

EnumResult temporal_johnson_cycles(const TemporalGraph& graph,
                                   Timestamp window,
                                   const EnumOptions& options,
                                   CycleSink* sink) {
  return detail::TemporalJohnsonRun{graph, window, options, sink}.serial(
      detail::search_start);
}

EnumResult coarse_temporal_johnson_cycles(const TemporalGraph& graph,
                                          Timestamp window, Scheduler& sched,
                                          const EnumOptions& options,
                                          CycleSink* sink) {
  return detail::TemporalJohnsonRun{graph, window, options, sink}.coarse(
      sched, detail::search_start);
}

// ---------------------------------------------------------------------------
// Fine-grained driver (Sections 5 + 7): every bundle exploration is a task.
// ---------------------------------------------------------------------------

namespace {

using FineRun = fine::FineRun<ClosingTimeState, CycleUnionBlock>;

struct TemporalSearchContext {
  FineRun& run;
  VertexId tail = kInvalidVertex;
  Timestamp hi = 0;
  CycleUnionView cycle_union;
};

bool fine_explore(TemporalSearchContext& search, ClosingTimeState& st,
                  std::int32_t rem) {
  FineRun& run = search.run;
  const bool bounded = run.bounded;
  const std::size_t hop_index = st.path_length() - 1;
  const VertexId v = st.hop(hop_index).vertex;
  const Timestamp min_arrival = st.hop(hop_index).edges.front().ts;
  st.counters.vertices_visited += 1;

  // Entry discipline: see TemporalJohnsonSearch::explore. All state
  // mutations happen under the state lock so thieves copy a stable snapshot.
  if (!bounded) {
    LockGuard<Spinlock> guard(st.lock());
    st.lower_closing_time(v, min_arrival);
  }

  ClosingTimeState::Frame& frame = st.frame(hop_index);
  const std::vector<TemporalGraph::OutEdge>& scratch = frame.edges;
  st.counters.edges_visited += detail::collect_out_edges(
      run.graph, v, min_arrival, search.hi, search.tail,
      search.cycle_union, run.options.path_bundling, frame.edges);

  fine::SpawnedChildren<TemporalSearchContext> children(search);
  bool found = false;
  Timestamp success_max = std::numeric_limits<Timestamp>::min();
  // Bundles whose subtree succeeded contribute their last usable ts; stolen
  // children operate on private states and cannot report which branch won,
  // so the spawned maximum stands in (conservative: raises ct further, which
  // is always sound).
  Timestamp spawned_max = std::numeric_limits<Timestamp>::min();
  // Scratch ranges of spawned branches: registered wholesale if this call
  // exits without a success (stolen children register failures only on their
  // own states; the parent's entry-lowering claim needs local entries).
  std::vector<std::pair<std::size_t, std::size_t>>& spawned_ranges =
      frame.spawned;
  spawned_ranges.clear();

  const auto register_failed = [&](VertexId w, std::size_t first,
                                   std::size_t last) {
    if (bounded) {
      return;
    }
    LockGuard<Spinlock> guard(st.lock());
    for (std::size_t k = first; k < last; ++k) {
      st.register_unblock(w, v, scratch[k].ts);
    }
  };

  std::size_t i = 0;
  while (i < scratch.size()) {
    std::size_t j = i + 1;
    if (run.options.path_bundling) {
      while (j < scratch.size() && scratch[j].dst == scratch[i].dst) {
        j += 1;
      }
    }
    const VertexId w = scratch[i].dst;

    if (w == search.tail) {
      for (std::size_t k = i; k < j; ++k) {
        const std::uint64_t count =
            detail::instances_before(st.hop(hop_index), scratch[k].ts);
        if (count > 0 && (!bounded || rem >= 1)) {
          st.counters.cycles_found += count;
          found = true;
          success_max = std::max(success_max, scratch[k].ts);
          detail::TemporalJohnsonSearch::report_instances(
              st, search.tail,
              BundleEdge{scratch[k].ts, scratch[k].id, count}, run.sink);
        }
      }
      i = j;
      continue;
    }

    const std::int32_t next = detail::child_rem(rem, bounded);
    if (next < 1) {
      i = j;
      continue;
    }
    // Instances grow with the departure time, so the group's last edge has
    // the most: without any there, no edge of the group carries a path.
    if (detail::instances_before(st.hop(hop_index), scratch[j - 1].ts) == 0) {
      i = j;
      continue;
    }
    const Timestamp branch_max = scratch[j - 1].ts;
    if (run.should_spawn()) {
      // The child task re-checks on-path and closing times at execution and
      // registers its own failures on whichever state it runs on.
      std::vector<BundleEdge> bundle;
      for (std::size_t k = i; k < j; ++k) {
        const std::uint64_t count =
            detail::instances_before(st.hop(hop_index), scratch[k].ts);
        if (count > 0) {
          bundle.push_back(BundleEdge{scratch[k].ts, scratch[k].id, count});
        }
      }
      spawned_max = std::max(spawned_max, branch_max);
      spawned_ranges.emplace_back(i, j);
      children.spawn(st, [w, bundle = std::move(bundle), next](
                             TemporalSearchContext& s, ClosingTimeState& at) {
        if (at.on_path(w)) {
          return false;
        }
        {
          // Re-filter the bundle against the (possibly evolved) closing
          // times, straight into the pushed hop's edge buffer.
          LockGuard<Spinlock> guard(at.lock());
          ClosingTimeState::Hop& hop = at.push(w);
          for (const auto& edge : bundle) {
            if (s.run.bounded || at.arrival_open(w, edge.ts)) {
              hop.edges.push_back(edge);
            }
          }
          if (hop.edges.empty()) {
            at.pop();
            return false;
          }
        }
        const bool child_found = fine_explore(s, at, next);
        LockGuard<Spinlock> guard(at.lock());
        at.pop();
        return child_found;
      });
      i = j;
      continue;
    }
    if (st.on_path(w)) {
      register_failed(w, i, j);
      i = j;
      continue;
    }
    // The usable edges go straight into the pushed hop's edge buffer.
    bool entered = false;
    {
      LockGuard<Spinlock> guard(st.lock());
      ClosingTimeState::Hop& hop = st.push(w);
      for (std::size_t k = i; k < j; ++k) {
        const std::uint64_t count =
            detail::instances_before(st.hop(hop_index), scratch[k].ts);
        if (count == 0) {
          continue;
        }
        if (bounded || st.arrival_open(w, scratch[k].ts)) {
          hop.edges.push_back(BundleEdge{scratch[k].ts, scratch[k].id, count});
        } else {
          st.register_unblock(w, v, scratch[k].ts);
        }
      }
      entered = !hop.edges.empty();
      if (!entered) {
        st.pop();
      }
    }
    if (!entered) {
      i = j;
      continue;
    }
    const bool child_found = fine_explore(search, st, next);
    {
      LockGuard<Spinlock> guard(st.lock());
      st.pop();
    }
    if (child_found) {
      found = true;
      success_max = std::max(success_max, branch_max);
    } else {
      register_failed(w, i, j);
    }
    i = j;
  }

  if (!spawned_ranges.empty()) {
    if (children.wait()) {
      found = true;
    }
    // Whether stolen subtrees succeeded or failed we only know in aggregate;
    // treat every spawned branch as potentially successful (raise, never
    // claim failure): sound in both directions.
    success_max = std::max(success_max, spawned_max);
    if (!found) {
      for (const auto& [first, last] : spawned_ranges) {
        register_failed(scratch[first].dst, first, last);
      }
    }
  }

  if (!bounded && found) {
    LockGuard<Spinlock> guard(st.lock());
    st.raise_closing_time(v, success_max);
  }
  return found;
}

// Searches one root on the block's state.
bool temporal_search_root(FineRun& run, const TemporalEdge& e0,
                          CycleUnionBlock& block, ClosingTimeState& state) {
  const CycleUnionView cycle_union = block.view(e0.id);
  Timestamp hi = 0;
  if (!detail::TemporalJohnsonSearch::prepare_root(run.graph, e0, run.window,
                                                   cycle_union, state, hi)) {
    return false;  // no cycle: skipped before touching the state
  }
  TemporalSearchContext search{run, e0.src, hi, cycle_union};
  const std::int32_t rem0 = run.bounded ? run.options.max_cycle_length - 1
                                        : detail::kUnboundedRem;
  if (rem0 >= 1) {
    fine_explore(search, state, rem0);
  }
  return true;
}

}  // namespace

EnumResult fine_temporal_johnson_cycles(const TemporalGraph& graph,
                                        Timestamp window, Scheduler& sched,
                                        const EnumOptions& options,
                                        const ParallelOptions& popts,
                                        CycleSink* sink) {
  FineRun run{graph, window, sched, options, popts, sink};
  run.run_roots(temporal_search_root);
  return run.result();
}

}  // namespace parcycle
