#include "temporal/temporal_johnson.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/driver.hpp"
#include "core/johnson_impl.hpp"  // kUnboundedRem / child_rem
#include "temporal/temporal_johnson_impl.hpp"

namespace parcycle {

namespace detail {

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

// Number of path instances arriving strictly before `ts` (prefix sum over the
// hop's bundle edges, which are ascending by ts).
std::uint64_t instances_before(const ClosingTimeState::Hop& hop,
                               Timestamp ts) {
  std::uint64_t total = 0;
  for (const auto& edge : hop.edges) {
    if (edge.ts >= ts) {
      break;
    }
    total += edge.instances;
  }
  return total;
}

// The instances of the current path closed by one edge, expanded in
// lockstep with the DP count: every strictly increasing choice of one
// bundle edge per hop that arrives before the closing edge. Hop h (h >= 1)
// selects the inbound edge of vertices[h], stored at edges[h - 1].
struct InstanceExpansion {
  const ClosingTimeState& state;
  Timestamp closing_ts;
  std::vector<VertexId>& vertices;
  std::vector<EdgeId>& edges;
  CycleSink* sink;

  void expand(std::size_t hop, Timestamp prev_ts) const {
    if (hop == vertices.size()) {
      sink->on_cycle({vertices.data(), vertices.size()},
                     {edges.data(), edges.size()});
      return;
    }
    for (const BundleEdge& edge : state.hop(hop).edges) {
      if (edge.ts <= prev_ts) {
        continue;
      }
      if (edge.ts >= closing_ts) {
        break;  // edges ascend by ts: nothing later can fit
      }
      edges[hop - 1] = edge.id;
      expand(hop + 1, edge.ts);
    }
  }
};

// Reports every instance of the current path closed by `closing` to `sink`.
// Reads only the caller's state: thread-safe given a thread-safe sink.
void report_instances(const ClosingTimeState& state, const BundleEdge& closing,
                      CycleSink* sink) {
  if (sink == nullptr) {
    return;
  }
  thread_local std::vector<VertexId> vertices;
  thread_local std::vector<EdgeId> edges;
  const std::size_t len = state.path_length();
  vertices.resize(len);
  for (std::size_t i = 0; i < len; ++i) {
    vertices[i] = state.hop(i).vertex;
  }
  edges.resize(len);
  edges[len - 1] = closing.id;
  InstanceExpansion{state, closing.ts, vertices, edges, sink}.expand(
      1, std::numeric_limits<Timestamp>::min());
}

// The search context of one root.
template <typename Spawner>
struct TemporalSearch {
  Spawner run;
  const TemporalGraph& graph;
  CycleSink* sink;
  bool bounded;
  bool bundling;
  VertexId tail;
  Timestamp hi;
  CycleUnionView cycle_union;
};

// The recursive call at the path's last hop, with `rem` edges of budget
// left; true when its subtree found a cycle. The hop's out-edges go in
// groups, one per destination (a bundle) or one per edge without bundling,
// each entered in place or, under a fine run's spawn policy, spawned as a
// task that re-checks on-path and closing times on the state it runs on.
template <typename Search>
bool explore(Search& search, ClosingTimeState& st, std::int32_t rem) {
  using Run = std::remove_reference_t<decltype(search.run)>;
  using Guard = typename Run::Guard;
  const bool bounded = search.bounded;
  const std::size_t hop_index = st.path_length() - 1;
  const VertexId v = st.hop(hop_index).vertex;
  const Timestamp min_arrival = st.hop(hop_index).edges.front().ts;
  assert(rem >= 1);
  st.counters.vertices_visited += 1;

  // Entry: provisionally close v for arrivals >= the current one (2SCENT's
  // discipline). If the subtree finds a cycle the exit raise revises this;
  // if it fails, the claim stands and is backed by the per-edge unblock
  // registrations made below the moment each branch fails.
  if (!bounded) {
    Guard guard(st.lock());
    st.lower_closing_time(v, min_arrival);
  }

  ClosingTimeState::Frame& frame = st.frame(hop_index);
  const std::vector<TemporalGraph::OutEdge>& out = frame.edges;
  st.counters.edges_visited +=
      collect_out_edges(search.graph, v, min_arrival, search.hi, search.tail,
                        search.cycle_union, search.bundling, frame.edges);
  // The instances of the current path that arrive strictly before `ts`.
  // Every collected edge departs after the hop's first arrival, and every
  // bundle entry carries at least one instance (the root's carries one, and
  // each other entry is pushed with its count), so there is at least one.
  const auto instances = [&st, hop_index](Timestamp ts) {
    const std::uint64_t count = instances_before(st.hop(hop_index), ts);
    assert(count > 0);
    return count;
  };

  typename Run::template Children<Search> children(search);
  bool found = false;
  Timestamp success_max = std::numeric_limits<Timestamp>::min();
  // Spawned groups contribute their last departure: a stolen child runs on
  // a state of its own and cannot report which branch won, so the spawned
  // maximum stands in (conservative: raises ct further, which is always
  // sound).
  Timestamp spawned_max = std::numeric_limits<Timestamp>::min();
  // The spawned groups, registered wholesale if this call exits without a
  // success (stolen children register failures only on their own states;
  // the entry claim needs local entries).
  std::vector<std::pair<std::size_t, std::size_t>>& spawned = frame.spawned;
  spawned.clear();

  // Registers the group [first, last) as failed-for-now; an edge fires later
  // if the closing time of its destination rises above it. Must happen
  // immediately (not at exit): a raise cascading out of a later sibling's
  // success would otherwise pass the entry by.
  const auto register_failed = [&](std::size_t first, std::size_t last) {
    if (bounded) {
      return;
    }
    Guard guard(st.lock());
    for (std::size_t k = first; k < last; ++k) {
      st.register_unblock(out[k].dst, v, out[k].ts);
    }
  };

  for (std::size_t i = 0, j = 0; i < out.size(); i = j) {
    j = i + 1;
    if (search.bundling) {
      while (j < out.size() && out[j].dst == out[i].dst) {
        j += 1;
      }
    }
    const VertexId w = out[i].dst;

    if (w == search.tail) {
      // Closing edges: each closes every instance arriving before it.
      for (std::size_t k = i; k < j; ++k) {
        const std::uint64_t count = instances(out[k].ts);
        st.counters.cycles_found += count;
        found = true;
        success_max = std::max(success_max, out[k].ts);
        report_instances(st, BundleEdge{out[k].ts, out[k].id, count},
                         search.sink);
      }
      continue;
    }

    const std::int32_t next = child_rem(rem, bounded);
    if (next < 1) {
      continue;
    }
    // Before the spawn test: a spawned task runs on its creator's path at
    // the spawn, so an on-path group fails the same way in either branch.
    if (st.on_path(w)) {
      register_failed(i, j);
      continue;
    }
    if (search.run.should_spawn()) {
      std::vector<BundleEdge> bundle;
      for (std::size_t k = i; k < j; ++k) {
        bundle.push_back(
            BundleEdge{out[k].ts, out[k].id, instances(out[k].ts)});
      }
      spawned_max = std::max(spawned_max, out[j - 1].ts);
      spawned.emplace_back(i, j);
      children.spawn(st, [w, bundle = std::move(bundle), next](
                             Search& s, ClosingTimeState& at) {
        assert(!at.on_path(w));
        {
          // Re-filter the bundle against the (possibly evolved) closing
          // times, straight into the pushed hop's edge buffer.
          Guard guard(at.lock());
          ClosingTimeState::Hop& hop = at.push(w);
          for (const auto& edge : bundle) {
            if (s.bounded || at.arrival_open(w, edge.ts)) {
              hop.edges.push_back(edge);
            }
          }
          if (hop.edges.empty()) {
            at.pop();
            return false;
          }
        }
        const bool child_found = explore(s, at, next);
        Guard guard(at.lock());
        at.pop();
        return child_found;
      });
      continue;
    }
    // The usable edges go straight into the pushed hop's edge buffer.
    // Closing-time pruning applies per edge (not when length-bounded: the
    // blocking lemma does not carry over to budgets); pruned edges are
    // registered right away so a later ct(w) raise re-enables them even if
    // the rest of this branch succeeds.
    Timestamp branch_max = 0;
    {
      Guard guard(st.lock());
      ClosingTimeState::Hop& hop = st.push(w);
      for (std::size_t k = i; k < j; ++k) {
        if (bounded || st.arrival_open(w, out[k].ts)) {
          hop.edges.push_back(
              BundleEdge{out[k].ts, out[k].id, instances(out[k].ts)});
        } else {
          st.register_unblock(w, v, out[k].ts);
        }
      }
      if (hop.edges.empty()) {
        st.pop();
        continue;
      }
      branch_max = hop.edges.back().ts;
    }
    const bool child_found = explore(search, st, next);
    {
      Guard guard(st.lock());
      st.pop();
    }
    if (child_found) {
      found = true;
      success_max = std::max(success_max, branch_max);
    } else {
      register_failed(i, j);
    }
  }

  if (!spawned.empty()) {
    found |= children.wait();
    // Whether spawned subtrees succeeded is known only in aggregate: treat
    // every spawned group as potentially successful (raise, never claim
    // failure), sound in both directions.
    success_max = std::max(success_max, spawned_max);
    if (!found) {
      for (const auto& [first, last] : spawned) {
        register_failed(first, last);
      }
    }
  }

  if (!bounded && found) {
    // Arrivals before the last successful departure may still close a cycle;
    // later ones provably fail (every later edge failed and is registered).
    Guard guard(st.lock());
    st.raise_closing_time(v, success_max);
  }
  return found;
}

// The per-start hook of every temporal Johnson driver: searches e0 on a
// reset state, or returns false without touching it when no temporal cycle
// can pass through e0.
constexpr auto search_root = [](auto& run, const TemporalEdge& e0,
                                CycleUnionBlock& block,
                                ClosingTimeState& state) {
  if (run.options.max_cycle_length == 1) {
    return false;  // only self-loops, handled by the root loops
  }
  const CycleUnionView cycle_union = block.view(e0.id);
  const Timestamp hi = saturating_add(e0.ts, run.window);
  // A head outside the union means no temporal cycle through e0; so does a
  // head without a strictly-later out-edge or a tail without a later
  // in-edge. A head inside a block's union implies both edges, so only a
  // search without a block looks them up.
  if (!cycle_union.contains(e0.dst)) {
    return false;
  }
  if (cycle_union.lanes == nullptr &&
      (!any_after(run.graph.out_edges(e0.dst), e0.ts, hi) ||
       !any_after(run.graph.in_edges(e0.src), e0.ts, hi))) {
    return false;
  }
  state.push(e0.src);  // tail; empty bundle, only pins the vertex
  state.push(e0.dst).edges.push_back(BundleEdge{e0.ts, e0.id, 1});
  const bool bounded = run.options.max_cycle_length > 0;
  using Spawner = decltype(spawner(run));
  TemporalSearch<Spawner> search{spawner(run), run.graph, run.sink, bounded,
                                 run.options.path_bundling, e0.src, hi,
                                 cycle_union};
  explore(search, state,
          bounded ? run.options.max_cycle_length - 1 : kUnboundedRem);
  return true;
};

}  // namespace

bool search_start(const TemporalJohnsonRun& run, const TemporalEdge& e0,
                  CycleUnionBlock& block, ClosingTimeState& state) {
  return search_root(run, e0, block, state);
}

}  // namespace detail

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

EnumResult fine_temporal_johnson_cycles(const TemporalGraph& graph,
                                        Timestamp window, Scheduler& sched,
                                        const EnumOptions& options,
                                        const ParallelOptions& popts,
                                        CycleSink* sink) {
  fine::FineRun<ClosingTimeState, CycleUnionBlock> run{graph, window, sched,
                                                       options, popts, sink};
  run.run_roots(detail::search_root);
  return run.result();
}

}  // namespace parcycle
