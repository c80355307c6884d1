#include "core/fine_johnson.hpp"

#include <vector>

#include "core/driver.hpp"
#include "core/johnson_impl.hpp"

namespace parcycle {

namespace {

using detail::child_rem;
using detail::kUnboundedRem;

using Run = fine::FineRun<JohnsonState, CycleUnionScratch>;

struct SearchContext {
  Run& run;
  StartContext ctx;
};

// Recursive call on an already-resolved state. Returns true when the subtree
// found at least one cycle (Johnson's f flag).
bool fine_circuit(SearchContext& search, JohnsonState& st, VertexId v,
                  EdgeId via_edge, std::int32_t rem) {
  Run& run = search.run;
  const StartContext& ctx = search.ctx;
  {
    // Entry critical section: the path/blocked mutation must not interleave
    // with a thief copying this state.
    LockGuard<Spinlock> guard(st.lock());
    st.push(v, via_edge);
  }
  st.counters.vertices_visited += 1;

  fine::SpawnedChildren<SearchContext> children(search);
  bool found = false;
  std::vector<EdgeId> edge_scratch;

  for (const auto& e : run.graph.out_edges_in_window(v, ctx.t0, ctx.hi)) {
    if (e.id <= ctx.e0) {
      continue;
    }
    st.counters.edges_visited += 1;
    if (e.dst == ctx.tail) {
      if (rem >= 1) {
        st.counters.cycles_found += 1;
        detail::WindowedJohnsonSearch::report_cycle(st, e.id, run.sink,
                                                    edge_scratch);
        found = true;
      }
      continue;
    }
    const std::int32_t next = child_rem(rem, run.bounded);
    if (next < 1 || !ctx.vertex_allowed(e.dst)) {
      continue;
    }
    if (run.should_spawn()) {
      // Re-check visitability at execution time: the state evolved since the
      // spawn. Spawning an already-blocked child is allowed: it may have been
      // unblocked by the time it runs, exactly as in the serial neighbor loop.
      children.spawn(st, [w = e.dst, via = e.id, next](SearchContext& s,
                                                       JohnsonState& at) {
        return s.ctx.vertex_allowed(w) && at.can_visit(w, next) &&
               fine_circuit(s, at, w, via, next);
      });
    } else if (st.can_visit(e.dst, next)) {
      found |= fine_circuit(search, st, e.dst, e.id, next);
    }
  }
  found |= children.wait();

  {
    // Exit critical section: decide the blocked status of v. This is where
    // the recursive unblocking runs — the long critical section the paper
    // blames for Johnson's synchronisation overhead on low cycle-to-vertex
    // ratio graphs.
    LockGuard<Spinlock> guard(st.lock());
    if (found) {
      st.exit_success(v);
    } else {
      st.exit_failure(v, rem);
      for (const auto& e : run.graph.out_edges_in_window(v, ctx.t0, ctx.hi)) {
        if (e.id > ctx.e0 && e.dst != ctx.tail && ctx.vertex_allowed(e.dst)) {
          st.blist_add(e.dst, v);
        }
      }
    }
    st.pop();
  }
  return found;
}

// Runs the complete search for one starting edge on the block's state.
bool search_root(Run& run, const TemporalEdge& e0,
                 CycleUnionScratch& cycle_union, JohnsonState& state) {
  const std::int32_t rem0 =
      run.bounded ? run.options.max_cycle_length - 1 : kUnboundedRem;
  SearchContext search{run, {}};
  if (rem0 < 1 || !detail::WindowedJohnsonSearch::prepare_start(
                      run.graph, e0, run.window, run.options.use_cycle_union,
                      &cycle_union, search.ctx)) {
    return false;
  }
  {
    LockGuard<Spinlock> guard(state.lock());
    state.push(search.ctx.tail, kInvalidEdge);
  }
  fine_circuit(search, state, search.ctx.head, e0.id, rem0);
  return true;
}

}  // namespace

EnumResult fine_johnson_windowed_cycles(const TemporalGraph& graph,
                                        Timestamp window, Scheduler& sched,
                                        const EnumOptions& options,
                                        const ParallelOptions& popts,
                                        CycleSink* sink) {
  Run run{graph, window, sched, options, popts, sink};
  run.run_roots(search_root);
  return run.result();
}

}  // namespace parcycle
