#include "core/fine_hc_dfs.hpp"

#include <vector>

#include "core/driver.hpp"
#include "core/hc_dfs.hpp"
#include "core/hc_state.hpp"

namespace parcycle {

namespace {

using Run = fine::FineRun<HcState, HcDistScratch>;

struct HcSearchContext {
  Run& run;
  StartContext ctx;
  const HcDistScratch* dist;
};

bool fine_circuit(HcSearchContext& search, HcState& st, VertexId v,
                  EdgeId via_edge, std::int32_t rem) {
  Run& run = search.run;
  const StartContext& ctx = search.ctx;
  {
    // Entry critical section: the path mutation must not interleave with a
    // thief copying this state.
    LockGuard<Spinlock> guard(st.lock());
    st.push(v, via_edge);
  }
  st.counters.vertices_visited += 1;

  fine::SpawnedChildren<HcSearchContext> children(search);
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
        detail::HcWindowedSearch::report_cycle(st, e.id, run.sink,
                                               edge_scratch);
        found = true;
      }
      continue;
    }
    const std::int32_t next = rem - 1;
    // The hop-distance map is immutable, so its pruning is decided here;
    // only the barrier check is deferred to execution time.
    if (next < 1 || next < search.dist->dist_to_target(e.dst)) {
      continue;
    }
    if (run.should_spawn()) {
      // Re-check the barrier at execution time: the state evolved since the
      // spawn. Spawning an already-barred child is allowed: its barrier may
      // have been rolled back by the time it runs, as in the serial loop.
      children.spawn(st, [w = e.dst, via = e.id, next](HcSearchContext& s,
                                                       HcState& at) {
        return at.can_visit(w, next) && fine_circuit(s, at, w, via, next);
      });
    } else if (st.can_visit(e.dst, next)) {
      found |= fine_circuit(search, st, e.dst, e.id, next);
    }
  }
  found |= children.wait();

  {
    // Exit critical section: unlike fine-Johnson's recursive unblocking this
    // is a bounded LIFO trail rollback (success) or a single barrier raise
    // (failure) — the short-critical-section property that motivates BC-DFS.
    LockGuard<Spinlock> guard(st.lock());
    if (found) {
      st.exit_success(v);
    } else {
      st.exit_failure(v, rem);
    }
    st.pop();
  }
  return found;
}

}  // namespace

EnumResult fine_hc_windowed_cycles(const TemporalGraph& graph,
                                   Timestamp window, int max_hops,
                                   Scheduler& sched,
                                   const EnumOptions& options,
                                   const ParallelOptions& popts,
                                   CycleSink* sink) {
  if (max_hops < 1) {
    return {};
  }
  Run hc_run{graph, window, sched, options, popts, sink};
  // Runs the complete search for one starting edge on the block's state.
  hc_run.run_roots([max_hops](Run& run, const TemporalEdge& e0,
                              HcDistScratch& dist, HcState& state) {
    HcSearchContext search{run, {}, &dist};
    if (!detail::HcWindowedSearch::prepare_start(run.graph, e0, run.window,
                                                 max_hops, dist, search.ctx)) {
      return false;
    }
    {
      LockGuard<Spinlock> guard(state.lock());
      state.push(search.ctx.tail, kInvalidEdge);
    }
    fine_circuit(search, state, search.ctx.head, e0.id, max_hops - 1);
    return true;
  });
  return hc_run.result();
}

}  // namespace parcycle
