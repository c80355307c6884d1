#include "temporal/two_scent.hpp"

#include <algorithm>
#include <vector>

#include "temporal/temporal_johnson_impl.hpp"

namespace parcycle {

namespace {

// A live path summary at some vertex: there is a time-respecting path from
// `root` whose first edge departed at `start`, arriving here at `arrival`.
struct Summary {
  VertexId root;
  Timestamp start;
  Timestamp arrival;
};

}  // namespace

DynamicBitset two_scent_seed_edges(const TemporalGraph& graph,
                                   Timestamp window, TwoScentStats* stats) {
  const VertexId n = graph.num_vertices();
  DynamicBitset seeds(graph.num_edges());
  std::vector<std::vector<Summary>> summaries(n);
  // (root, start) pairs that close a cycle; looked up when flagging edges.
  std::vector<std::vector<Timestamp>> closing_starts(n);
  std::uint64_t live_entries = 0;
  std::uint64_t peak_entries = 0;
  std::uint64_t propagations = 0;

  const auto prune = [&](std::vector<Summary>& list, Timestamp now) {
    std::size_t keep = 0;
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (now - list[i].start <= window) {
        list[keep++] = list[i];
      }
    }
    live_entries -= list.size() - keep;
    list.resize(keep);
  };

  for (const auto& e : graph.edges_by_time()) {
    if (e.src == e.dst) {
      continue;  // self-loops need no search
    }
    auto& at_src = summaries[e.src];
    prune(at_src, e.ts);
    for (const Summary& summary : at_src) {
      if (summary.arrival >= e.ts) {
        continue;  // strict timestamp increase
      }
      propagations += 1;
      if (summary.root == e.dst) {
        // The path closes back into its root: (root, start) is a seed.
        auto& list = closing_starts[summary.root];
        if (std::find(list.begin(), list.end(), summary.start) == list.end()) {
          list.push_back(summary.start);
        }
        continue;
      }
      // Propagate, keeping the earliest arrival per (root, start).
      auto& at_dst = summaries[e.dst];
      bool merged = false;
      for (Summary& existing : at_dst) {
        if (existing.root == summary.root && existing.start == summary.start) {
          existing.arrival = std::min(existing.arrival, e.ts);
          merged = true;
          break;
        }
      }
      if (!merged) {
        at_dst.push_back(Summary{summary.root, summary.start, e.ts});
        live_entries += 1;
      }
    }
    // The edge itself starts a fresh path rooted at its source.
    auto& at_dst = summaries[e.dst];
    bool merged = false;
    for (Summary& existing : at_dst) {
      if (existing.root == e.src && existing.start == e.ts) {
        existing.arrival = std::min(existing.arrival, e.ts);
        merged = true;
        break;
      }
    }
    if (!merged) {
      at_dst.push_back(Summary{e.src, e.ts, e.ts});
      live_entries += 1;
    }
    peak_entries = std::max(peak_entries, live_entries);
  }

  std::uint64_t seed_count = 0;
  for (const auto& e : graph.edges_by_time()) {
    if (e.src == e.dst) {
      continue;
    }
    const auto& list = closing_starts[e.src];
    if (std::find(list.begin(), list.end(), e.ts) != list.end()) {
      seeds.set(e.id);
      seed_count += 1;
    }
  }
  if (stats != nullptr) {
    stats->seed_edges = seed_count;
    stats->summary_entries_peak = peak_entries;
    stats->propagations = propagations;
  }
  return seeds;
}

EnumResult two_scent_cycles(const TemporalGraph& graph, Timestamp window,
                            const EnumOptions& options, CycleSink* sink,
                            TwoScentStats* stats) {
  const DynamicBitset seeds = two_scent_seed_edges(graph, window, stats);
  EnumOptions search_options = options;
  search_options.use_cycle_union = false;  // phase 1 already did the pruning
  return detail::TemporalJohnsonRun{graph, window, search_options, sink}
      .serial([&seeds](const detail::TemporalJohnsonRun& run,
                       const TemporalEdge& e0, CycleUnionBlock& block,
                       ClosingTimeState& state) {
        return seeds.test(e0.id) &&
               detail::search_start(run, e0, block, state);
      });
}

}  // namespace parcycle
