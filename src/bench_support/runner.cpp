#include "bench_support/runner.hpp"

#include <cctype>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/coarse_grained.hpp"
#include "core/fine_hc_dfs.hpp"
#include "core/fine_johnson.hpp"
#include "core/fine_read_tarjan.hpp"
#include "core/hc_dfs.hpp"
#include "core/johnson.hpp"
#include "core/read_tarjan.hpp"
#include "core/tiernan.hpp"
#include "support/stats.hpp"
#include "temporal/brute.hpp"
#include "temporal/temporal_johnson.hpp"
#include "temporal/temporal_johnson_impl.hpp"
#include "temporal/temporal_read_tarjan.hpp"
#include "temporal/two_scent.hpp"

namespace parcycle {

std::string algo_name(Algo algo) {
  switch (algo) {
    case Algo::kFineJohnson:
      return "fine-Johnson";
    case Algo::kFineReadTarjan:
      return "fine-Read-Tarjan";
    case Algo::kCoarseJohnson:
      return "coarse-Johnson";
    case Algo::kCoarseReadTarjan:
      return "coarse-Read-Tarjan";
    case Algo::kSerialJohnson:
      return "serial-Johnson";
    case Algo::kSerialReadTarjan:
      return "serial-Read-Tarjan";
    case Algo::kTwoScent:
      return "2SCENT";
    case Algo::kSerialHcDfs:
      return "serial-BC-DFS";
    case Algo::kFineHcDfs:
      return "fine-BC-DFS";
    case Algo::kTiernan:
      return "Tiernan";
    case Algo::kBrute:
      return "brute";
  }
  return "?";
}

bool parse_algo(std::string_view name, Algo* algo) {
  std::string wanted(name);
  if (wanted.ends_with("-rt")) {
    wanted.replace(wanted.size() - 2, 2, "Read-Tarjan");
  }
  const auto lower = [](std::string text) {
    for (char& c : text) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return text;
  };
  for (int i = 0; i <= static_cast<int>(Algo::kBrute); ++i) {
    if (lower(algo_name(static_cast<Algo>(i))) == lower(wanted)) {
      *algo = static_cast<Algo>(i);
      return true;
    }
  }
  return false;
}

namespace {

[[noreturn]] void unavailable(Algo algo, const char* task) {
  throw std::invalid_argument(algo_name(algo) + " is unavailable for " +
                              task);
}

}  // namespace

RunOutcome run_simple(Algo algo, const Digraph& graph, Scheduler& sched,
                      const EnumOptions& options, CycleSink* sink) {
  RunOutcome outcome;
  WallTimer timer;
  switch (algo) {
    case Algo::kFineJohnson:
    case Algo::kSerialJohnson:
      outcome.result = johnson_simple_cycles(graph, options, sink);
      break;
    case Algo::kFineReadTarjan:
    case Algo::kSerialReadTarjan:
      outcome.result = read_tarjan_simple_cycles(graph, options, sink);
      break;
    case Algo::kCoarseJohnson:
      outcome.result =
          coarse_johnson_simple_cycles(graph, sched, options, sink);
      break;
    case Algo::kCoarseReadTarjan:
      outcome.result =
          coarse_read_tarjan_simple_cycles(graph, sched, options, sink);
      break;
    case Algo::kTiernan:
      outcome.result = tiernan_simple_cycles(graph, options, sink);
      break;
    case Algo::kTwoScent:
    case Algo::kBrute:
    case Algo::kSerialHcDfs:
    case Algo::kFineHcDfs:
      unavailable(algo, "simple cycles");
  }
  outcome.seconds = timer.elapsed_seconds();
  return outcome;
}

RunOutcome run_windowed_simple(Algo algo, const TemporalGraph& graph,
                               Timestamp window, Scheduler& sched,
                               const EnumOptions& options,
                               const ParallelOptions& popts, CycleSink* sink) {
  RunOutcome outcome;
  WallTimer timer;
  switch (algo) {
    case Algo::kFineJohnson:
      outcome.result = fine_johnson_windowed_cycles(graph, window, sched,
                                                    options, popts, sink);
      break;
    case Algo::kFineReadTarjan:
      outcome.result = fine_read_tarjan_windowed_cycles(graph, window, sched,
                                                        options, popts, sink);
      break;
    case Algo::kCoarseJohnson:
      outcome.result =
          coarse_johnson_windowed_cycles(graph, window, sched, options, sink);
      break;
    case Algo::kCoarseReadTarjan:
      outcome.result = coarse_read_tarjan_windowed_cycles(graph, window, sched,
                                                          options, sink);
      break;
    case Algo::kSerialJohnson:
      outcome.result = johnson_windowed_cycles(graph, window, options, sink);
      break;
    case Algo::kSerialReadTarjan:
      outcome.result =
          read_tarjan_windowed_cycles(graph, window, options, sink);
      break;
    case Algo::kTiernan:
      outcome.result = tiernan_windowed_cycles(graph, window, options, sink);
      break;
    case Algo::kTwoScent:
    case Algo::kBrute:
      unavailable(algo, "windowed simple cycles");
    case Algo::kSerialHcDfs:
    case Algo::kFineHcDfs:
      throw std::invalid_argument(
          "BC-DFS requires a hop bound; use run_hop_constrained");
  }
  outcome.seconds = timer.elapsed_seconds();
  return outcome;
}

RunOutcome run_temporal(Algo algo, const TemporalGraph& graph,
                        Timestamp window, Scheduler& sched,
                        const EnumOptions& options,
                        const ParallelOptions& popts, CycleSink* sink) {
  RunOutcome outcome;
  WallTimer timer;
  switch (algo) {
    case Algo::kFineJohnson:
      outcome.result = fine_temporal_johnson_cycles(graph, window, sched,
                                                    options, popts, sink);
      break;
    case Algo::kFineReadTarjan:
      outcome.result = fine_temporal_read_tarjan_cycles(graph, window, sched,
                                                        options, popts, sink);
      break;
    case Algo::kCoarseJohnson:
      outcome.result =
          coarse_temporal_johnson_cycles(graph, window, sched, options, sink);
      break;
    case Algo::kCoarseReadTarjan:
      outcome.result = coarse_temporal_read_tarjan_cycles(graph, window, sched,
                                                          options, sink);
      break;
    case Algo::kSerialJohnson:
      outcome.result = temporal_johnson_cycles(graph, window, options, sink);
      break;
    case Algo::kSerialReadTarjan:
      outcome.result =
          temporal_read_tarjan_cycles(graph, window, options, sink);
      break;
    case Algo::kTwoScent:
      outcome.result = two_scent_cycles(graph, window, options, sink);
      break;
    case Algo::kBrute:
      outcome.result = brute_temporal_cycles(graph, window, options, sink);
      break;
    case Algo::kTiernan:
      unavailable(algo, "temporal cycles");
    case Algo::kSerialHcDfs:
    case Algo::kFineHcDfs:
      throw std::invalid_argument(
          "BC-DFS requires a hop bound; use run_hop_constrained");
  }
  outcome.seconds = timer.elapsed_seconds();
  return outcome;
}

RunOutcome run_hop_constrained(Algo algo, const TemporalGraph& graph,
                               Timestamp window, int max_hops,
                               Scheduler& sched, const EnumOptions& options,
                               const ParallelOptions& popts, CycleSink* sink) {
  if (max_hops < 1) {
    // 0 is BC-DFS's empty result but Johnson's "unbounded" sentinel
    // (max_cycle_length == 0), so a uniform rejection is the only
    // interpretation that keeps the algorithms comparable.
    throw std::invalid_argument("run_hop_constrained: max_hops must be >= 1");
  }
  RunOutcome outcome;
  WallTimer timer;
  switch (algo) {
    case Algo::kSerialHcDfs:
      outcome.result =
          hc_windowed_cycles(graph, window, max_hops, options, sink);
      break;
    case Algo::kFineHcDfs:
      outcome.result = fine_hc_windowed_cycles(graph, window, max_hops, sched,
                                               options, popts, sink);
      break;
    case Algo::kFineJohnson:
    case Algo::kFineReadTarjan:
    case Algo::kCoarseJohnson:
    case Algo::kCoarseReadTarjan:
    case Algo::kSerialJohnson:
    case Algo::kSerialReadTarjan:
    case Algo::kTiernan: {
      // The pre-existing approximation of this workload: budget-aware
      // blocking inside the simple-cycle searches.
      EnumOptions budget = options;
      budget.max_cycle_length = max_hops;
      return run_windowed_simple(algo, graph, window, sched, budget, popts,
                                 sink);
    }
    case Algo::kTwoScent:
    case Algo::kBrute:
      unavailable(algo, "hop-constrained cycles");
  }
  outcome.seconds = timer.elapsed_seconds();
  return outcome;
}

RunOutcome run_hop_constrained(Algo algo, const Digraph& graph, int max_hops,
                               const EnumOptions& options, CycleSink* sink) {
  if (max_hops < 1) {
    throw std::invalid_argument("run_hop_constrained: max_hops must be >= 1");
  }
  if (algo != Algo::kSerialHcDfs && algo != Algo::kFineHcDfs) {
    unavailable(algo, "static hop-constrained cycles");
  }
  RunOutcome outcome;
  WallTimer timer;
  outcome.result = hc_simple_cycles(graph, max_hops, options, sink);
  outcome.seconds = timer.elapsed_seconds();
  return outcome;
}

StartCosts collect_temporal_start_costs(const TemporalGraph& graph,
                                        Timestamp window,
                                        const EnumOptions& options) {
  StartCosts costs;
  const detail::TemporalJohnsonRun run{graph, window, options, nullptr};
  ClosingTimeState state(graph.num_vertices());
  CycleUnionBlock block(graph, window, options.use_cycle_union);
  costs.jobs.reserve(graph.num_edges());
  for (const auto& e0 : graph.edges_by_time()) {
    double cost = 0.0;
    if (e0.src != e0.dst) {
      state.reset();
      detail::search_start(run, e0, block, state);
      cost = static_cast<double>(state.counters.edges_visited +
                                 state.counters.vertices_visited + 1);
    }
    // Critical-path proxy: one DFS chain of the search (O(n + e) per the
    // paper's Lemma 1); approximated by sqrt of the cost, floored at 1.
    costs.jobs.push_back(SimJob{cost, cost > 0.0 ? std::sqrt(cost) : 0.0});
    costs.total_cost += cost;
    costs.max_cost = std::max(costs.max_cost, cost);
  }
  return costs;
}

Timestamp calibrate_window(const TemporalGraph& graph, bool temporal,
                           std::uint64_t target_cycles, double time_budget_s) {
  Scheduler* existing = Scheduler::current();
  // Probes are serial; reuse the caller's scheduler context if present.
  std::unique_ptr<Scheduler> owned;
  if (existing == nullptr) {
    owned = std::make_unique<Scheduler>(1);
    existing = owned.get();
  }
  Timestamp window = std::max<Timestamp>(graph.time_span() / 64, 1);
  Timestamp best = window;
  Timestamp previous = window;
  while (window <= graph.time_span()) {
    const RunOutcome probe =
        temporal ? run_temporal(Algo::kSerialJohnson, graph, window, *existing)
                 : run_windowed_simple(Algo::kSerialJohnson, graph, window,
                                       *existing);
    best = window;
    if (probe.result.num_cycles >= target_cycles ||
        probe.seconds > time_budget_s) {
      // The count is extremely steep in the window; if this step shot far
      // past the target regime, settle for the previous window.
      if (probe.result.num_cycles > 50 * target_cycles ||
          probe.seconds > 8.0 * time_budget_s) {
        best = previous;
      }
      break;
    }
    previous = window;
    // Small growth factor for the same steepness reason.
    window = std::max<Timestamp>(window + window / 4, window + 1);
  }
  return best;
}

double geometric_mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double log_sum = 0.0;
  for (const double value : values) {
    log_sum += std::log(std::max(value, 1e-12));
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace parcycle
