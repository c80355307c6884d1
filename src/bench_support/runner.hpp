// Benchmark run helpers: algorithm dispatch by name, timing, and per-start
// cost collection for the scheduling simulator.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/cycle_types.hpp"
#include "core/options.hpp"
#include "graph/digraph.hpp"
#include "graph/temporal_graph.hpp"
#include "schedsim/simulator.hpp"
#include "support/scheduler.hpp"

namespace parcycle {

enum class Algo {
  kFineJohnson,
  kFineReadTarjan,
  kCoarseJohnson,
  kCoarseReadTarjan,
  kSerialJohnson,
  kSerialReadTarjan,
  kTwoScent,
  kSerialHcDfs,
  kFineHcDfs,
  kTiernan,
  kBrute,  // keep last: parse_algo scans up to it
};

std::string algo_name(Algo algo);

// Inverse of algo_name, ignoring case; a trailing "-rt" stands for
// "-Read-Tarjan" (fine-rt, coarse-rt, serial-rt). False for an unknown name.
bool parse_algo(std::string_view name, Algo* algo);

// Every run_* below reports each cycle to `sink` when one is given, and
// throws std::invalid_argument for an algorithm the task does not have.

struct RunOutcome {
  EnumResult result;
  double seconds = 0.0;
};

// Simple cycles of a static graph. Johnson and Read-Tarjan have no
// fine-grained static variant, so their fine algos run the serial search.
RunOutcome run_simple(Algo algo, const Digraph& graph, Scheduler& sched,
                      const EnumOptions& options = {},
                      CycleSink* sink = nullptr);

// Windowed *simple* cycle enumeration (Figure 7a's task).
RunOutcome run_windowed_simple(Algo algo, const TemporalGraph& graph,
                               Timestamp window, Scheduler& sched,
                               const EnumOptions& options = {},
                               const ParallelOptions& popts = {},
                               CycleSink* sink = nullptr);

// Temporal cycle enumeration (Figure 7b / 8 / 9's task).
RunOutcome run_temporal(Algo algo, const TemporalGraph& graph,
                        Timestamp window, Scheduler& sched,
                        const EnumOptions& options = {},
                        const ParallelOptions& popts = {},
                        CycleSink* sink = nullptr);

// Hop-constrained windowed simple cycle enumeration (the journal version's
// third workload): at most `max_hops` edges per cycle. kSerialHcDfs /
// kFineHcDfs run the dedicated BC-DFS subsystem; the Johnson / Read-Tarjan
// algos run their budget-blocked searches (options.max_cycle_length is set to
// max_hops), which is the baseline BC-DFS is benchmarked against.
RunOutcome run_hop_constrained(Algo algo, const TemporalGraph& graph,
                               Timestamp window, int max_hops,
                               Scheduler& sched,
                               const EnumOptions& options = {},
                               const ParallelOptions& popts = {},
                               CycleSink* sink = nullptr);

// The same on a static graph, for the BC-DFS algos only. BC-DFS has no
// fine-grained static variant, so kFineHcDfs runs the serial search.
RunOutcome run_hop_constrained(Algo algo, const Digraph& graph, int max_hops,
                               const EnumOptions& options = {},
                               CycleSink* sink = nullptr);

// Per-starting-edge work profile: cost (edge visits) of the serial search
// from each starting edge, plus its recursion depth-ish critical path proxy
// (longest path length reached). Feeds the scheduling simulator.
struct StartCosts {
  std::vector<SimJob> jobs;
  double total_cost = 0.0;
  double max_cost = 0.0;
};

StartCosts collect_temporal_start_costs(const TemporalGraph& graph,
                                        Timestamp window,
                                        const EnumOptions& options = {});

// Geometric mean helper for the summary columns of Figures 7/8.
double geometric_mean(const std::vector<double>& values);

// Picks a window size for a dataset at run time: grows the window until the
// serial Johnson run yields at least `target_cycles` or costs more than
// `time_budget_s` seconds. The synthetic analogs' cycle counts are extremely
// steep in the window size (like the real datasets' — the paper also tunes
// delta per graph), so a fixed registry value cannot hit the comparable
// regime on every machine; this is the automated version of the paper's
// per-dataset window selection.
Timestamp calibrate_window(const TemporalGraph& graph, bool temporal,
                           std::uint64_t target_cycles = 1000,
                           double time_budget_s = 0.5);

}  // namespace parcycle
