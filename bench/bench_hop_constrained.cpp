// Hop-constrained cycle enumeration: the dedicated BC-DFS subsystem against
// the budget-blocked Johnson searches (EnumOptions::max_cycle_length), across
// hop bounds — the journal version's third workload. Short-cycle queries
// (fraud rings, k-hop deadlocks) are where the bounded reverse-BFS pruning
// pays off, so the interesting columns are the work ratio and the speedup at
// small hop bounds.
//
// With --json <path> the measurements are persisted in the
// BENCH_hop_constrained.json baseline schema: per dataset and hop bound, the
// cycle count plus {seconds, edge visits} per algorithm, and per row a
// "fine-Johnson-1w" entry: fine Johnson on one worker, which under the
// adaptive spawn policy never spawns, so its edge visits equal the row's
// serial-Johnson ones.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_support/cli.hpp"
#include "bench_support/datasets.hpp"
#include "bench_support/json.hpp"
#include "bench_support/runner.hpp"
#include "bench_support/table.hpp"
#include "support/scheduler.hpp"

using namespace parcycle;

namespace {

constexpr const char* kUsage =
    "usage: bench_hop_constrained [quick|all|<DATASET>...] [--threads N] "
    "[--hops K1,K2,...] [--window-scale X] [--dataset-dir <dir>] "
    "[--json <path>]\n"
    "Hop-constrained simple-cycle enumeration (windowed): serial/fine BC-DFS "
    "vs budget-blocked serial/fine Johnson across hop bounds,\nplus fine "
    "Johnson on one worker.\n"
    "--window-scale multiplies each dataset's tuned simple-cycle window "
    "(default 2: short-cycle queries\nover windows whose unbounded cycle "
    "population would be much larger — the regime BC-DFS targets).\n"
    "--dataset-dir (or $PARCYCLE_DATASET_DIR) benches real fetched datasets "
    "instead of the synthetic analogs.\n";

std::vector<int> parse_hops(const std::string& arg) {
  std::vector<int> hops;
  std::size_t pos = 0;
  while (pos < arg.size()) {
    const std::size_t comma = arg.find(',', pos);
    const std::string tok = arg.substr(pos, comma - pos);
    if (!tok.empty()) {
      hops.push_back(std::atoi(tok.c_str()));
    }
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  return hops;
}

struct AlgoRun {
  Algo algo;
  RunOutcome outcome;
};

}  // namespace

int main(int argc, char** argv) {
  if (help_requested(argc, argv, kUsage)) {
    return 0;
  }
  std::vector<std::string> names;
  std::vector<int> hop_bounds = {3, 4, 5, 6, 8};
  unsigned threads = 4;
  // The registry windows land directly in the comparable cycle-count
  // regime; 2x widens them into the short-cycle-query setting BC-DFS
  // targets (many long cycles present, only <= K-hop ones wanted).
  double window_scale = 2.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (arg == "--hops" && i + 1 < argc) {
      hop_bounds = parse_hops(argv[++i]);
    } else if (arg == "--window-scale" && i + 1 < argc) {
      window_scale = std::atof(argv[++i]);
    } else if ((arg == "--json" || arg == "--dataset-dir") && i + 1 < argc) {
      ++i;  // parsed by json_output_path / dataset_dir_from_cli
    } else if (arg == "all") {
      for (const auto& spec : dataset_registry()) {
        if (spec.window_simple > 0) {
          names.push_back(spec.name);
        }
      }
    } else if (arg == "quick") {
      names.insert(names.end(), {"BA", "CO", "EM"});
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown or incomplete option: " << arg << "\n" << kUsage;
      return 2;
    } else {
      names.push_back(arg);  // dataset abbreviation
    }
  }
  if (names.empty()) {
    names = {"BA", "CO", "EM"};
  }
  if (hop_bounds.empty()) {
    std::cerr << "no hop bounds\n";
    return 2;
  }
  for (const int hops : hop_bounds) {
    if (hops < 1) {
      std::cerr << "invalid hop bound " << hops << " (must be >= 1)\n";
      return 2;
    }
  }

  const Algo algos[] = {Algo::kSerialHcDfs, Algo::kFineHcDfs,
                        Algo::kSerialJohnson, Algo::kFineJohnson};

  std::string dataset_dir = dataset_dir_from_cli(argc, argv);
  if (dataset_dir.empty()) {
    dataset_dir = dataset_dir_from_env();
  }

  const std::string json_path = json_output_path(argc, argv);
  std::unique_ptr<JsonBaselineFile> baseline;
  JsonWriter* json = nullptr;
  if (!json_path.empty()) {
    baseline = JsonBaselineFile::open(json_path, "hop_constrained");
    if (baseline == nullptr) {
      return 1;
    }
    json = &baseline->writer();
    json->kv("threads", threads);
    json->key("datasets");
    json->begin_array();
  }

  std::cout << "=== Hop-constrained cycles: BC-DFS vs budget-blocked Johnson "
               "(threads=" << threads << ") ===\n\n";

  bool counts_agree = true;
  for (const auto& name : names) {
    const DatasetSpec* spec_ptr = nullptr;
    try {
      spec_ptr = &dataset_by_name(name);
    } catch (const std::out_of_range&) {
      std::cerr << "unknown dataset: " << name << "\n";
      return 2;
    }
    const DatasetSpec& spec = *spec_ptr;
    if (spec.window_simple <= 0) {
      std::cout << "--- " << spec.name
                << ": skipped (no simple-cycle window) ---\n\n";
      continue;
    }
    const DatasetSource source = resolve_dataset(spec, dataset_dir);
    const Timestamp window = static_cast<Timestamp>(
        static_cast<double>(spec.window_simple) * window_scale);

    std::cout << "--- " << spec.name << " (window "
              << TextTable::count(static_cast<std::uint64_t>(window))
              << ", source " << provenance_name(source.provenance)
              << ") ---\n";
    TextTable table({"hops", "cycles", "serial-BC", "fine-BC", "serial-J",
                     "fine-J", "fine-J 1w", "J/BC work", "J/BC time"});

    if (json != nullptr) {
      json->begin_object();
      json->kv("name", spec.name);
      json->kv("provenance", provenance_name(source.provenance));
      json->kv("window", static_cast<std::int64_t>(window));
      json->key("rows");
      json->begin_array();
    }

    // Per hop bound: the four algorithms on `threads` workers, then fine
    // Johnson on one worker, which does serial Johnson's work.
    std::vector<std::vector<AlgoRun>> rows(hop_bounds.size());
    const TemporalGraph graph =
        Scheduler::with_pool(threads, [&](Scheduler& sched) {
          TemporalGraph loaded =
              source.load(&sched, nullptr, /*update_cache=*/true);
          for (std::size_t h = 0; h < hop_bounds.size(); ++h) {
            for (const Algo algo : algos) {
              rows[h].push_back({algo, run_hop_constrained(algo, loaded, window,
                                                           hop_bounds[h],
                                                           sched)});
            }
          }
          return loaded;
        });
    Scheduler::with_pool(1, [&](Scheduler& sched) {
      for (std::size_t h = 0; h < hop_bounds.size(); ++h) {
        rows[h].push_back(
            {Algo::kFineJohnson, run_hop_constrained(Algo::kFineJohnson, graph,
                                                     window, hop_bounds[h],
                                                     sched)});
      }
    });
    for (std::size_t h = 0; h < hop_bounds.size(); ++h) {
      const int hops = hop_bounds[h];
      const std::vector<AlgoRun>& runs = rows[h];
      const auto& bc = runs[0].outcome;  // serial BC-DFS
      const auto& sj = runs[2].outcome;  // serial Johnson (budget)
      for (const auto& run : runs) {
        if (run.outcome.result.num_cycles != bc.result.num_cycles) {
          counts_agree = false;
          std::cerr << "COUNT MISMATCH: " << spec.name << " hops=" << hops
                    << " " << algo_name(run.algo) << " "
                    << run.outcome.result.num_cycles << " vs "
                    << bc.result.num_cycles << "\n";
        }
      }
      const double work_ratio =
          static_cast<double>(sj.result.work.edges_visited) /
          static_cast<double>(
              std::max<std::uint64_t>(bc.result.work.edges_visited, 1));
      table.add_row(
          {std::to_string(hops), TextTable::count(bc.result.num_cycles),
           TextTable::with_unit(bc.seconds),
           TextTable::with_unit(runs[1].outcome.seconds),
           TextTable::with_unit(sj.seconds),
           TextTable::with_unit(runs[3].outcome.seconds),
           TextTable::with_unit(runs[4].outcome.seconds),
           TextTable::fixed(work_ratio, 2),
           TextTable::fixed(sj.seconds / std::max(bc.seconds, 1e-9), 2)});
      if (json != nullptr) {
        json->begin_object();
        json->kv("hops", static_cast<std::int64_t>(hops));
        json->kv("cycles", bc.result.num_cycles);
        json->key("algos");
        json->begin_array();
        for (std::size_t k = 0; k < runs.size(); ++k) {
          json->begin_object();
          // The one-worker row is named apart: its visits compare exactly.
          json->kv("algo", algo_name(runs[k].algo) + (k == 4 ? "-1w" : ""));
          json->kv("seconds", runs[k].outcome.seconds);
          json->kv("edges_visited",
                   runs[k].outcome.result.work.edges_visited);
          json->end_object();
        }
        json->end_array();
        json->end_object();
      }
    }
    table.print(std::cout);
    std::cout << "\n";
    if (json != nullptr) {
      json->end_array();
      json->end_object();
    }
  }

  if (json != nullptr) {
    json->end_array();
    json = nullptr;
    baseline.reset();  // closes the root object and the file
    std::cout << "json written to " << json_path << "\n";
  }
  std::cout << "Reference: BC-DFS prunes with a hop-bounded reverse BFS per "
               "start, so its advantage grows as the hop bound shrinks\n"
               "relative to the window's unbounded cycle lengths.\n";
  return counts_agree ? 0 : 1;
}
