// Streaming enumeration throughput: replays registry datasets (synthetic
// analogs, or real fetched graphs under --dataset-dir / $PARCYCLE_DATASET_DIR)
// through the StreamEngine as a temporal edge stream and measures sustained
// ingest throughput, cycle yield and per-edge search latency percentiles
// across thread counts. The replay is fed by DatasetSource::open_stream —
// real .pcg caches stream straight off disk — and every configured window
// lane's total must equal the batch temporal enumerator's count on the same
// window, measured here too.
//
// --window-scales configures multi-δ lanes (each scale times the dataset's
// tuned temporal window; one shared ingest serves all lanes). --shuffle
// replays the stream deterministically shuffled within --slack time units of
// disorder, exercising the reorder stage: per-lane counts must still match
// the sorted replay and the batch enumerator exactly — CI runs this sweep as
// an equivalence gate.
//
// With --json <path> the measurements are persisted in the BENCH_stream.json
// baseline schema: per dataset, the per-window batch cycle counts plus per
// thread count a per-window {cycles, edge visits, escalated edges, latency}
// breakdown. Cycle counts, edge visits and escalation decisions are
// deterministic (the per-edge search has no shared blocking state), so the
// baseline diff checks them exactly, per window.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_support/cli.hpp"
#include "bench_support/datasets.hpp"
#include "bench_support/json.hpp"
#include "bench_support/table.hpp"
#include "obs/metrics.hpp"
#include "obs/stream_service.hpp"
#include "stream/engine.hpp"
#include "support/prng.hpp"
#include "support/scheduler.hpp"
#include "support/stats.hpp"
#include "temporal/temporal_johnson.hpp"

using namespace parcycle;

namespace {

constexpr const char* kUsage =
    "usage: bench_stream [quick|all|<DATASET>...] [--threads T1,T2,...] "
    "[--batch N] [--hot N] [--max-length K]\n"
    "  [--window-scale X] [--window-scales X1,X2,...] [--slack S] "
    "[--shuffle] [--no-prune]\n"
    "  [--dataset-dir <dir>] [--json <path>] [observability service flags]\n"
    "Replays each dataset's edges as a temporal stream through the "
    "StreamEngine and reports ingest\nthroughput, cycles and per-edge latency "
    "percentiles per thread count, against the batch temporal\nenumerator on "
    "the same window(s).\n--window-scales configures concurrent multi-delta "
    "window lanes (fractions of the dataset's tuned\ntemporal window; default "
    "0.5,1). --shuffle replays the stream shuffled within --slack time "
    "units\n(default: max window / 8) through the reorder stage; per-lane "
    "counts must still match batch.\n--batch sets the micro-batch size "
    "(default 256); --hot the escalation frontier (default 64 live\n"
    "out-edges); --max-length bounds cycle length (default unbounded).\n"
    "--dataset-dir (or $PARCYCLE_DATASET_DIR) benches real fetched datasets "
    "instead of the synthetic analogs.\n"
    "--trace-out and --profile-out files are written per replay (overwritten "
    "each time, so the file left\nbehind covers the last dataset x thread "
    "combination); tracing switches that replay to per-task\ntiming, so quote "
    "throughput numbers only from untraced runs. Without either flag no\n"
    "observer is attached: the replay adds zero signals, clock reads or "
    "allocations, and the --json\nbaseline is bit-identical.\n\n";

std::vector<double> parse_scales(const std::string& arg) {
  std::vector<double> scales;
  std::size_t pos = 0;
  while (pos < arg.size()) {
    const std::size_t comma = arg.find(',', pos);
    const std::string tok = arg.substr(pos, comma - pos);
    if (!tok.empty()) {
      scales.push_back(std::atof(tok.c_str()));
    }
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  return scales;
}

// Deterministic within-slack disorder: sort by a jittered key
// ts + uniform[0, slack]. Any two arrivals i before j satisfy
// ts_i <= key_i <= key_j <= ts_j + slack, so the reorder stage accepts every
// edge (zero late rejections) and must reproduce the sorted replay exactly.
std::vector<TemporalEdge> shuffle_within_slack(
    std::span<const TemporalEdge> edges, Timestamp slack, std::uint64_t seed) {
  struct Keyed {
    TemporalEdge edge;
    Timestamp key;
    std::uint64_t tiebreak;
  };
  SplitMix64 rng(seed);
  std::vector<Keyed> keyed;
  keyed.reserve(edges.size());
  for (const TemporalEdge& e : edges) {
    const auto jitter = static_cast<Timestamp>(
        rng.next() % static_cast<std::uint64_t>(slack + 1));
    keyed.push_back(Keyed{e, e.ts + jitter, rng.next()});
  }
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.tiebreak < b.tiebreak;
  });
  std::vector<TemporalEdge> out;
  out.reserve(keyed.size());
  for (const Keyed& k : keyed) {
    out.push_back(k.edge);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (help_requested(argc, argv, kUsage)) {
    std::cout << kServiceObsUsage;
    return 0;
  }
  std::vector<std::string> names;
  std::vector<unsigned> thread_counts = {1, 2, 4};
  std::size_t batch_size = 256;
  std::size_t hot_threshold = 64;
  int max_length = 0;
  double window_scale = 1.0;
  std::vector<double> window_scales = {0.5, 1.0};
  Timestamp slack = -1;  // -1: default (0 sorted, max window / 8 shuffled)
  bool shuffle = false;
  bool use_prune = true;
  std::size_t prune_frontier = StreamOptions{}.prune_frontier_threshold;
  ServiceOptions service_options;
  std::string flag_error;
  for (int i = 1; i < argc; ++i) {
    if (parse_service_flag(argc, argv, i, service_options, &flag_error)) {
      continue;
    }
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      if (!parse_thread_counts(argv[++i], &thread_counts, &flag_error)) {
        break;
      }
    } else if (arg == "--batch" && i + 1 < argc) {
      batch_size = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--hot" && i + 1 < argc) {
      hot_threshold = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--max-length" && i + 1 < argc) {
      max_length = std::atoi(argv[++i]);
    } else if (arg == "--window-scale" && i + 1 < argc) {
      window_scale = std::atof(argv[++i]);
    } else if (arg == "--window-scales" && i + 1 < argc) {
      window_scales = parse_scales(argv[++i]);
    } else if (arg == "--slack" && i + 1 < argc) {
      slack = static_cast<Timestamp>(std::atoll(argv[++i]));
    } else if (arg == "--shuffle") {
      shuffle = true;
    } else if (arg == "--no-prune") {
      use_prune = false;
    } else if (arg == "--prune-frontier" && i + 1 < argc) {
      prune_frontier = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if ((arg == "--json" || arg == "--dataset-dir") && i + 1 < argc) {
      ++i;  // parsed by json_output_path / dataset_dir_from_cli
    } else if (arg == "all") {
      for (const auto& spec : dataset_registry()) {
        names.push_back(spec.name);
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
  service_options.require_obs_only(&flag_error);
  if (!flag_error.empty()) {
    std::cerr << "error: " << flag_error << "\n";
    return 2;
  }
  if (thread_counts.empty() || batch_size == 0 || window_scales.empty()) {
    std::cerr
        << "need at least one thread count, window scale and --batch >= 1\n";
    return 2;
  }

  std::string dataset_dir = dataset_dir_from_cli(argc, argv);
  if (dataset_dir.empty()) {
    dataset_dir = dataset_dir_from_env();
  }

  const std::string json_path = json_output_path(argc, argv);
  std::unique_ptr<JsonBaselineFile> baseline;
  JsonWriter* json = nullptr;
  if (!json_path.empty()) {
    baseline = JsonBaselineFile::open(json_path, "stream");
    if (baseline == nullptr) {
      return 1;
    }
    json = &baseline->writer();
    json->kv("batch_size", static_cast<std::uint64_t>(batch_size));
    json->kv("hot_threshold", static_cast<std::uint64_t>(hot_threshold));
    json->kv("prune_frontier",
             use_prune ? static_cast<std::int64_t>(prune_frontier) : -1);
    json->kv("max_length", static_cast<std::int64_t>(max_length));
    json->key("window_scales");
    json->begin_array();
    for (const double s : window_scales) {
      json->value(s);
    }
    json->end_array();
    json->kv("shuffled", shuffle);
    json->key("datasets");
    json->begin_array();
  }

  std::cout << "=== Streaming enumeration: per-edge incremental search vs "
               "batch replay (batch=" << batch_size
            << ", hot=" << hot_threshold
            << (shuffle ? ", shuffled replay through the reorder stage" : "")
            << ") ===\n\n";

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
    const DatasetSource source = resolve_dataset(spec, dataset_dir);

    std::vector<Timestamp> windows;
    for (const double scale : window_scales) {
      windows.push_back(std::max<Timestamp>(
          1, static_cast<Timestamp>(std::llround(
                 static_cast<double>(spec.window_temporal) * scale *
                 window_scale))));
    }
    const Timestamp max_window =
        *std::max_element(windows.begin(), windows.end());
    const Timestamp dataset_slack =
        !shuffle ? std::max<Timestamp>(slack, 0)
                 : (slack >= 0 ? slack
                               : std::max<Timestamp>(1, max_window / 8));

    const TemporalGraph graph = Scheduler::with_pool(
        std::max(4u, *std::max_element(thread_counts.begin(),
                                       thread_counts.end())),
        [&](Scheduler& sched) {
          return source.load(&sched, nullptr, /*update_cache=*/true);
        });

    // Batch reference per window lane: the equivalence anchor and the
    // baseline the streaming overhead is quoted against.
    EnumOptions batch_options;
    batch_options.max_cycle_length = max_length;
    struct BatchRef {
      Timestamp window;
      std::uint64_t cycles;
      double seconds;
    };
    std::vector<BatchRef> batch_refs;
    for (const Timestamp window : windows) {
      WallTimer batch_timer;
      const EnumResult batch =
          temporal_johnson_cycles(graph, window, batch_options);
      batch_refs.push_back(
          BatchRef{window, batch.num_cycles, batch_timer.elapsed_seconds()});
    }

    std::cout << "--- " << spec.name << " (edges "
              << TextTable::count(graph.num_edges()) << ", source "
              << provenance_name(source.provenance) << ", windows";
    for (const BatchRef& ref : batch_refs) {
      std::cout << " " << TextTable::count(static_cast<std::uint64_t>(
                              ref.window)) << "->"
                << TextTable::count(ref.cycles);
    }
    std::cout << " cycles";
    if (shuffle) {
      std::cout << ", slack " << dataset_slack;
    }
    std::cout << ") ---\n";
    TextTable table({"threads", "window", "cycles", "seconds", "edges/s",
                     "p50", "p99", "escalated", "vs batch"});

    if (json != nullptr) {
      json->begin_object();
      json->kv("name", spec.name);
      json->kv("provenance", provenance_name(source.provenance));
      json->key("windows");
      json->begin_array();
      for (const Timestamp window : windows) {
        json->value(static_cast<std::int64_t>(window));
      }
      json->end_array();
      json->kv("edges", static_cast<std::uint64_t>(graph.num_edges()));
      json->kv("slack", static_cast<std::int64_t>(dataset_slack));
      json->key("batch");
      json->begin_array();
      for (const BatchRef& ref : batch_refs) {
        json->begin_object();
        json->kv("window", static_cast<std::int64_t>(ref.window));
        json->kv("cycles", ref.cycles);
        json->kv("seconds", ref.seconds);
        json->end_object();
      }
      json->end_array();
      json->key("rows");
      json->begin_array();
    }

    std::vector<TemporalEdge> shuffled;
    if (shuffle) {
      shuffled = shuffle_within_slack(graph.edges_by_time(), dataset_slack,
                                      spec.seed ^ 0x5eedb05500511cULL);
    }

    for (const unsigned threads : thread_counts) {
      StreamStats stats;
      double seconds = 0.0;
      // Registry snapshot of this replay (stream + scheduler counters),
      // imported while the pool is alive and persisted into the --json row.
      MetricsRegistry metrics;
      // One service per replay: tracing flips the replay to per-task timing
      // and profiling attaches observers; without --trace-out and
      // --profile-out neither happens, so the baseline is untouched. Its
      // trace and profile files are written when it goes out of scope,
      // after the pool joined.
      {
        StreamService service(service_options, threads, "bench_stream");
        if (const int rc = service.start()) {
          return rc;
        }
        Scheduler& sched = service.scheduler();
        StreamOptions options;
        options.windows = windows;
        options.reorder_slack = dataset_slack;
        options.batch_size = batch_size;
        options.hot_frontier_threshold = hot_threshold;
        options.max_cycle_length = max_length;
        options.use_reach_prune = use_prune;
        options.prune_frontier_threshold = prune_frontier;
        options.num_vertices_hint = graph.num_vertices();
        if (const int rc = service.open(options, nullptr)) {
          return rc;
        }
        StreamEngine& engine = service.engine();
        WallTimer timer;
        if (shuffle) {
          for (const TemporalEdge& e : shuffled) {
            engine.push(e.src, e.dst, e.ts);
          }
        } else {
          // The DatasetSource feed path: a real .pcg cache streams off disk
          // without ever materialising the edge set.
          EdgeStreamReader reader = source.open_stream(&sched);
          TemporalEdge e;
          while (reader.next(e)) {
            engine.push(e.src, e.dst, e.ts);
          }
        }
        engine.flush();
        seconds = timer.elapsed_seconds();
        stats = engine.stats();
        metrics.import_stream(stats);
        metrics.import_scheduler(sched);
      }
      if (stats.late_edges_rejected != 0) {
        counts_agree = false;
        std::cerr << "LATE REJECTIONS in a within-slack replay: " << spec.name
                  << " threads=" << threads << " dropped "
                  << stats.late_edges_rejected << " edges\n";
      }
      const double edges_per_s =
          static_cast<double>(stats.edges_ingested) / std::max(seconds, 1e-12);
      for (std::size_t lane = 0; lane < windows.size(); ++lane) {
        const StreamWindowStats& ws = stats.per_window[lane];
        const BatchRef& ref = batch_refs[lane];
        if (ws.cycles_found != ref.cycles) {
          counts_agree = false;
          std::cerr << "COUNT MISMATCH: " << spec.name
                    << " threads=" << threads << " window=" << ref.window
                    << " stream " << ws.cycles_found << " vs batch "
                    << ref.cycles << "\n";
        }
        table.add_row(
            {std::to_string(threads),
             TextTable::count(static_cast<std::uint64_t>(ws.window)),
             TextTable::count(ws.cycles_found), TextTable::with_unit(seconds),
             TextTable::count(static_cast<std::uint64_t>(edges_per_s)),
             TextTable::with_unit(
                 static_cast<double>(ws.latency_p50_ns) * 1e-9),
             TextTable::with_unit(
                 static_cast<double>(ws.latency_p99_ns) * 1e-9),
             TextTable::count(ws.escalated_edges),
             TextTable::fixed(seconds / std::max(ref.seconds, 1e-12), 2)});
      }
      if (json != nullptr) {
        json->begin_object();
        json->kv("threads", threads);
        json->kv("cycles", stats.cycles_found);
        json->kv("seconds", seconds);
        json->kv("edges_visited", stats.work.edges_visited);
        json->kv("escalated_edges", stats.escalated_edges);
        json->kv("edges_per_second", edges_per_s);
        json->kv("late_edges_rejected", stats.late_edges_rejected);
        json->kv("reorder_peak_buffered", stats.reorder_peak_buffered);
        json->kv("graph_compactions", stats.work.graph_compactions);
        // Robustness counters: always emitted so baselines pin them at
        // exactly zero — a bench replay never degrades, and the diff script
        // fails loudly if one ever does.
        json->kv("searches_truncated", stats.work.searches_truncated);
        json->kv("edges_shed", stats.edges_shed);
        json->kv("latency_p50_ns", stats.latency_p50_ns);
        json->kv("latency_p99_ns", stats.latency_p99_ns);
        json->kv("latency_max_ns", stats.latency_max_ns);
        // Snapshot of the unified registry, read back through its named
        // surface (extra keys are ignored by diff_bench_baselines.py, which
        // compares only the fields it names).
        json->key("metrics");
        json->begin_object();
        json->kv("stream_batches",
                 metrics.value_u64("parcycle_stream_batches_total").value_or(0));
        json->kv(
            "stream_expired_edges",
            metrics.value_u64("parcycle_stream_expired_edges_total").value_or(0));
        json->kv("stream_live_edges",
                 metrics.value_u64("parcycle_stream_live_edges").value_or(0));
        std::uint64_t tasks_executed = 0;
        std::uint64_t tasks_stolen = 0;
        for (unsigned w = 0; w < std::max(1u, threads); ++w) {
          const std::string labels = "worker=\"" + std::to_string(w) + "\"";
          tasks_executed +=
              metrics.value_u64("parcycle_worker_tasks_executed_total", labels)
                  .value_or(0);
          tasks_stolen +=
              metrics.value_u64("parcycle_worker_tasks_stolen_total", labels)
                  .value_or(0);
        }
        json->kv("tasks_executed", tasks_executed);
        json->kv("tasks_stolen", tasks_stolen);
        json->end_object();
        json->key("per_window");
        json->begin_array();
        for (const StreamWindowStats& ws : stats.per_window) {
          json->begin_object();
          json->kv("window", static_cast<std::int64_t>(ws.window));
          json->kv("cycles", ws.cycles_found);
          json->kv("edges_visited", ws.work.edges_visited);
          json->kv("escalated_edges", ws.escalated_edges);
          json->kv("latency_p50_ns", ws.latency_p50_ns);
          json->kv("latency_p99_ns", ws.latency_p99_ns);
          json->kv("latency_max_ns", ws.latency_max_ns);
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
  std::cout << "Reference: the stream engine enumerates each cycle from its "
               "closing edge as it arrives; all\nconfigured window lanes "
               "share one ingest. \"vs batch\" is stream wall time over the "
               "serial batch\nenumerator's on that lane's window (< 1 means "
               "the online framing is already cheaper than batch\nreplay at "
               "that thread count).\n";
  return counts_agree ? 0 : 1;
}
