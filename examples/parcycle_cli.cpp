// Command-line front end: enumerate cycles of an edge-list file with any of
// the library's algorithms — the tool a downstream user reaches for first.
//
//   parcycle_cli <edge-list | .pcg cache> [options]
//     --mode simple|windowed|temporal   (default temporal)
//     --window N                        (required for windowed/temporal)
//     --algo serial-johnson|serial-rt|fine-johnson|fine-rt|coarse-johnson|
//            coarse-rt|tiernan|2scent|brute   (default fine-johnson)
//     --threads N                       (1..1024, default 4)
//     --max-length N                    (0 = unbounded)
//     --hops K    hop-constrained mode: run the dedicated BC-DFS subsystem
//                 (simple mode: serial BC-DFS; windowed mode: serial or
//                 fine-grained BC-DFS depending on --algo fine-*)
//     --dataset-file <path>             (alternative to the positional path)
//     --dataset <NAME> [--dataset-dir <dir>]
//                 load a registry dataset: the real file found under
//                 --dataset-dir / $PARCYCLE_DATASET_DIR, else the synthetic
//                 analog
//     --save-cache <path>               (write the loaded graph as a .pcg)
//     --serial-load                     (disable the parallel parser)
//     --no-cycle-union --no-bundling
//     --print                           (print every cycle)
//     --stream [--stream-batch N]       temporal mode: replay the edges as a
//                 timestamp-ordered stream through the incremental engine
//                 (src/stream/) instead of running a batch enumerator; the
//                 cycle set is identical by construction
//     service flags (obs/stream_service.hpp): --trace-out and --profile-*
//                 on any run; --serve, --snapshot, --restore, --metrics-* and
//                 the rest need --stream
//
// The edge-list format is SNAP-style: "src dst [timestamp]" per line, '#'
// comments allowed, CRLF tolerated. A binary .pcg cache (written by
// --save-cache or the benches) is detected by magic and streamed instead of
// parsed.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

#include "bench_support/cli.hpp"
#include "bench_support/datasets.hpp"
#include "bench_support/runner.hpp"
#include "io/edge_list.hpp"
#include "io/graph_cache.hpp"
#include "obs/stream_service.hpp"
#include "stream/engine.hpp"
#include "support/stats.hpp"

namespace {

// Prints each cycle as "v0 -> v1 -> ... -> v0 [edge ids]".
class PrintingSink final : public parcycle::CycleSink {
 public:
  void on_cycle(std::span<const parcycle::VertexId> vertices,
                std::span<const parcycle::EdgeId> edges) override {
    std::lock_guard<std::mutex> guard(mutex_);
    for (const auto v : vertices) {
      std::cout << v << " -> ";
    }
    std::cout << vertices.front();
    if (!edges.empty()) {
      std::cout << "  [edges:";
      for (const auto e : edges) {
        std::cout << " " << e;
      }
      std::cout << "]";
    }
    std::cout << "\n";
  }

 private:
  std::mutex mutex_;
};

int usage() {
  std::cerr << "usage: parcycle_cli <edge-list | .pcg> [--mode simple|"
               "windowed|temporal] [--window N]\n"
               "  [--algo fine-johnson|fine-rt|coarse-johnson|coarse-rt|"
               "serial-johnson|serial-rt|tiernan|2scent|brute]\n"
               "  [--threads N] [--max-length N] [--hops K] "
               "[--no-cycle-union] [--no-bundling] [--print]\n"
               "  [--stream] [--stream-batch N] [--stream-windows W1,W2,...] "
               "[--stream-slack S]\n"
               "  [--dataset-file <path>] [--dataset <NAME>] "
               "[--dataset-dir <dir>] [--save-cache <path>] [--serial-load]\n"
               "  [service flags]\n"
               "--threads takes 1..1024 workers (default 4).\n"
               "--hops K enumerates hop-constrained cycles (<= K edges) with "
               "the BC-DFS subsystem\n"
               "(simple/windowed modes; windowed picks serial or fine-grained "
               "BC-DFS from --algo).\n"
               "--dataset loads a registry dataset: the real file under "
               "--dataset-dir / $PARCYCLE_DATASET_DIR when\n"
               "fetched (scripts/fetch_datasets.py), else its synthetic "
               "analog. Text parses use the parallel parser\n"
               "on --threads workers unless --serial-load; .pcg caches are "
               "streamed.\n"
               "--stream (temporal mode) replays the edges through the "
               "incremental per-edge engine with the same\nwindow — identical "
               "cycles, reported as they close, plus throughput/latency "
               "stats.\n"
               "--stream-windows runs several concurrent window lanes off one "
               "ingest; --stream-slack tolerates\nout-of-order arrivals up to "
               "S time units late. The stream-engine service flags need "
               "--stream.\n\n"
            << parcycle::kServiceObsUsage << parcycle::kServiceEngineUsage;
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace parcycle;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--help" || std::string(argv[i]) == "-h") {
      (void)usage();
      return 0;
    }
  }
  std::string path;
  std::string mode = "temporal";
  std::string algo_arg = "fine-johnson";
  std::string dataset;
  std::string dataset_dir;
  std::string save_cache;
  bool serial_load = false;
  Timestamp window = -1;
  std::vector<unsigned> threads = {4};
  int hops = 0;
  EnumOptions options;
  bool print = false;
  bool stream = false;
  std::size_t stream_batch = StreamOptions{}.batch_size;
  std::vector<Timestamp> stream_windows;
  Timestamp stream_slack = 0;
  ServiceOptions service_options;
  std::string flag_error;

  for (int i = 1; i < argc; ++i) {
    if (parse_service_flag(argc, argv, i, service_options, &flag_error)) {
      continue;
    }
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (!arg.empty() && arg[0] != '-' && path.empty() && i == 1) {
      path = arg;
    } else if (arg == "--dataset-file") {
      path = next() ? argv[i] : "";
    } else if (arg == "--dataset") {
      dataset = next() ? argv[i] : "";
    } else if (arg == "--dataset-dir") {
      dataset_dir = next() ? argv[i] : "";
    } else if (arg == "--save-cache") {
      save_cache = next() ? argv[i] : "";
    } else if (arg == "--serial-load") {
      serial_load = true;
    } else if (arg == "--mode") {
      mode = next() ? argv[i] : "";
    } else if (arg == "--algo") {
      algo_arg = next() ? argv[i] : "";
    } else if (arg == "--window") {
      window = next() ? std::atoll(argv[i]) : -1;
    } else if (arg == "--threads") {
      std::string threads_error;
      if (!parse_thread_counts(next() ? argv[i] : "", &threads,
                               &threads_error) ||
          threads.size() != 1) {
        flag_error = threads_error.empty() ? "--threads takes one count"
                                           : threads_error;
      }
    } else if (arg == "--max-length") {
      options.max_cycle_length = next() ? std::atoi(argv[i]) : 0;
    } else if (arg == "--hops") {
      hops = next() ? std::atoi(argv[i]) : 0;
    } else if (arg == "--no-cycle-union") {
      options.use_cycle_union = false;
    } else if (arg == "--no-bundling") {
      options.path_bundling = false;
    } else if (arg == "--print") {
      print = true;
    } else if (arg == "--stream") {
      stream = true;
    } else if (arg == "--stream-batch") {
      stream_batch = next() ? static_cast<std::size_t>(std::atoll(argv[i]))
                            : stream_batch;
    } else if (arg == "--stream-windows") {
      if (next()) {
        stream_windows.clear();
        const std::string list = argv[i];
        std::size_t pos = 0;
        while (pos < list.size()) {
          const std::size_t comma = list.find(',', pos);
          const std::string tok = list.substr(pos, comma - pos);
          if (!tok.empty()) {
            stream_windows.push_back(std::atoll(tok.c_str()));
          }
          if (comma == std::string::npos) break;
          pos = comma + 1;
        }
      }
    } else if (arg == "--stream-slack") {
      stream_slack = next() ? std::atoll(argv[i]) : 0;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return usage();
    }
  }

  Algo algo = Algo::kFineJohnson;
  if (flag_error.empty() && !parse_algo(algo_arg, &algo)) {
    flag_error = "unknown --algo " + algo_arg;
  }
  if (flag_error.empty() && path.empty() == dataset.empty()) {
    flag_error = "pass exactly one of <edge-list> or --dataset";
  }
  if (flag_error.empty() && mode != "simple" && mode != "windowed" &&
      mode != "temporal") {
    flag_error = "unknown mode: " + mode;
  }
  if (flag_error.empty() && service_options.uses_engine() && !stream) {
    flag_error = "the stream engine service flags act on the live stream "
                 "engine; pass --stream too";
  }
  if (!flag_error.empty()) {
    std::cerr << "error: " << flag_error << "\n";
    return usage();
  }

  // Declared before the service, which may still report to it while its
  // engine is torn down.
  PrintingSink printer;
  // The scheduler exists before the load so text parsing can run chunked
  // across the same worker pool that will enumerate.
  StreamService service(service_options, threads[0], "parcycle_cli");
  if (const int rc = service.start()) {
    return rc;
  }
  Scheduler& sched = service.scheduler();
  Scheduler* load_sched = serial_load ? nullptr : &sched;

  TemporalGraph graph;
  LoadStats load_stats;
  std::string source_label;
  try {
    if (!dataset.empty()) {
      if (dataset_dir.empty()) {
        dataset_dir = dataset_dir_from_env();
      }
      const DatasetSource source =
          resolve_dataset(dataset_by_name(dataset), dataset_dir);
      graph = source.load(load_sched, &load_stats);
      source_label = provenance_name(source.provenance);
      if (source.is_real()) {
        source_label += " (" + source.path + ")";
      }
    } else {
      bool from_cache = false;
      graph = load_graph_any(path, load_sched, {}, &load_stats, &from_cache);
      source_label = from_cache ? "cache" : "text";
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  std::cerr << "loaded " << graph.num_vertices() << " vertices, "
            << graph.num_edges() << " edges, time span " << graph.time_span()
            << " [source: " << source_label << "]\n";
  if (load_stats.self_loops_dropped + load_stats.duplicate_edges_dropped > 0) {
    std::cerr << "dropped " << load_stats.self_loops_dropped
              << " self-loops, " << load_stats.duplicate_edges_dropped
              << " duplicate edges\n";
  }
  if (!save_cache.empty()) {
    try {
      save_graph_cache_file(graph, save_cache);
      std::cerr << "cache written to " << save_cache << "\n";
    } catch (const std::exception& error) {
      std::cerr << "error: " << error.what() << "\n";
      return 1;
    }
  }
  if (mode != "simple" && window < 0) {
    std::cerr << "error: --window is required for mode " << mode << "\n";
    return usage();
  }

  CycleSink* sink = print ? &printer : nullptr;
  WallTimer timer;
  EnumResult result;

  if (hops > 0 && mode == "temporal") {
    std::cerr << "--hops supports simple and windowed modes only (temporal "
                 "cycles are time-ordered; use --max-length instead)\n";
    return usage();
  }
  if (hops > 0 && options.max_cycle_length > 0) {
    std::cerr << "--hops and --max-length both bound the cycle length; pass "
                 "exactly one\n";
    return usage();
  }
  if (stream && (mode != "temporal" || hops > 0)) {
    std::cerr << "--stream replays temporal cycles only (use --mode temporal "
                 "without --hops)\n";
    return usage();
  }
  if (stream && window <= 0) {
    std::cerr << "error: --stream needs a positive --window (the sliding "
                 "retention horizon)\n";
    return usage();
  }

  if (stream) {
    StreamOptions stream_options;
    stream_options.window = window;
    stream_options.windows = stream_windows;  // multi-δ lanes when non-empty
    stream_options.reorder_slack = stream_slack;
    stream_options.batch_size = stream_batch;
    stream_options.max_cycle_length = options.max_cycle_length;
    stream_options.use_reach_prune = options.use_cycle_union;
    stream_options.num_vertices_hint = graph.num_vertices();
    if (const int rc = service.open(stream_options, sink)) {
      return rc;
    }
    StreamEngine& engine = service.engine();
    const auto edges = graph.edges_by_time();
    try {
      for (std::uint64_t i = service.resume(); i < edges.size(); ++i) {
        const auto& e = edges[i];
        engine.push(e.src, e.dst, e.ts);
        if (service.after_push()) {
          return 3;
        }
      }
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
    if (const int rc = service.finish()) {
      return rc;
    }
    const StreamStats stats = engine.stats();
    result.num_cycles = stats.cycles_found;
    result.work = stats.work;
    const double seconds = timer.elapsed_seconds();
    std::cerr << "stream: " << stats.edges_ingested << " edges in "
              << stats.batches << " batches, "
              << static_cast<std::uint64_t>(
                     static_cast<double>(stats.edges_ingested) /
                     std::max(seconds, 1e-12))
              << " edges/s, per-edge p50 " << stats.latency_p50_ns
              << "ns p99 " << stats.latency_p99_ns << "ns, "
              << stats.escalated_edges << " escalated, "
              << stats.expired_edges << " expired ("
              << stats.live_edges << " live at end)\n";
    if (stats.late_edges_rejected > 0) {
      std::cerr << "stream: " << stats.late_edges_rejected
                << " late edges rejected (older than the reorder slack)\n";
    }
    if (stats.per_window.size() > 1) {
      for (const StreamWindowStats& ws : stats.per_window) {
        std::cerr << "stream: window " << ws.window << " -> "
                  << ws.cycles_found << " cycles, " << ws.work.edges_visited
                  << " edge visits, " << ws.escalated_edges << " escalated\n";
      }
    }
  } else {
    try {
      if (hops > 0) {
        // --hops always runs BC-DFS; a fine --algo picks its parallel form.
        const Algo bc_dfs = algo == Algo::kFineJohnson ||
                                    algo == Algo::kFineReadTarjan ||
                                    algo == Algo::kFineHcDfs
                                ? Algo::kFineHcDfs
                                : Algo::kSerialHcDfs;
        result = mode == "simple"
                     ? run_hop_constrained(bc_dfs, graph.static_projection(),
                                           hops, options, sink)
                           .result
                     : run_hop_constrained(bc_dfs, graph, window, hops, sched,
                                           options, {}, sink)
                           .result;
      } else if (mode == "simple") {
        result =
            run_simple(algo, graph.static_projection(), sched, options, sink)
                .result;
      } else if (mode == "windowed") {
        result = run_windowed_simple(algo, graph, window, sched, options, {},
                                     sink)
                     .result;
      } else {
        result =
            run_temporal(algo, graph, window, sched, options, {}, sink).result;
      }
    } catch (const std::invalid_argument& e) {
      std::cerr << "error: " << e.what() << "\n";
      return usage();
    }
  }

  const double seconds = timer.elapsed_seconds();
  std::cerr << "cycles: " << result.num_cycles << "\n"
            << "edges visited: " << result.work.edges_visited << "\n"
            << "tasks spawned: " << result.work.tasks_spawned << "\n"
            << "time: " << seconds << "s\n";
  return 0;
}
