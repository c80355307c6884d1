// Ingestion throughput: the legacy istream edge-list parser vs the buffer
// parser vs the chunked parallel parser (src/io/edge_list.hpp), plus binary
// cache (.pcg) write/reload — on a generated SNAP-style edge list large
// enough that parse cost dominates (default 1M edges, ~14 MB of text).
//
// Every loaded graph is verified identical to the reference parse before any
// number is reported, so a speedup can never come from parsing less.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_support/cli.hpp"
#include "bench_support/json.hpp"
#include "bench_support/table.hpp"
#include "graph/generators.hpp"
#include "io/edge_list.hpp"
#include "io/graph_cache.hpp"
#include "support/scheduler.hpp"
#include "support/stats.hpp"

using namespace parcycle;

namespace {

constexpr const char* kUsage =
    "usage: bench_loader [--edges N] [--threads T1,T2,...] [--repeat R] "
    "[--file <path>] [--keep] [--json <path>]\n"
    "Times edge-list ingestion end to end: legacy istream parse, buffer "
    "parse, parallel parse per thread\ncount, and .pcg cache write/reload. "
    "Generates a scale-free temporal edge list unless --file names one.\n";

// The serial hot path this subsystem replaced (src/graph/io.cpp before the
// io/ subsystem): getline + istringstream per line. Kept verbatim here as
// the measured baseline so the speedup is against what loads actually cost
// before, not against a strawman.
TemporalGraph legacy_load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open edge list file: " + path);
  }
  std::vector<TemporalEdge> edges;
  VertexId num_vertices = 0;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const auto hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream fields(line);
    long long u = 0;
    long long v = 0;
    if (!(fields >> u)) {
      continue;  // blank or comment-only line
    }
    if (!(fields >> v) || u < 0 || v < 0) {
      throw std::runtime_error("malformed edge list at line " +
                               std::to_string(line_number));
    }
    long long ts = 0;
    if (!(fields >> ts)) {
      ts = 0;
    }
    edges.push_back(TemporalEdge{static_cast<VertexId>(u),
                                 static_cast<VertexId>(v),
                                 static_cast<Timestamp>(ts), kInvalidEdge});
    num_vertices = std::max(num_vertices,
                            static_cast<VertexId>(std::max(u, v) + 1));
  }
  return TemporalGraph(num_vertices, std::move(edges));
}

bool same_graph(const TemporalGraph& a, const TemporalGraph& b) {
  if (a.num_vertices() != b.num_vertices() || a.num_edges() != b.num_edges()) {
    return false;
  }
  const auto ea = a.edges_by_time();
  const auto eb = b.edges_by_time();
  for (std::size_t i = 0; i < ea.size(); ++i) {
    if (ea[i].src != eb[i].src || ea[i].dst != eb[i].dst ||
        ea[i].ts != eb[i].ts || ea[i].id != eb[i].id) {
      return false;
    }
  }
  return true;
}

struct Measurement {
  std::string name;
  double seconds = 0.0;
  double speedup = 0.0;  // vs the legacy serial parse
  // Graph finalisation (sort + CSR fill) share of `seconds`; negative when
  // the path does not report it (legacy parse, cache streams).
  double finalise_seconds = -1.0;
};

// Best-of-R wall time of `load`, with the result checked against `reference`
// (skipped when reference is null — the reference run itself).
template <typename LoadFn>
double time_load(int repeat, const TemporalGraph* reference, const char* name,
                 bool& ok, LoadFn&& load) {
  double best = 0.0;
  for (int r = 0; r < repeat; ++r) {
    WallTimer timer;
    const TemporalGraph graph = load();
    const double seconds = timer.elapsed_seconds();
    if (r == 0 || seconds < best) {
      best = seconds;
    }
    if (reference != nullptr && !same_graph(*reference, graph)) {
      std::cerr << "GRAPH MISMATCH: " << name
                << " loaded a different graph than the reference parse\n";
      ok = false;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  if (help_requested(argc, argv, kUsage)) {
    return 0;
  }
  std::size_t num_edges = 1'000'000;
  std::vector<unsigned> thread_counts = {1, 2, 4, 8};
  int repeat = 2;
  std::string file;
  bool keep = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--edges" && i + 1 < argc) {
      num_edges = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--threads" && i + 1 < argc) {
      std::string error;
      if (!parse_thread_counts(argv[++i], &thread_counts, &error)) {
        std::cerr << "error: " << error << "\n";
        return 2;
      }
    } else if (arg == "--repeat" && i + 1 < argc) {
      repeat = std::atoi(argv[++i]);
    } else if (arg == "--file" && i + 1 < argc) {
      file = argv[++i];
    } else if (arg == "--keep") {
      keep = true;
    } else if (arg == "--json" && i + 1 < argc) {
      ++i;  // parsed by json_output_path
    } else {
      std::cerr << "unknown or incomplete argument: " << arg << "\n" << kUsage;
      return 2;
    }
  }
  if (repeat < 1 || thread_counts.empty()) {
    std::cerr << "need --repeat >= 1 and at least one thread count\n";
    return 2;
  }

  if (!file.empty() && !std::filesystem::is_regular_file(file)) {
    std::cerr << "error: --file " << file << " is not a readable file\n";
    return 2;
  }
  const bool generated = file.empty();
  if (generated) {
    ScaleFreeTemporalParams params;
    params.num_vertices = static_cast<VertexId>(
        std::max<std::size_t>(num_edges / 10, 16));
    params.num_edges = num_edges;
    params.time_span = 1'000'000;
    params.attachment = 0.75;
    params.burstiness = 0.5;
    params.seed = 42;
    const TemporalGraph graph = scale_free_temporal(params);
    file = (std::filesystem::temp_directory_path() /
            ("parcycle_loader_" + std::to_string(::getpid()) + ".txt"))
               .string();
    save_temporal_edge_list_file(graph, file);
  }
  const auto input_bytes =
      static_cast<double>(std::filesystem::file_size(file));
  const std::string cache_file = file + kGraphCacheExtension;

  std::cout << "=== Edge-list ingestion: " << file << " ("
            << TextTable::count(static_cast<std::uint64_t>(input_bytes))
            << " bytes) ===\n";

  bool ok = true;
  // Reference: the hardened buffer parse. The baseline every speedup is
  // quoted against is the pre-io/ serial load path (legacy_load above).
  LoadStats stats;
  const TemporalGraph reference = load_temporal_edge_list_file(file, {}, &stats);

  std::vector<Measurement> runs;
  const double legacy_seconds =
      time_load(repeat, &reference, "legacy", ok,
                [&] { return legacy_load(file); });
  runs.push_back({"serial legacy (getline+istringstream)", legacy_seconds,
                  1.0, -1.0});
  // The finalise phase (sort + CSR fill inside the TemporalGraph ctor) is
  // reported per path from the last repeat; the workload is deterministic,
  // so any repeat is representative.
  LoadStats run_stats;
  runs.push_back({"istream (slurp+tokenizer)",
                  time_load(repeat, &reference, "istream", ok,
                            [&] {
                              std::ifstream in(file);
                              return load_temporal_edge_list(in, {},
                                                             &run_stats);
                            }),
                  0.0, run_stats.finalise_seconds});
  runs.push_back({"buffer serial",
                  time_load(repeat, &reference, "buffer", ok,
                            [&] {
                              return load_temporal_edge_list_file(
                                  file, {}, &run_stats);
                            }),
                  0.0, run_stats.finalise_seconds});
  for (const unsigned threads : thread_counts) {
    const std::string name = "parallel x" + std::to_string(threads);
    runs.push_back(
        {name,
         time_load(repeat, &reference, name.c_str(), ok,
                   [&] {
                     return Scheduler::with_pool(threads, [&](Scheduler& s) {
                       return load_temporal_edge_list_file_parallel(
                           file, s, {}, &run_stats);
                     });
                   }),
         0.0, run_stats.finalise_seconds});
  }
  runs.push_back({"cache write (.pcg)",
                  time_load(repeat, nullptr, "cache write", ok,
                            [&] {
                              save_graph_cache_file(reference, cache_file);
                              return TemporalGraph();
                            }),
                  0.0});
  runs.push_back({"cache load (.pcg)",
                  time_load(repeat, &reference, "cache load", ok,
                            [&] { return load_graph_cache_file(cache_file); }),
                  0.0});

  TextTable table({"path", "seconds", "finalise s", "MB/s",
                   "speedup vs legacy"});
  for (Measurement& run : runs) {
    run.speedup = legacy_seconds / std::max(run.seconds, 1e-12);
    table.add_row({run.name, TextTable::with_unit(run.seconds),
                   run.finalise_seconds < 0.0
                       ? std::string("-")
                       : TextTable::with_unit(run.finalise_seconds),
                   TextTable::fixed(input_bytes / 1e6 /
                                        std::max(run.seconds, 1e-12),
                                    1),
                   TextTable::fixed(run.speedup, 2)});
  }
  table.print(std::cout);
  std::cout << "edges " << TextTable::count(stats.edges_loaded) << ", lines "
            << TextTable::count(stats.lines) << ", repeat " << repeat
            << " (best-of)\n";

  const std::string json_path = json_output_path(argc, argv);
  if (!json_path.empty()) {
    auto baseline = JsonBaselineFile::open(json_path, "loader");
    if (baseline == nullptr) {
      return 1;
    }
    JsonWriter& json = baseline->writer();
    json.kv("file", file);
    json.kv("bytes", static_cast<std::uint64_t>(input_bytes));
    json.kv("edges", stats.edges_loaded);
    json.kv("repeat", static_cast<std::int64_t>(repeat));
    json.key("runs");
    json.begin_array();
    for (const Measurement& run : runs) {
      json.begin_object();
      json.kv("name", run.name);
      json.kv("seconds", run.seconds);
      json.kv("finalise_seconds", run.finalise_seconds);
      json.kv("speedup_vs_legacy", run.speedup);
      json.end_object();
    }
    json.end_array();
    baseline.reset();
    std::cout << "json written to " << json_path << "\n";
  }

  if (generated && !keep) {
    std::error_code ec;
    std::filesystem::remove(file, ec);
    std::filesystem::remove(cache_file, ec);
  } else if (!keep) {
    std::error_code ec;
    std::filesystem::remove(cache_file, ec);
  }
  return ok ? 0 : 1;
}
