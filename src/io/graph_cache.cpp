#include "io/graph_cache.hpp"

#include <bit>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "support/fnv1a.hpp"

namespace parcycle {

namespace {

// The on-disk format is little-endian; arrays are written with bulk
// memcpy-free stream writes of the in-memory representation, which is only
// correct on little-endian targets (everything this repo runs on).
static_assert(std::endian::native == std::endian::little,
              "graph cache IO assumes a little-endian target");
static_assert(sizeof(std::size_t) == 8,
              "graph cache stores CSR offsets as 64-bit values");

constexpr char kMagic[4] = {'P', 'C', 'G', '1'};

template <typename T>
std::uint64_t fnv1a_array(const std::vector<T>& values, std::uint64_t state) {
  return fnv1a(values.data(), values.size() * sizeof(T), state);
}

void write_bytes(std::ostream& out, const void* data, std::size_t size) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(size));
}

template <typename T>
void write_scalar(std::ostream& out, T value) {
  write_bytes(out, &value, sizeof(value));
}

template <typename T>
void write_array(std::ostream& out, const std::vector<T>& values) {
  write_bytes(out, values.data(), values.size() * sizeof(T));
}

void read_bytes(std::istream& in, void* data, std::size_t size,
                const char* what) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  if (static_cast<std::size_t>(in.gcount()) != size) {
    throw std::runtime_error(std::string("truncated graph cache: ") + what);
  }
}

template <typename T>
T read_scalar(std::istream& in, const char* what) {
  T value{};
  read_bytes(in, &value, sizeof(value), what);
  return value;
}

template <typename T>
std::vector<T> read_array(std::istream& in, std::size_t count,
                          const char* what) {
  std::vector<T> values(count);
  if (count > 0) {
    read_bytes(in, values.data(), count * sizeof(T), what);
  }
  return values;
}

struct EdgeColumns {
  std::vector<VertexId> src;
  std::vector<VertexId> dst;
  std::vector<Timestamp> ts;
};

EdgeColumns split_columns(const TemporalGraph& graph) {
  EdgeColumns columns;
  const auto edges = graph.edges_by_time();
  columns.src.reserve(edges.size());
  columns.dst.reserve(edges.size());
  columns.ts.reserve(edges.size());
  for (const TemporalEdge& e : edges) {
    columns.src.push_back(e.src);
    columns.dst.push_back(e.dst);
    columns.ts.push_back(e.ts);
  }
  return columns;
}

std::vector<std::size_t> collect_offsets(const TemporalGraph& graph,
                                         bool out_side) {
  std::vector<std::size_t> offsets;
  offsets.reserve(static_cast<std::size_t>(graph.num_vertices()) + 1);
  offsets.push_back(0);
  std::size_t running = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    running += out_side ? graph.out_edges(v).size() : graph.in_edges(v).size();
    offsets.push_back(running);
  }
  return offsets;
}

}  // namespace

void save_graph_cache(const TemporalGraph& graph, std::ostream& out) {
  const EdgeColumns columns = split_columns(graph);
  const std::vector<std::size_t> out_offsets = collect_offsets(graph, true);
  const std::vector<std::size_t> in_offsets = collect_offsets(graph, false);

  std::uint64_t checksum = kFnv1aOffset;
  checksum = fnv1a_array(out_offsets, checksum);
  checksum = fnv1a_array(in_offsets, checksum);
  checksum = fnv1a_array(columns.src, checksum);
  checksum = fnv1a_array(columns.dst, checksum);
  checksum = fnv1a_array(columns.ts, checksum);

  write_bytes(out, kMagic, sizeof(kMagic));
  write_scalar<std::uint32_t>(out, kGraphCacheVersion);
  write_scalar<std::uint64_t>(out, graph.num_vertices());
  write_scalar<std::uint64_t>(out, graph.num_edges());
  write_scalar<std::int64_t>(out, graph.min_timestamp());
  write_scalar<std::int64_t>(out, graph.max_timestamp());
  write_scalar<std::uint64_t>(out, checksum);
  write_array(out, out_offsets);
  write_array(out, in_offsets);
  write_array(out, columns.src);
  write_array(out, columns.dst);
  write_array(out, columns.ts);
  if (!out) {
    throw std::runtime_error("graph cache write failed");
  }
}

GraphCacheHeader read_graph_cache_header(std::istream& in) {
  char magic[4] = {};
  read_bytes(in, magic, sizeof(magic), "magic");
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("not a graph cache file (bad magic)");
  }
  const auto version = read_scalar<std::uint32_t>(in, "version");
  if (version != kGraphCacheVersion) {
    throw std::runtime_error("unsupported graph cache version " +
                             std::to_string(version) + " (expected " +
                             std::to_string(kGraphCacheVersion) + ")");
  }
  GraphCacheHeader header;
  header.num_vertices = read_scalar<std::uint64_t>(in, "vertex count");
  header.num_edges = read_scalar<std::uint64_t>(in, "edge count");
  header.min_ts = read_scalar<std::int64_t>(in, "min timestamp");
  header.max_ts = read_scalar<std::int64_t>(in, "max timestamp");
  header.checksum = read_scalar<std::uint64_t>(in, "checksum");
  if (header.num_vertices >= std::numeric_limits<VertexId>::max() ||
      header.num_edges >= std::numeric_limits<EdgeId>::max()) {
    throw std::runtime_error("graph cache counts out of range");
  }
  return header;
}

TemporalGraph load_graph_cache(std::istream& in) {
  const GraphCacheHeader header = read_graph_cache_header(in);
  const auto offset_count = static_cast<std::size_t>(header.num_vertices) + 1;
  const auto edge_count = static_cast<std::size_t>(header.num_edges);
  // Bound the untrusted counts against the actual remaining bytes before
  // allocating anything (files and string streams are seekable): a corrupt
  // header must surface as an error, never as a multi-gigabyte allocation.
  // Exact equality also rejects trailing garbage — the format is canonical.
  const std::istream::pos_type here = in.tellg();
  if (here != std::istream::pos_type(-1)) {
    in.seekg(0, std::ios::end);
    const std::istream::pos_type end_pos = in.tellg();
    in.seekg(here);
    if (end_pos != std::istream::pos_type(-1) &&
        static_cast<std::uint64_t>(end_pos - here) != header.payload_bytes()) {
      throw std::runtime_error(
          "graph cache size disagrees with header counts (truncated or "
          "corrupt)");
    }
  }
  auto out_offsets =
      read_array<std::size_t>(in, offset_count, "out-offset array");
  auto in_offsets =
      read_array<std::size_t>(in, offset_count, "in-offset array");
  const auto src = read_array<VertexId>(in, edge_count, "source array");
  const auto dst = read_array<VertexId>(in, edge_count, "destination array");
  const auto ts = read_array<Timestamp>(in, edge_count, "timestamp array");

  std::uint64_t checksum = kFnv1aOffset;
  checksum = fnv1a_array(out_offsets, checksum);
  checksum = fnv1a_array(in_offsets, checksum);
  checksum = fnv1a_array(src, checksum);
  checksum = fnv1a_array(dst, checksum);
  checksum = fnv1a_array(ts, checksum);
  if (checksum != header.checksum) {
    throw std::runtime_error("graph cache checksum mismatch (corrupt file)");
  }

  TemporalGraph::SortedParts parts;
  parts.edges_by_time.resize(edge_count);
  for (std::size_t i = 0; i < edge_count; ++i) {
    parts.edges_by_time[i] =
        TemporalEdge{src[i], dst[i], ts[i], static_cast<EdgeId>(i)};
  }
  parts.out_offsets = std::move(out_offsets);
  parts.in_offsets = std::move(in_offsets);
  TemporalGraph graph;
  try {
    graph = TemporalGraph::from_sorted_parts(
        static_cast<VertexId>(header.num_vertices), std::move(parts));
  } catch (const std::invalid_argument& error) {
    throw std::runtime_error(std::string("corrupt graph cache: ") +
                             error.what());
  }
  if (graph.min_timestamp() != header.min_ts ||
      graph.max_timestamp() != header.max_ts) {
    throw std::runtime_error(
        "corrupt graph cache: header timestamps disagree with edges");
  }
  return graph;
}

void save_graph_cache_file(const TemporalGraph& graph,
                           const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot open graph cache for writing: " + path);
  }
  save_graph_cache(graph, out);
  out.flush();
  if (!out) {
    throw std::runtime_error("graph cache write failed: " + path);
  }
}

TemporalGraph load_graph_cache_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open graph cache: " + path);
  }
  return load_graph_cache(in);
}

bool is_graph_cache_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  return in.gcount() == sizeof(magic) &&
         std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
}

TemporalGraph load_graph_any(const std::string& path, Scheduler* sched,
                             const EdgeListOptions& options, LoadStats* stats,
                             bool* loaded_from_cache) {
  if (is_graph_cache_file(path)) {
    if (loaded_from_cache != nullptr) {
      *loaded_from_cache = true;
    }
    TemporalGraph graph = load_graph_cache_file(path);
    if (stats != nullptr) {
      *stats = LoadStats{};
      stats->edges_loaded = graph.num_edges();
    }
    return graph;
  }
  if (loaded_from_cache != nullptr) {
    *loaded_from_cache = false;
  }
  if (sched != nullptr) {
    return load_temporal_edge_list_file_parallel(path, *sched, options, stats);
  }
  return load_temporal_edge_list_file(path, options, stats);
}

}  // namespace parcycle
