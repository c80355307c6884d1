// Versioned binary graph cache (".pcg"): a parsed TemporalGraph persisted in
// its canonical representation so re-runs stream the cache instead of
// re-parsing gigabytes of text.
//
// Layout (little-endian, fixed-width fields, no struct padding on disk):
//
//   magic "PCG1" | u32 version | u64 num_vertices | u64 num_edges
//   | i64 min_ts | i64 max_ts | u64 payload_checksum (FNV-1a 64)
//   payload:
//     out_offsets  u64 * (num_vertices + 1)   CSR index, out-adjacency
//     in_offsets   u64 * (num_vertices + 1)   CSR index, in-adjacency
//     src          u32 * num_edges            edges in (ts, src, dst) order;
//     dst          u32 * num_edges            edge ids are implicit (the
//     ts           i64 * num_edges            array index)
//
// The representation is canonical (the graph's own sorted order), so
// save(load(bytes)) reproduces `bytes` exactly and a cache written from a
// text parse equals one written from any other construction of the same
// graph. Loading validates magic, version, structural invariants
// (TemporalGraph::from_sorted_parts) and the checksum; corruption and
// truncation surface as std::runtime_error, never as a malformed graph.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "graph/temporal_graph.hpp"
#include "io/edge_list.hpp"

namespace parcycle {

inline constexpr std::uint32_t kGraphCacheVersion = 1;
inline constexpr char kGraphCacheExtension[] = ".pcg";

// The fixed-size header that opens a cache.
struct GraphCacheHeader {
  static constexpr std::uint64_t kBytes = 48;

  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  Timestamp min_ts = 0;
  Timestamp max_ts = 0;
  std::uint64_t checksum = 0;  // FNV-1a 64 of the payload

  // Bytes of the two offset arrays, which open the payload.
  std::uint64_t offset_bytes() const noexcept {
    return 2 * (num_vertices + 1) * sizeof(std::uint64_t);
  }
  // Bytes of the whole payload: the offset arrays, then the src, dst and ts
  // columns.
  std::uint64_t payload_bytes() const noexcept {
    return offset_bytes() +
           num_edges * (2 * sizeof(VertexId) + sizeof(Timestamp));
  }
};

// Reads the header at the stream's position: checks the magic, the version
// and that the counts fit the id types. Throws std::runtime_error otherwise,
// also on a short read.
GraphCacheHeader read_graph_cache_header(std::istream& in);

void save_graph_cache(const TemporalGraph& graph, std::ostream& out);
TemporalGraph load_graph_cache(std::istream& in);

void save_graph_cache_file(const TemporalGraph& graph,
                           const std::string& path);
TemporalGraph load_graph_cache_file(const std::string& path);

// True when the file starts with the cache magic (any version). False for
// unreadable or short files — callers then treat the path as a text list.
bool is_graph_cache_file(const std::string& path);

// Loads `path` whatever it is: a .pcg cache (sniffed by magic, not name) is
// streamed; a text edge list is parsed — in parallel when `sched` is
// non-null, serially otherwise. Cache loads leave only the byte/edge counts
// in `stats`. `loaded_from_cache` (optional) reports which route ran.
TemporalGraph load_graph_any(const std::string& path, Scheduler* sched,
                             const EdgeListOptions& options = {},
                             LoadStats* stats = nullptr,
                             bool* loaded_from_cache = nullptr);

}  // namespace parcycle
