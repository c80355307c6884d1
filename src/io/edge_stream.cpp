#include "io/edge_stream.hpp"

#include <bit>
#include <stdexcept>
#include <utility>

#include "graph/temporal_graph.hpp"
#include "io/graph_cache.hpp"
#include "support/fnv1a.hpp"

namespace parcycle {

namespace {

static_assert(std::endian::native == std::endian::little,
              "edge streaming assumes a little-endian target");

// Edges per column-read chunk: ~64 KiB of timestamps per refill.
constexpr std::uint64_t kChunkEdges = 8192;

[[noreturn]] void bad_stream(const std::string& what) {
  throw std::runtime_error("edge stream: " + what);
}

template <typename T>
void read_column_chunk(std::ifstream& in, std::uint64_t base,
                       std::uint64_t first, std::uint64_t count,
                       std::vector<T>& out) {
  out.resize(count);
  in.seekg(static_cast<std::streamoff>(base + first * sizeof(T)));
  in.read(reinterpret_cast<char*>(out.data()),
          static_cast<std::streamsize>(count * sizeof(T)));
  if (!in || static_cast<std::uint64_t>(in.gcount()) != count * sizeof(T)) {
    bad_stream("cache read failed mid-stream (file changed underneath?)");
  }
}

}  // namespace

EdgeStreamReader EdgeStreamReader::open_file(const std::string& path,
                                             const EdgeListOptions& options,
                                             Scheduler* sched) {
  if (!is_graph_cache_file(path)) {
    // Text route: one canonicalising parse, then stream from memory.
    TemporalGraph graph =
        sched ? load_temporal_edge_list_file_parallel(path, *sched, options)
              : load_temporal_edge_list_file(path, options);
    const auto edges = graph.edges_by_time();
    return from_edges(std::vector<TemporalEdge>(edges.begin(), edges.end()),
                      graph.num_vertices());
  }

  EdgeStreamReader reader;
  reader.cache_.open(path, std::ios::binary);
  if (!reader.cache_) {
    bad_stream("cannot open '" + path + "'");
  }
  std::ifstream& in = reader.cache_;
  GraphCacheHeader header;
  try {
    header = read_graph_cache_header(in);
  } catch (const std::runtime_error& error) {
    bad_stream("'" + path + "': " + error.what());
  }
  const std::uint64_t payload_bytes = header.payload_bytes();
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  if (file_size != GraphCacheHeader::kBytes + payload_bytes) {
    bad_stream("cache size disagrees with header counts (truncated or "
               "corrupt)");
  }

  // Validate the whole payload checksum up front with a constant-memory
  // sequential scan — the column order of the payload IS the byte order the
  // checksum was computed in, so no reassembly is needed. After this pass a
  // corrupt cache can never feed a single edge downstream.
  in.seekg(static_cast<std::streamoff>(GraphCacheHeader::kBytes));
  std::vector<char> block(1 << 20);
  std::uint64_t checksum = kFnv1aOffset;
  std::uint64_t remaining = payload_bytes;
  while (remaining > 0) {
    const auto take =
        static_cast<std::streamsize>(std::min<std::uint64_t>(remaining,
                                                             block.size()));
    in.read(block.data(), take);
    if (in.gcount() != take) {
      bad_stream("cache truncated mid-payload");
    }
    checksum = fnv1a(block.data(), static_cast<std::size_t>(take), checksum);
    remaining -= static_cast<std::uint64_t>(take);
  }
  if (checksum != header.checksum) {
    bad_stream("cache checksum mismatch (corrupt file)");
  }

  reader.src_base_ = GraphCacheHeader::kBytes + header.offset_bytes();
  reader.dst_base_ = reader.src_base_ + header.num_edges * sizeof(VertexId);
  reader.ts_base_ = reader.dst_base_ + header.num_edges * sizeof(VertexId);
  reader.total_edges_ = header.num_edges;
  reader.num_vertices_ = static_cast<VertexId>(header.num_vertices);
  in.clear();
  return reader;
}

EdgeStreamReader EdgeStreamReader::from_edges(std::vector<TemporalEdge> edges,
                                              VertexId num_vertices) {
  EdgeStreamReader reader;
  reader.edges_ = std::move(edges);
  reader.total_edges_ = reader.edges_.size();
  reader.num_vertices_ = num_vertices;
  for (const TemporalEdge& e : reader.edges_) {
    reader.num_vertices_ =
        std::max(reader.num_vertices_,
                 static_cast<VertexId>(std::max(e.src, e.dst) + 1));
  }
  return reader;
}

void EdgeStreamReader::refill_chunk() {
  const std::uint64_t count =
      std::min<std::uint64_t>(kChunkEdges, total_edges_ - position_);
  read_column_chunk(cache_, src_base_, position_, count, chunk_src_);
  read_column_chunk(cache_, dst_base_, position_, count, chunk_dst_);
  read_column_chunk(cache_, ts_base_, position_, count, chunk_ts_);
  chunk_start_ = position_;
}

bool EdgeStreamReader::next(TemporalEdge& edge) {
  if (position_ >= total_edges_) {
    return false;
  }
  if (cache_.is_open()) {
    if (position_ < chunk_start_ || position_ >= chunk_start_ + chunk_ts_.size()) {
      refill_chunk();
    }
    const auto i = static_cast<std::size_t>(position_ - chunk_start_);
    edge = TemporalEdge{chunk_src_[i], chunk_dst_[i], chunk_ts_[i],
                        kInvalidEdge};
  } else {
    edge = edges_[static_cast<std::size_t>(position_)];
    edge.id = kInvalidEdge;
  }
  position_ += 1;
  return true;
}

void EdgeStreamReader::skip(std::uint64_t n) {
  // Cursor arithmetic only; the cache path re-reads lazily on the next
  // next() call, so skipping costs no IO.
  position_ = std::min(total_edges_, position_ + n);
}

}  // namespace parcycle
