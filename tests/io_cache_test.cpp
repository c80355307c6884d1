#include "io/graph_cache.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/generators.hpp"
#include "io/edge_list.hpp"
#include "io/edge_stream.hpp"

namespace parcycle {
namespace {

TemporalGraph generated(std::size_t edges, std::uint64_t seed) {
  ScaleFreeTemporalParams params;
  params.num_vertices = static_cast<VertexId>(edges / 8 + 16);
  params.num_edges = edges;
  params.time_span = 50'000;
  params.attachment = 0.7;
  params.burstiness = 0.5;
  params.seed = seed;
  return scale_free_temporal(params);
}

void expect_same_graph(const TemporalGraph& a, const TemporalGraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  const auto ea = a.edges_by_time();
  const auto eb = b.edges_by_time();
  for (std::size_t i = 0; i < ea.size(); ++i) {
    ASSERT_EQ(ea[i].src, eb[i].src) << "edge " << i;
    ASSERT_EQ(ea[i].dst, eb[i].dst) << "edge " << i;
    ASSERT_EQ(ea[i].ts, eb[i].ts) << "edge " << i;
    ASSERT_EQ(ea[i].id, eb[i].id) << "edge " << i;
  }
  ASSERT_EQ(a.min_timestamp(), b.min_timestamp());
  ASSERT_EQ(a.max_timestamp(), b.max_timestamp());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    const auto oa = a.out_edges(v);
    const auto ob = b.out_edges(v);
    ASSERT_EQ(oa.size(), ob.size()) << "vertex " << v;
    for (std::size_t i = 0; i < oa.size(); ++i) {
      ASSERT_EQ(oa[i].dst, ob[i].dst);
      ASSERT_EQ(oa[i].ts, ob[i].ts);
      ASSERT_EQ(oa[i].id, ob[i].id);
    }
    const auto ia = a.in_edges(v);
    const auto ib = b.in_edges(v);
    ASSERT_EQ(ia.size(), ib.size()) << "vertex " << v;
    for (std::size_t i = 0; i < ia.size(); ++i) {
      ASSERT_EQ(ia[i].src, ib[i].src);
      ASSERT_EQ(ia[i].ts, ib[i].ts);
      ASSERT_EQ(ia[i].id, ib[i].id);
    }
  }
}

std::string cache_bytes(const TemporalGraph& graph) {
  std::ostringstream out(std::ios::binary);
  save_graph_cache(graph, out);
  return out.str();
}

TemporalGraph load_bytes(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return load_graph_cache(in);
}

TEST(GraphCache, RoundTripIdentity) {
  const TemporalGraph original = generated(10'000, 3);
  const TemporalGraph reloaded = load_bytes(cache_bytes(original));
  expect_same_graph(original, reloaded);
}

TEST(GraphCache, EmptyAndTinyGraphs) {
  const TemporalGraph empty;
  expect_same_graph(empty, load_bytes(cache_bytes(empty)));
  const TemporalGraph tiny = parse_temporal_edge_list("0 1 5\n1 0 6\n");
  expect_same_graph(tiny, load_bytes(cache_bytes(tiny)));
}

TEST(GraphCache, SaveLoadSaveIsByteIdentical) {
  const TemporalGraph original = generated(5'000, 11);
  const std::string first = cache_bytes(original);
  const std::string second = cache_bytes(load_bytes(first));
  EXPECT_EQ(first, second);
}

TEST(GraphCache, CacheEqualsTextParseThroughFiles) {
  const TemporalGraph original = generated(8'000, 21);
  const std::string text_path = testing::TempDir() + "cache_eq.txt";
  const std::string cache_path = text_path + kGraphCacheExtension;
  save_temporal_edge_list_file(original, text_path);
  const TemporalGraph parsed = load_temporal_edge_list_file(text_path);
  save_graph_cache_file(parsed, cache_path);
  const TemporalGraph cached = load_graph_cache_file(cache_path);
  expect_same_graph(parsed, cached);
  expect_same_graph(original, cached);
  EXPECT_TRUE(is_graph_cache_file(cache_path));
  EXPECT_FALSE(is_graph_cache_file(text_path));
  EXPECT_FALSE(is_graph_cache_file(text_path + ".does-not-exist"));

  // load_graph_any sniffs by magic, not by file name.
  bool from_cache = false;
  expect_same_graph(load_graph_any(cache_path, nullptr, {}, nullptr,
                                   &from_cache),
                    cached);
  EXPECT_TRUE(from_cache);
  LoadStats stats;
  expect_same_graph(load_graph_any(text_path, nullptr, {}, &stats,
                                   &from_cache),
                    cached);
  EXPECT_FALSE(from_cache);
  EXPECT_EQ(stats.edges_loaded, cached.num_edges());

  std::remove(text_path.c_str());
  std::remove(cache_path.c_str());
}

TEST(GraphCache, TruncationRejectedEverywhere) {
  const std::string bytes = cache_bytes(generated(500, 5));
  // Every strict prefix must be rejected as truncated, never mis-loaded.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{17}, std::size_t{47},
        bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW(load_bytes(bytes.substr(0, keep)), std::runtime_error)
        << "prefix of " << keep << " bytes";
  }
}

TEST(GraphCache, BadMagicAndVersionRejected) {
  EXPECT_THROW(load_bytes("hello world, this is not a cache"),
               std::runtime_error);
  std::string bytes = cache_bytes(generated(100, 6));
  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  EXPECT_THROW(load_bytes(wrong_magic), std::runtime_error);
  std::string wrong_version = bytes;
  wrong_version[4] = 99;  // version field follows the 4-byte magic
  try {
    load_bytes(wrong_version);
    FAIL() << "expected a version error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("version"), std::string::npos);
  }
}

TEST(GraphCache, PayloadCorruptionFailsChecksum) {
  const std::string bytes = cache_bytes(generated(1'000, 7));
  // Header: magic(4) + version(4) + counts(16) + timestamps(16) +
  // checksum(8) = 48 bytes; everything after is checksummed payload.
  for (const std::size_t victim : {std::size_t{48}, bytes.size() / 2,
                                   bytes.size() - 1}) {
    std::string corrupt = bytes;
    corrupt[victim] = static_cast<char>(corrupt[victim] ^ 0x20);
    EXPECT_THROW(load_bytes(corrupt), std::runtime_error)
        << "flipped byte " << victim;
  }
}

TEST(GraphCache, HeaderTimestampMismatchRejected) {
  std::string bytes = cache_bytes(generated(1'000, 8));
  bytes[24] = static_cast<char>(bytes[24] ^ 0x01);  // min_ts field
  EXPECT_THROW(load_bytes(bytes), std::runtime_error);
}

TEST(GraphCache, UnreadablePathsThrow) {
  EXPECT_THROW(load_graph_cache_file("/nonexistent/graph.pcg"),
               std::runtime_error);
  EXPECT_THROW(save_graph_cache_file(TemporalGraph(), "/nonexistent/g.pcg"),
               std::runtime_error);
}

// --- EdgeStreamReader over a cache file --------------------------------------

std::string write_file(const std::string& name, const std::string& bytes) {
  const std::string path = testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

// More than two 8,192-edge chunk refills, streamed in edges_by_time() order.
TEST(EdgeStream, CacheStreamsEdgesByTime) {
  const TemporalGraph graph = generated(20'000, 11);
  const std::string path = write_file("stream_all.pcg", cache_bytes(graph));
  EdgeStreamReader reader = EdgeStreamReader::open_file(path);
  EXPECT_TRUE(reader.streaming_from_cache());
  EXPECT_EQ(reader.total_edges(), graph.num_edges());
  EXPECT_EQ(reader.num_vertices(), graph.num_vertices());
  TemporalEdge edge;
  for (const TemporalEdge& want : graph.edges_by_time()) {
    ASSERT_TRUE(reader.next(edge)) << "edge " << want.id;
    ASSERT_EQ(edge.src, want.src) << "edge " << want.id;
    ASSERT_EQ(edge.dst, want.dst) << "edge " << want.id;
    ASSERT_EQ(edge.ts, want.ts) << "edge " << want.id;
    ASSERT_EQ(edge.id, kInvalidEdge);
  }
  EXPECT_FALSE(reader.next(edge));
  EXPECT_EQ(reader.position(), graph.num_edges());
}

// skip(k) then next() yields edge k, from a fresh reader and from one whose
// chunk already holds other edges; skipping past the end clamps.
TEST(EdgeStream, SkipResumesAtEdgeK) {
  const TemporalGraph graph = generated(20'000, 12);
  const auto edges = graph.edges_by_time();
  const std::string path = write_file("stream_skip.pcg", cache_bytes(graph));
  for (const std::uint64_t read_first : {std::uint64_t{0}, std::uint64_t{10}}) {
    for (const std::uint64_t k :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{8'181},
          std::uint64_t{8'182}, std::uint64_t{12'345},
          std::uint64_t{edges.size() - read_first - 1}}) {
      SCOPED_TRACE(testing::Message()
                   << "read " << read_first << " skip " << k);
      EdgeStreamReader reader = EdgeStreamReader::open_file(path);
      TemporalEdge edge;
      for (std::uint64_t i = 0; i < read_first; ++i) {
        ASSERT_TRUE(reader.next(edge));
      }
      reader.skip(k);
      const std::uint64_t at = read_first + k;
      EXPECT_EQ(reader.position(), at);
      ASSERT_TRUE(reader.next(edge));
      EXPECT_EQ(edge.src, edges[at].src);
      EXPECT_EQ(edge.dst, edges[at].dst);
      EXPECT_EQ(edge.ts, edges[at].ts);
    }
  }
  EdgeStreamReader reader = EdgeStreamReader::open_file(path);
  reader.skip(edges.size() + 5);
  EXPECT_EQ(reader.position(), edges.size());
  TemporalEdge edge;
  EXPECT_FALSE(reader.next(edge));
}

// A damaged cache throws from open_file, so no edge of it is ever yielded.
// Prefixes shorter than the 4-byte magic are not sniffed as caches at all.
TEST(EdgeStream, DamagedCacheRejectedBeforeFirstEdge) {
  const std::string bytes = cache_bytes(generated(1'000, 13));
  const auto rejects = [](const std::string& damaged, const char* what) {
    const std::string path = write_file("stream_damaged.pcg", damaged);
    EXPECT_THROW(EdgeStreamReader::open_file(path), std::runtime_error)
        << what;
  };
  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  rejects(wrong_magic, "bad magic");
  std::string wrong_version = bytes;
  wrong_version[4] = 99;
  rejects(wrong_version, "bad version");
  for (std::size_t keep = 4; keep <= 48; ++keep) {
    rejects(bytes.substr(0, keep), "truncated header");
  }
  rejects(bytes.substr(0, bytes.size() / 2), "half the payload");
  rejects(bytes.substr(0, bytes.size() - 1), "payload one byte short");
  for (const std::size_t victim : {std::size_t{48}, bytes.size() / 2,
                                   bytes.size() - 1}) {
    std::string flipped = bytes;
    flipped[victim] = static_cast<char>(flipped[victim] ^ 0x04);
    rejects(flipped, "payload bit flip");
  }
}

}  // namespace
}  // namespace parcycle
