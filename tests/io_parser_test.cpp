#include "io/edge_list.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "support/scheduler.hpp"

namespace parcycle {
namespace {

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
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.out_edges(v).size(), b.out_edges(v).size()) << "vertex " << v;
    ASSERT_EQ(a.in_edges(v).size(), b.in_edges(v).size()) << "vertex " << v;
  }
}

std::string error_message_of(const std::string& input,
                             const EdgeListOptions& options = {}) {
  try {
    parse_temporal_edge_list(input, options);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(IoParser, CrlfWhitespaceAndBomTolerated) {
  const std::string input =
      "\xEF\xBB\xBF# comment\r\n"
      "0 1 100\r\n"
      "  1\t2\t200  \r\n"
      "\t\r\n"
      "2 0 300  # trailing comment\r\n";
  const TemporalGraph crlf = parse_temporal_edge_list(input);
  const TemporalGraph lf =
      parse_temporal_edge_list("0 1 100\n1 2 200\n2 0 300\n");
  expect_same_graph(crlf, lf);
}

TEST(IoParser, ExtraColumnsIgnored) {
  // Several SNAP files (higgs-activity) carry a fourth annotation column.
  const TemporalGraph g = parse_temporal_edge_list("0 1 100 RT\n1 0 200 MT\n");
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.max_timestamp(), 200);
}

TEST(IoParser, ErrorsNameTheOffendingLine) {
  EXPECT_NE(error_message_of("0 1 10\n1 2 20\n0 banana\n")
                .find("at line 3"),
            std::string::npos);
  EXPECT_NE(error_message_of("0 1 10\n\n# c\n1\n").find("at line 4"),
            std::string::npos);
  // Missing destination column.
  EXPECT_NE(error_message_of("7\n").find("at line 1"), std::string::npos);
}

TEST(IoParser, NegativeAndOverflowingVertexIdsRejected) {
  EXPECT_THROW(parse_temporal_edge_list("-1 2 5\n"), std::runtime_error);
  // 2^32 does not fit VertexId; 0xFFFFFFFF is the invalid sentinel.
  EXPECT_NE(error_message_of("4294967296 1 5\n").find("out of range"),
            std::string::npos);
  EXPECT_NE(error_message_of("4294967295 1 5\n").find("out of range"),
            std::string::npos);
  // Negative timestamps are legitimate.
  EXPECT_EQ(parse_temporal_edge_list("0 1 -50\n").min_timestamp(), -50);
}

TEST(IoParser, MissingTimestampPolicy) {
  EXPECT_EQ(parse_temporal_edge_list("0 1\n1 0\n").max_timestamp(), 0);
  EdgeListOptions options;
  options.allow_missing_timestamps = false;
  EXPECT_THROW(parse_temporal_edge_list("0 1\n", options),
               std::runtime_error);
}

TEST(IoParser, LoadStatsCountsEverything) {
  EdgeListOptions options;
  options.drop_self_loops = true;
  options.drop_duplicate_edges = true;
  LoadStats stats;
  const TemporalGraph g = parse_temporal_edge_list(
      "# header\n"
      "0 1 10\n"
      "3 3 11\n"   // self loop, dropped
      "0 1 10\n"   // exact duplicate, dropped
      "\n"
      "1 0 12\n"
      "0 1 13\n",  // same pair, different ts: kept
      options, &stats);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(stats.lines, 7u);
  EXPECT_EQ(stats.comment_lines, 2u);
  EXPECT_EQ(stats.edges_loaded, 3u);
  EXPECT_EQ(stats.self_loops_dropped, 1u);
  EXPECT_EQ(stats.duplicate_edges_dropped, 1u);
  // Dropped self-loops do not grow the vertex set (builder-compatible).
  EXPECT_EQ(g.num_vertices(), 2u);
}

TEST(IoParser, IstreamPathMatchesBufferPath) {
  const std::string input = "2 0 30\n0 1 10\n1 2 20\n";
  std::istringstream in(input);
  LoadStats stream_stats;
  LoadStats buffer_stats;
  const TemporalGraph a = load_temporal_edge_list(in, {}, &stream_stats);
  const TemporalGraph b = parse_temporal_edge_list(input, {}, &buffer_stats);
  expect_same_graph(a, b);
  EXPECT_EQ(stream_stats.lines, buffer_stats.lines);
  EXPECT_EQ(stream_stats.edges_loaded, buffer_stats.edges_loaded);
}

// -- Parallel path -----------------------------------------------------------

std::string edge_list_text(const TemporalGraph& graph) {
  std::ostringstream out;
  save_temporal_edge_list(graph, out);
  return out.str();
}

TemporalGraph generated(std::size_t edges, std::uint64_t seed) {
  ScaleFreeTemporalParams params;
  params.num_vertices = static_cast<VertexId>(edges / 8 + 16);
  params.num_edges = edges;
  params.time_span = 100'000;
  params.attachment = 0.7;
  params.burstiness = 0.5;
  params.seed = seed;
  return scale_free_temporal(params);
}

TEST(IoParserParallel, MatchesSerialOnGeneratedGraphs) {
  for (const std::size_t edges : {1'000ul, 20'000ul}) {
    const TemporalGraph original = generated(edges, 7 + edges);
    const std::string text = edge_list_text(original);
    LoadStats serial_stats;
    const TemporalGraph serial =
        parse_temporal_edge_list(text, {}, &serial_stats);
    expect_same_graph(original, serial);
    for (const unsigned threads : {1u, 2u, 4u}) {
      EdgeListOptions options;
      options.parallel_chunk_bytes = text.size() / 13 + 1;  // force chunks
      LoadStats parallel_stats;
      const TemporalGraph parallel =
          Scheduler::with_pool(threads, [&](Scheduler& sched) {
            return parse_temporal_edge_list_parallel(text, sched, options,
                                                     &parallel_stats);
          });
      expect_same_graph(serial, parallel);
      EXPECT_EQ(parallel_stats.lines, serial_stats.lines);
      EXPECT_EQ(parallel_stats.edges_loaded, serial_stats.edges_loaded);
      EXPECT_GT(parallel_stats.parse_chunks, 1u);
    }
  }
}

TEST(IoParserParallel, ErrorLineNumbersSpanChunks) {
  std::string text;
  for (int i = 0; i < 997; ++i) {
    text += "1 2 3\n";
  }
  text += "oops\n";  // line 998
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    EdgeListOptions options;
    options.parallel_chunk_bytes = 64;
    try {
      parse_temporal_edge_list_parallel(text, sched, options);
      FAIL() << "expected a parse error";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("at line 998"),
                std::string::npos)
          << error.what();
    }
  });
}

// Every LoadStats field except the timing and the chunk count.
void expect_same_stats(const LoadStats& a, const LoadStats& b) {
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.lines, b.lines);
  EXPECT_EQ(a.comment_lines, b.comment_lines);
  EXPECT_EQ(a.edges_loaded, b.edges_loaded);
  EXPECT_EQ(a.self_loops_dropped, b.self_loops_dropped);
  EXPECT_EQ(a.duplicate_edges_dropped, b.duplicate_edges_dropped);
}

// A time-ordered edge list with the holes the in-place parse must close: a
// header comment, blank and comment-only lines, self-loops, CRLF endings,
// and no newline after the last line.
std::string holey_text(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::string text = "# src dst ts\r\n";
  for (int i = 0; i < 400; ++i) {
    const auto src = rng() % 9;
    const auto dst = rng() % 4 == 0 ? src : rng() % 9;
    text += std::to_string(src) + " " + std::to_string(dst) + " " +
            std::to_string(10 * i + static_cast<int>(rng() % 3));
    text += i % 3 == 0 ? "\r\n" : "\n";
    if (rng() % 11 == 0) {
      text += "\n";
    }
    if (rng() % 13 == 0) {
      text += "  # note\n";
    }
  }
  text += "8 7 99999";
  return text;
}

TEST(IoParserParallel, InPlaceParseMatchesSerialAtTinyChunks) {
  for (const bool drop_self_loops : {false, true}) {
    EdgeListOptions options;
    options.drop_self_loops = drop_self_loops;
    const std::string text = holey_text(drop_self_loops ? 3 : 4);
    LoadStats serial_stats;
    const TemporalGraph serial =
        parse_temporal_edge_list(text, options, &serial_stats);
    EXPECT_GT(serial_stats.comment_lines, 20u);
    EXPECT_EQ(serial_stats.self_loops_dropped > 0, drop_self_loops);
    for (const std::size_t chunk_bytes : {1ul, 7ul, 64ul, 1000ul}) {
      for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(testing::Message()
                     << "chunk " << chunk_bytes << " threads " << threads
                     << " drop " << drop_self_loops);
        options.parallel_chunk_bytes = chunk_bytes;
        LoadStats stats;
        const TemporalGraph parallel =
            Scheduler::with_pool(threads, [&](Scheduler& sched) {
              return parse_temporal_edge_list_parallel(text, sched, options,
                                                       &stats);
            });
        expect_same_graph(serial, parallel);
        expect_same_stats(serial_stats, stats);
        EXPECT_GE(stats.parse_chunks, 4u);
      }
    }
  }
}

TEST(IoParserParallel, MiddleChunkErrorKeepsAbsoluteLine) {
  std::string text = holey_text(5);
  // Corrupt the first edge of line 200, past dozens of chunks of holes.
  std::size_t line_start = 0;
  for (int line = 1; line < 200; ++line) {
    line_start = text.find('\n', line_start) + 1;
  }
  text.insert(line_start, "x");
  const std::string serial = error_message_of(text);
  ASSERT_NE(serial.find("at line 200"), std::string::npos) << serial;
  for (const std::size_t chunk_bytes : {1ul, 64ul, 1000ul}) {
    EdgeListOptions options;
    options.parallel_chunk_bytes = chunk_bytes;
    const std::string parallel =
        Scheduler::with_pool(4, [&](Scheduler& sched) -> std::string {
          try {
            parse_temporal_edge_list_parallel(text, sched, options);
          } catch (const std::runtime_error& error) {
            return error.what();
          }
          return "";
        });
    EXPECT_EQ(parallel, serial) << "chunk " << chunk_bytes;
  }
}

TEST(IoParserParallel, StatsAndDedupAcrossChunks) {
  std::string text;
  for (int i = 0; i < 500; ++i) {
    text += "4 5 77\n";  // all duplicates of one edge
    text += std::to_string(i % 7) + " " + std::to_string(i % 7) + " 1\n";
  }
  EdgeListOptions options;
  options.parallel_chunk_bytes = 128;
  options.drop_self_loops = true;
  options.drop_duplicate_edges = true;
  LoadStats stats;
  const TemporalGraph graph =
      Scheduler::with_pool(4, [&](Scheduler& sched) {
        return parse_temporal_edge_list_parallel(text, sched, options,
                                                 &stats);
      });
  EXPECT_EQ(graph.num_edges(), 1u);
  EXPECT_EQ(stats.self_loops_dropped, 500u);
  EXPECT_EQ(stats.duplicate_edges_dropped, 499u);
  EXPECT_EQ(stats.lines, 1000u);
}

TEST(IoParserParallel, FileRoundTripThroughRealFiles) {
  const TemporalGraph original = generated(5'000, 99);
  const std::string path = testing::TempDir() + "io_parser_roundtrip.txt";
  save_temporal_edge_list_file(original, path);
  LoadStats stats;
  const TemporalGraph serial = load_temporal_edge_list_file(path, {}, &stats);
  expect_same_graph(original, serial);
  EXPECT_EQ(stats.edges_loaded, original.num_edges());
  EXPECT_GT(stats.bytes, 0u);
  const TemporalGraph parallel =
      Scheduler::with_pool(2, [&](Scheduler& sched) {
        return load_temporal_edge_list_file_parallel(path, sched);
      });
  expect_same_graph(original, parallel);
  std::remove(path.c_str());
}

TEST(IoParserParallel, UnreadableFileThrows) {
  EXPECT_THROW(load_temporal_edge_list_file("/nonexistent/graph.txt"),
               std::runtime_error);
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    EXPECT_THROW(
        load_temporal_edge_list_file_parallel("/nonexistent/graph.txt", sched),
        std::runtime_error);
  });
}

TEST(IoParserParallel, ParallelFinaliseMatchesSerialConstruction) {
  // Above the parallel-finalisation gate (2^15 edges) the scheduler-aware
  // TemporalGraph constructor runs the chunked sort-merge and the per-chunk
  // counting-sort CSR fill; the result must be indistinguishable from the
  // serial constructor's, adjacency order included.
  const TemporalGraph serial = generated(40'000, 99);
  std::vector<TemporalEdge> scrambled(serial.edges_by_time().begin(),
                                      serial.edges_by_time().end());
  std::mt19937_64 rng(123);
  std::shuffle(scrambled.begin(), scrambled.end(), rng);
  for (auto& e : scrambled) {
    e.id = kInvalidEdge;  // ids are reassigned by rank either way
  }
  for (const unsigned threads : {2u, 4u}) {
    auto edges = scrambled;
    const TemporalGraph parallel =
        Scheduler::with_pool(threads, [&](Scheduler& sched) {
          return TemporalGraph(serial.num_vertices(), std::move(edges),
                               &sched);
        });
    expect_same_graph(serial, parallel);
    for (VertexId v = 0; v < serial.num_vertices(); ++v) {
      const auto a = serial.out_edges(v);
      const auto b = parallel.out_edges(v);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].id, b[i].id) << "vertex " << v << " slot " << i;
        ASSERT_EQ(a[i].dst, b[i].dst);
        ASSERT_EQ(a[i].ts, b[i].ts);
      }
      const auto ai = serial.in_edges(v);
      const auto bi = parallel.in_edges(v);
      ASSERT_EQ(ai.size(), bi.size());
      for (std::size_t i = 0; i < ai.size(); ++i) {
        ASSERT_EQ(ai[i].id, bi[i].id) << "vertex " << v << " slot " << i;
      }
    }
  }
}

}  // namespace
}  // namespace parcycle
