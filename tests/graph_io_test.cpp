// Edge-list parsing through io/edge_list.hpp (see also io_parser_test for
// the parallel path).
#include "io/edge_list.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace parcycle {
namespace {

TEST(GraphIo, ParsesTimestampedEdgeList) {
  std::istringstream in(
      "# comment line\n"
      "0 1 100\n"
      "1 2 200\n"
      "\n"
      "2 0 300  # trailing comment\n");
  const TemporalGraph g = load_temporal_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.min_timestamp(), 100);
  EXPECT_EQ(g.max_timestamp(), 300);
}

TEST(GraphIo, MissingTimestampsDefaultToZero) {
  std::istringstream in("0 1\n1 0\n");
  const TemporalGraph g = load_temporal_edge_list(in);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.max_timestamp(), 0);
}

TEST(GraphIo, MissingTimestampRejectedWhenRequired) {
  std::istringstream in("0 1\n");
  EdgeListOptions options;
  options.allow_missing_timestamps = false;
  EXPECT_THROW(load_temporal_edge_list(in, options), std::runtime_error);
}

TEST(GraphIo, MalformedLineThrows) {
  std::istringstream in("0 banana\n");
  EXPECT_THROW(load_temporal_edge_list(in), std::runtime_error);
}

TEST(GraphIo, NegativeVertexThrows) {
  std::istringstream in("-1 2 5\n");
  EXPECT_THROW(load_temporal_edge_list(in), std::runtime_error);
}

TEST(GraphIo, DropSelfLoopsOption) {
  std::istringstream in("0 0 1\n0 1 2\n");
  EdgeListOptions options;
  options.drop_self_loops = true;
  const TemporalGraph g = load_temporal_edge_list(in, options);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphIo, SaveLoadRoundTrip) {
  std::istringstream in("0 1 10\n1 2 20\n2 0 30\n1 0 15\n");
  const TemporalGraph original = load_temporal_edge_list(in);

  std::ostringstream out;
  save_temporal_edge_list(original, out);
  std::istringstream back(out.str());
  const TemporalGraph reloaded = load_temporal_edge_list(back);

  ASSERT_EQ(reloaded.num_edges(), original.num_edges());
  ASSERT_EQ(reloaded.num_vertices(), original.num_vertices());
  const auto a = original.edges_by_time();
  const auto b = reloaded.edges_by_time();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
    EXPECT_EQ(a[i].ts, b[i].ts);
  }
}

TEST(GraphIo, UnreadableFileThrows) {
  EXPECT_THROW(load_temporal_edge_list_file("/nonexistent/path/graph.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace parcycle
