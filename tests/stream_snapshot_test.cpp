// StreamEngine snapshot/restore: a monitor killed mid-stream and restored
// from its snapshot must be indistinguishable from one that never stopped —
// same cycles (edge ids included), same deterministic counters — and a
// corrupt, truncated or mismatching snapshot must be rejected loudly, never
// half-restored.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "stream/engine.hpp"
#include "support/scheduler.hpp"
#include "temporal/temporal_johnson.hpp"

namespace parcycle {
namespace {

TemporalGraph test_graph() {
  ScaleFreeTemporalParams params;
  params.num_vertices = 50;
  params.num_edges = 400;
  params.time_span = 1500;
  params.attachment = 0.8;
  params.burstiness = 0.5;
  params.allow_self_loops = true;
  params.seed = 23;
  return scale_free_temporal(params);
}

constexpr Timestamp kWindow = 150;

StreamOptions engine_options() {
  StreamOptions options;
  options.window = kWindow;
  options.batch_size = 32;
  options.hot_frontier_threshold = 8;  // exercise escalated searches too
  return options;
}

// Runs the full stream uninterrupted; the reference every restored run must
// reproduce.
void run_reference(const TemporalGraph& graph, const StreamOptions& options,
                   CollectingSink& sink, StreamStats& stats) {
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, &sink);
    for (const auto& e : graph.edges_by_time()) {
      engine.push(e.src, e.dst, e.ts);
    }
    engine.flush();
    stats = engine.stats();
  });
}

// Feeds `break_at` edges, snapshots, restores into a fresh engine and feeds
// the rest. Returns the restored run's cycles and stats.
void run_interrupted(const TemporalGraph& graph, const StreamOptions& options,
                     std::size_t break_at, CollectingSink& sink,
                     StreamStats& stats, std::string* snapshot_bytes = nullptr) {
  const auto edges = graph.edges_by_time();
  ASSERT_LT(break_at, edges.size());
  std::stringstream snapshot;
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    // The first incarnation also reports to `sink`: alerts raised before the
    // kill were already delivered, the restored engine must not re-raise
    // them.
    StreamEngine engine(options, sched, &sink);
    for (std::size_t i = 0; i < break_at; ++i) {
      engine.push(edges[i].src, edges[i].dst, edges[i].ts);
    }
    engine.save_snapshot(snapshot);
  });
  if (snapshot_bytes != nullptr) {
    *snapshot_bytes = snapshot.str();
  }
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, &sink);
    engine.restore_snapshot(snapshot);
    const std::uint64_t resume_at = engine.edges_pushed();
    EXPECT_EQ(resume_at, break_at);
    for (std::size_t i = resume_at; i < edges.size(); ++i) {
      engine.push(edges[i].src, edges[i].dst, edges[i].ts);
    }
    engine.flush();
    stats = engine.stats();
  });
}

void expect_stats_equal(const StreamStats& a, const StreamStats& b) {
  EXPECT_EQ(a.cycles_found, b.cycles_found);
  EXPECT_EQ(a.edges_pushed, b.edges_pushed);
  EXPECT_EQ(a.edges_ingested, b.edges_ingested);
  EXPECT_EQ(a.expired_edges, b.expired_edges);
  EXPECT_EQ(a.live_edges, b.live_edges);
  EXPECT_EQ(a.escalated_edges, b.escalated_edges);
  EXPECT_EQ(a.late_edges_rejected, b.late_edges_rejected);
  EXPECT_EQ(a.work.edges_visited, b.work.edges_visited);
  ASSERT_EQ(a.per_window.size(), b.per_window.size());
  for (std::size_t i = 0; i < a.per_window.size(); ++i) {
    EXPECT_EQ(a.per_window[i].window, b.per_window[i].window);
    EXPECT_EQ(a.per_window[i].cycles_found, b.per_window[i].cycles_found);
    EXPECT_EQ(a.per_window[i].escalated_edges, b.per_window[i].escalated_edges);
    EXPECT_EQ(a.per_window[i].work.edges_visited,
              b.per_window[i].work.edges_visited);
  }
}

TEST(StreamSnapshot, KillAndRestoreMatchesUninterruptedRun) {
  const TemporalGraph graph = test_graph();
  const StreamOptions options = engine_options();
  CollectingSink reference_sink;
  StreamStats reference_stats;
  run_reference(graph, options, reference_sink, reference_stats);
  ASSERT_GT(reference_stats.cycles_found, 0u);

  // Break mid-batch (not a multiple of batch_size: the pending buffer is
  // non-empty in the snapshot) and at a batch boundary.
  for (const std::size_t break_at : {37u, 64u, 201u, 399u}) {
    SCOPED_TRACE(break_at);
    CollectingSink sink;
    StreamStats stats;
    run_interrupted(graph, options, break_at, sink, stats);
    EXPECT_EQ(sink.sorted_cycles(), reference_sink.sorted_cycles());
    expect_stats_equal(stats, reference_stats);
  }
}

TEST(StreamSnapshot, RoundTripWithReorderBufferInFlight) {
  const TemporalGraph graph = test_graph();
  StreamOptions options = engine_options();
  options.reorder_slack = 40;
  // Reverse consecutive pairs: every arrival is at most one edge's timestamp
  // gap out of order, well within the slack, so the reorder buffer is busy
  // at every point of the stream — including the snapshot point.
  const auto sorted = graph.edges_by_time();
  std::vector<TemporalEdge> feed(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i + 1 < feed.size(); i += 2) {
    if (feed[i + 1].ts - feed[i].ts <= options.reorder_slack) {
      std::swap(feed[i], feed[i + 1]);
    }
  }

  CollectingSink reference_sink;
  StreamStats reference_stats;
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, &reference_sink);
    for (const auto& e : feed) {
      engine.push(e.src, e.dst, e.ts);
    }
    engine.flush();
    reference_stats = engine.stats();
  });
  ASSERT_EQ(reference_stats.late_edges_rejected, 0u);

  const std::size_t break_at = 151;
  std::stringstream snapshot;
  CollectingSink sink;
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, &sink);
    for (std::size_t i = 0; i < break_at; ++i) {
      engine.push(feed[i].src, feed[i].dst, feed[i].ts);
    }
    EXPECT_GT(engine.stats().reorder_buffered, 0u);
    engine.save_snapshot(snapshot);
  });
  StreamStats stats;
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, &sink);
    engine.restore_snapshot(snapshot);
    for (std::size_t i = engine.edges_pushed(); i < feed.size(); ++i) {
      engine.push(feed[i].src, feed[i].dst, feed[i].ts);
    }
    engine.flush();
    stats = engine.stats();
  });
  EXPECT_EQ(sink.sorted_cycles(), reference_sink.sorted_cycles());
  expect_stats_equal(stats, reference_stats);
}

// Reverses consecutive pairs whose gap fits `slack`: every arrival is in
// slack, so the reorder buffer is busy at every point of the stream.
std::vector<TemporalEdge> pair_swapped_feed(const TemporalGraph& graph,
                                            Timestamp slack) {
  const auto sorted = graph.edges_by_time();
  std::vector<TemporalEdge> feed(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i + 1 < feed.size(); i += 2) {
    if (feed[i + 1].ts - feed[i].ts <= slack) {
      std::swap(feed[i], feed[i + 1]);
    }
  }
  return feed;
}

TEST(StreamSnapshot, RestoreIntoSmallerSlackMatchesUninterruptedRun) {
  const TemporalGraph graph = test_graph();
  StreamOptions wide = engine_options();
  wide.reorder_slack = 40;
  StreamOptions narrow = wide;
  narrow.reorder_slack = 10;
  const std::vector<TemporalEdge> feed = pair_swapped_feed(graph, 10);

  CollectingSink reference_sink;
  StreamStats reference_stats;
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    StreamEngine engine(wide, sched, &reference_sink);
    for (const auto& e : feed) {
      engine.push(e.src, e.dst, e.ts);
    }
    engine.flush();
    reference_stats = engine.stats();
  });
  ASSERT_EQ(reference_stats.late_edges_rejected, 0u);

  // The wide engine buffers 40 units behind its newest edge; the narrow one
  // must hold that restored span until its own floor passes it.
  std::stringstream snapshot;
  CollectingSink sink;
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    StreamEngine engine(wide, sched, &sink);
    for (std::size_t i = 0; i < 201; ++i) {
      engine.push(feed[i].src, feed[i].dst, feed[i].ts);
    }
    const StreamStats stats = engine.stats();
    ASSERT_GT(stats.reorder_buffered, 1u);
    ASSERT_GT(stats.reorder_max_seen - stats.reorder_floor,
              narrow.reorder_slack);
    engine.save_snapshot(snapshot);
  });
  StreamStats stats;
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    StreamEngine engine(narrow, sched, &sink);
    engine.restore_snapshot(snapshot);
    for (std::size_t i = engine.edges_pushed(); i < feed.size(); ++i) {
      engine.push(feed[i].src, feed[i].dst, feed[i].ts);
    }
    engine.flush();
    stats = engine.stats();
  });
  EXPECT_EQ(sink.sorted_cycles(), reference_sink.sorted_cycles());
  EXPECT_EQ(stats.cycles_found, reference_stats.cycles_found);
  EXPECT_EQ(stats.edges_ingested, reference_stats.edges_ingested);
  EXPECT_EQ(stats.late_edges_rejected, 0u);
  EXPECT_EQ(stats.work.edges_visited, reference_stats.work.edges_visited);
}

// A slack-0 engine keeps no late floor; resumed under a slack, its newest
// pushed edge must act as one, or an older in-slack arrival would reach the
// graph out of order and throw out of the next batch.
TEST(StreamSnapshot, SlackZeroSnapshotResumesUnderASlack) {
  const TemporalGraph graph = test_graph();
  const StreamOptions strict = engine_options();
  StreamOptions loose = strict;
  loose.reorder_slack = 40;
  CollectingSink reference_sink;
  StreamStats reference_stats;
  run_reference(graph, strict, reference_sink, reference_stats);

  const auto edges = graph.edges_by_time();
  const std::size_t break_at = 201;
  std::stringstream snapshot;
  CollectingSink sink;
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    StreamEngine engine(strict, sched, &sink);
    for (std::size_t i = 0; i < break_at; ++i) {
      engine.push(edges[i].src, edges[i].dst, edges[i].ts);
    }
    engine.save_snapshot(snapshot);
  });
  const std::string bytes = snapshot.str();
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    StreamEngine engine(loose, sched, &sink);
    engine.restore_snapshot(snapshot);
    EXPECT_EQ(engine.stats().reorder_floor, edges[break_at - 1].ts);
    for (std::size_t i = engine.edges_pushed(); i < edges.size(); ++i) {
      engine.push(edges[i].src, edges[i].dst, edges[i].ts);
    }
    engine.flush();
    EXPECT_EQ(engine.stats().late_edges_rejected, 0u);
  });
  EXPECT_EQ(sink.sorted_cycles(), reference_sink.sorted_cycles());

  Scheduler::with_pool(1, [&](Scheduler& sched) {
    StreamEngine engine(loose, sched, nullptr);
    std::stringstream in(bytes);
    engine.restore_snapshot(in);
    engine.push(0, 1, edges[break_at - 1].ts - 1);  // older than the cut
    engine.flush();
    EXPECT_EQ(engine.stats().late_edges_rejected, 1u);
  });
}

TEST(StreamSnapshot, MultiWindowRoundTrip) {
  const TemporalGraph graph = test_graph();
  StreamOptions options = engine_options();
  options.windows = {kWindow / 2, kWindow};

  CollectingSink reference_sink;
  StreamStats reference_stats;
  run_reference(graph, options, reference_sink, reference_stats);
  CollectingSink sink;
  StreamStats stats;
  run_interrupted(graph, options, 175, sink, stats);
  EXPECT_EQ(sink.sorted_cycles(), reference_sink.sorted_cycles());
  expect_stats_equal(stats, reference_stats);
}

TEST(StreamSnapshot, FileRoundTrip) {
  const TemporalGraph graph = test_graph();
  const StreamOptions options = engine_options();
  const std::string path =
      testing::TempDir() + "parcycle_stream_snapshot_test.snap";
  const auto edges = graph.edges_by_time();
  CollectingSink sink;
  Scheduler::with_pool(1, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, &sink);
    for (std::size_t i = 0; i < 100; ++i) {
      engine.push(edges[i].src, edges[i].dst, edges[i].ts);
    }
    engine.save_snapshot_file(path);
  });
  Scheduler::with_pool(1, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, &sink);
    engine.restore_snapshot_file(path);
    EXPECT_EQ(engine.edges_pushed(), 100u);
    for (std::size_t i = 100; i < edges.size(); ++i) {
      engine.push(edges[i].src, edges[i].dst, edges[i].ts);
    }
    engine.flush();
  });
  CollectingSink reference_sink;
  StreamStats reference_stats;
  run_reference(graph, options, reference_sink, reference_stats);
  EXPECT_EQ(sink.sorted_cycles(), reference_sink.sorted_cycles());
  std::remove(path.c_str());
}

TEST(StreamSnapshot, RetentionCompactionDropsDeadWindow) {
  const TemporalGraph graph = test_graph();
  const StreamOptions options = engine_options();  // batch 32, window 150
  const auto edges = graph.edges_by_time();
  std::stringstream full_snap;
  std::stringstream compact_snap;
  StreamStats live_stats;
  Scheduler::with_pool(1, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, nullptr);
    for (std::size_t i = 0; i < 96; ++i) {  // 3 full batches, pending empty
      engine.push(edges[i].src, edges[i].dst, edges[i].ts);
    }
    ASSERT_GT(engine.stats().live_edges, 0u);
    engine.save_snapshot(full_snap);
    // A pending arrival a full retention beyond the newest edge makes every
    // currently-live edge unreachable for all future searches: the next
    // snapshot must not serialise that dead window.
    engine.push(edges[95].src, edges[95].dst, edges[95].ts + 10 * kWindow);
    live_stats = engine.stats();
    engine.save_snapshot(compact_snap);
  });
  // Size assertion: the compacted snapshot carries one pending edge instead
  // of the whole stale window, so it must be strictly smaller even though it
  // captured MORE of the stream.
  EXPECT_LT(compact_snap.str().size(), full_snap.str().size());
  Scheduler::with_pool(1, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, nullptr);
    engine.restore_snapshot(compact_snap);
    const StreamStats restored = engine.stats();
    EXPECT_EQ(restored.edges_pushed, live_stats.edges_pushed);
    EXPECT_EQ(restored.live_edges, 0u);  // dead window accounted as expired
    EXPECT_EQ(restored.expired_edges, restored.edges_ingested);
    engine.flush();  // the far-future pending edge still ingests cleanly
    EXPECT_EQ(engine.stats().edges_ingested, live_stats.edges_ingested + 1);
  });
}

// ---------------------------------------------------------------------------
// Rejection: truncation, corruption, configuration mismatch
// ---------------------------------------------------------------------------

std::string snapshot_bytes_of_partial_run(const StreamOptions& options) {
  const TemporalGraph graph = test_graph();
  const auto edges = graph.edges_by_time();
  std::stringstream snapshot;
  Scheduler::with_pool(1, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, nullptr);
    for (std::size_t i = 0; i < 150; ++i) {
      engine.push(edges[i].src, edges[i].dst, edges[i].ts);
    }
    engine.save_snapshot(snapshot);
  });
  return snapshot.str();
}

void expect_restore_rejected(const std::string& bytes,
                             const StreamOptions& options) {
  Scheduler::with_pool(1, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, nullptr);
    std::stringstream in(bytes);
    EXPECT_THROW(engine.restore_snapshot(in), std::runtime_error);
  });
}

TEST(StreamSnapshot, TruncationRejectedAtEveryRegion) {
  const StreamOptions options = engine_options();
  const std::string bytes = snapshot_bytes_of_partial_run(options);
  ASSERT_GT(bytes.size(), 64u);
  // Prefix lengths covering each header field boundary, mid-payload, and
  // one-byte-short.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{4}, std::size_t{8},
        std::size_t{15}, std::size_t{16}, std::size_t{24}, std::size_t{63},
        bytes.size() / 2, bytes.size() - 1}) {
    SCOPED_TRACE(keep);
    expect_restore_rejected(bytes.substr(0, keep), options);
  }
}

TEST(StreamSnapshot, CorruptionRejected) {
  const StreamOptions options = engine_options();
  const std::string bytes = snapshot_bytes_of_partial_run(options);

  {
    std::string bad = bytes;  // flip one payload byte: checksum mismatch
    bad[bytes.size() / 2] = static_cast<char>(bad[bytes.size() / 2] ^ 0x40);
    expect_restore_rejected(bad, options);
  }
  {
    std::string bad = bytes;  // bad magic
    bad[0] = 'X';
    expect_restore_rejected(bad, options);
  }
  {
    std::string bad = bytes;  // unsupported version
    bad[4] = static_cast<char>(0x7f);
    expect_restore_rejected(bad, options);
  }
  {
    std::string bad = bytes;  // implausible payload size
    bad[8] = static_cast<char>(0xff);
    bad[14] = static_cast<char>(0xff);
    expect_restore_rejected(bad, options);
  }
}

// Rewrites a snapshot's payload and re-seals its checksum: the restore must
// then reject the content itself, not the checksum.
std::string with_payload_edit(const std::string& bytes,
                              const std::function<void(std::string&)>& edit) {
  constexpr std::size_t kHeader = 24;  // magic, version, size, checksum
  std::string payload = bytes.substr(kHeader);
  edit(payload);
  std::uint64_t checksum = 14695981039346656037ULL;
  for (const char c : payload) {
    checksum ^= static_cast<unsigned char>(c);
    checksum *= 1099511628211ULL;
  }
  std::string out = bytes.substr(0, kHeader) + payload;
  std::memcpy(out.data() + 16, &checksum, sizeof(checksum));
  return out;
}

constexpr std::size_t kSiteBytes = 2 * sizeof(VertexId) + sizeof(Timestamp);

// Offset of the timestamp of pending edge `i` / reorder edge `i`, counted
// from the end of the payload: [pending count][P sites][reorder count][R sites].
std::size_t pending_ts_at(const std::string& payload, std::uint64_t pending,
                          std::uint64_t reorder, std::size_t i) {
  return payload.size() - reorder * kSiteBytes - sizeof(std::uint64_t) -
         (pending - i) * kSiteBytes + 2 * sizeof(VertexId);
}
std::size_t reorder_ts_at(const std::string& payload, std::uint64_t reorder,
                          std::size_t i) {
  return payload.size() - (reorder - i) * kSiteBytes + 2 * sizeof(VertexId);
}

void put_ts(std::string& payload, std::size_t at, Timestamp ts) {
  std::memcpy(payload.data() + at, &ts, sizeof(ts));
}

// A failed restore throws "stream snapshot: ..." and leaves the engine fresh:
// `good` (when given) still restores into it afterwards.
void expect_rejected_leaving_fresh(const std::string& bad,
                                   const std::string& good,
                                   const StreamOptions& options) {
  Scheduler::with_pool(1, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, nullptr);
    std::stringstream in(bad);
    try {
      engine.restore_snapshot(in);
      ADD_FAILURE() << "restore accepted an inconsistent snapshot";
    } catch (const std::runtime_error& err) {
      EXPECT_EQ(std::string(err.what()).rfind("stream snapshot: ", 0), 0u)
          << err.what();
    }
    EXPECT_EQ(engine.edges_pushed(), 0u);
    EXPECT_EQ(engine.stats().edges_ingested, 0u);
    if (good.empty()) {
      engine.push(0, 1, 5);  // still a working, fresh engine
      engine.flush();
      EXPECT_EQ(engine.stats().edges_ingested, 1u);
      return;
    }
    std::stringstream retry(good);
    engine.restore_snapshot(retry);
    engine.flush();  // the valid snapshot ingests cleanly
  });
}

TEST(StreamSnapshot, InconsistentReorderStateRejected) {
  const TemporalGraph graph = test_graph();
  StreamOptions options = engine_options();
  options.reorder_slack = 40;
  const std::vector<TemporalEdge> feed = pair_swapped_feed(graph, 40);
  std::string good;
  StreamStats at_save;
  Scheduler::with_pool(1, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, nullptr);
    for (std::size_t i = 0; i < 150; ++i) {
      engine.push(feed[i].src, feed[i].dst, feed[i].ts);
    }
    std::stringstream out;
    engine.save_snapshot(out);
    good = out.str();
    at_save = engine.stats();
  });
  const std::uint64_t reorder = at_save.reorder_buffered;
  const std::uint64_t pending =
      at_save.edges_pushed - at_save.edges_ingested - reorder;
  ASSERT_GE(reorder, 1u);
  ASSERT_GE(pending, 2u);
  ASSERT_GT(at_save.edges_ingested, 0u);

  {
    SCOPED_TRACE("reorder edges into a slack-0 engine");
    StreamOptions strict = options;
    strict.reorder_slack = 0;
    expect_rejected_leaving_fresh(good, "", strict);
  }
  {
    SCOPED_TRACE("reorder edge below the floor");
    expect_rejected_leaving_fresh(
        with_payload_edit(good,
                          [&](std::string& p) {
                            put_ts(p, reorder_ts_at(p, reorder, 0),
                                   at_save.reorder_floor - 1);
                          }),
        good, options);
  }
  {
    SCOPED_TRACE("reorder edge above max_seen");
    expect_rejected_leaving_fresh(
        with_payload_edit(good,
                          [&](std::string& p) {
                            put_ts(p, reorder_ts_at(p, reorder, reorder - 1),
                                   at_save.reorder_max_seen + 1);
                          }),
        good, options);
  }
  {
    SCOPED_TRACE("pending edges that decrease");
    expect_rejected_leaving_fresh(
        with_payload_edit(good,
                          [&](std::string& p) {
                            Timestamp last = 0;
                            std::memcpy(
                                &last,
                                p.data() + pending_ts_at(p, pending, reorder,
                                                         pending - 1),
                                sizeof(last));
                            put_ts(p, pending_ts_at(p, pending, reorder, 0),
                                   last + 1);
                          }),
        good, options);
  }
  {
    SCOPED_TRACE("pending edge older than the graph's last timestamp");
    expect_rejected_leaving_fresh(
        with_payload_edit(good,
                          [&](std::string& p) {
                            put_ts(p, pending_ts_at(p, pending, reorder, 0),
                                   -1);
                          }),
        good, options);
  }
}

TEST(StreamSnapshot, WindowLaneMismatchRejected) {
  const std::string bytes = snapshot_bytes_of_partial_run(engine_options());
  StreamOptions different = engine_options();
  different.window = kWindow * 2;
  expect_restore_rejected(bytes, different);
  StreamOptions more_lanes = engine_options();
  more_lanes.windows = {kWindow, kWindow * 2};
  expect_restore_rejected(bytes, more_lanes);
}

TEST(StreamSnapshot, RestoreRequiresFreshEngine) {
  const StreamOptions options = engine_options();
  const std::string bytes = snapshot_bytes_of_partial_run(options);
  Scheduler::with_pool(1, [&](Scheduler& sched) {
    StreamEngine engine(options, sched, nullptr);
    engine.push(0, 1, 5);
    std::stringstream in(bytes);
    EXPECT_THROW(engine.restore_snapshot(in), std::runtime_error);
  });
}

}  // namespace
}  // namespace parcycle
