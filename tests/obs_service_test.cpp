// StreamService: the shared flag parser (every flag, every reject) and one
// whole service lifecycle — serve on an ephemeral port, trace and profile
// files, rotated snapshots and a metrics dump — on a scale-free temporal
// feed, scraping all five endpoints mid-feed; then the signal path and a
// restore from the rotated snapshot. Parallel label: the serving and
// sampler threads read the engine while the feed pushes.
#include "obs/stream_service.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "obs_test_support.hpp"
#include "temporal/temporal_johnson.hpp"

namespace parcycle {
namespace {

// Runs parse_service_flag over `args` the way a binary's loop does.
// Returns the arguments it did not claim.
std::vector<std::string> parse(std::vector<std::string> args,
                               ServiceOptions& options, std::string* error) {
  std::vector<char*> argv = {const_cast<char*>("binary")};
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  std::vector<std::string> rest;
  const int argc = static_cast<int>(argv.size());
  for (int i = 1; i < argc; ++i) {
    if (!parse_service_flag(argc, argv.data(), i, options, error)) {
      rest.emplace_back(argv[static_cast<std::size_t>(i)]);
    }
  }
  return rest;
}

TEST(ServiceFlags, ParsesEverySharedFlag) {
  ServiceOptions options;
  std::string error;
  const auto rest = parse(
      {"--trace-out", "t.json", "--profile-out", "p.collapsed",
       "--profile-hz", "997", "--profile-clock", "wall", "--serve=8080",
       "--slo", "p99_search_ns<2000000", "--adaptive-budget", "2.5",
       "--serve-linger-ms", "300", "--snapshot", "s.bin", "--snapshot-every",
       "250", "--restore", "r.bin", "--metrics-out", "m.prom",
       "--metrics-every-ms", "200", "--own-flag"},
      options, &error);
  EXPECT_EQ(error, "");
  EXPECT_EQ(rest, std::vector<std::string>{"--own-flag"});
  EXPECT_EQ(options.trace_path, "t.json");
  EXPECT_EQ(options.profile_path, "p.collapsed");
  EXPECT_EQ(options.profile_hz, 997);
  EXPECT_EQ(options.profile_clock, "wall");
  EXPECT_TRUE(options.serve);
  EXPECT_EQ(options.serve_port, 8080);
  EXPECT_EQ(options.slo_spec, "p99_search_ns<2000000");
  EXPECT_DOUBLE_EQ(options.adaptive_budget, 2.5);
  EXPECT_EQ(options.serve_linger_ms, 300);
  EXPECT_EQ(options.snapshot_path, "s.bin");
  EXPECT_EQ(options.snapshot_every, 250u);
  EXPECT_EQ(options.restore_path, "r.bin");
  EXPECT_EQ(options.metrics_path, "m.prom");
  EXPECT_EQ(options.metrics_every_ms, 200u);
  EXPECT_TRUE(options.uses_engine());

  ServiceOptions bare;
  EXPECT_EQ(parse({"--serve", "--trace-out", "x"}, bare, &error),
            std::vector<std::string>{});
  EXPECT_TRUE(bare.serve);
  EXPECT_EQ(bare.serve_port, 0);

  ServiceOptions obs_only;
  parse({"--trace-out", "t", "--profile-out", "p", "--profile-clock", "cpu"},
        obs_only, &error);
  EXPECT_FALSE(obs_only.uses_engine());
  obs_only.require_obs_only(&error);
  EXPECT_EQ(error, "");

  // Every engine flag, alone, counts — --snapshot-every included.
  for (const std::vector<std::string>& engine_flag :
       std::vector<std::vector<std::string>>{
           {"--serve"}, {"--slo", "p99_search_ns<1"},
           {"--adaptive-budget", "2"}, {"--serve-linger-ms", "5"},
           {"--snapshot", "s"}, {"--snapshot-every", "5"},
           {"--restore", "r"}, {"--metrics-out", "m"},
           {"--metrics-every-ms", "5"}}) {
    ServiceOptions one;
    std::string one_error;
    parse(engine_flag, one, &one_error);
    EXPECT_TRUE(one.uses_engine()) << engine_flag[0];
    one.require_obs_only(&one_error);
    EXPECT_NE(one_error, "") << engine_flag[0];
  }
}

TEST(ServiceFlags, RejectsInvalidValues) {
  const std::vector<std::vector<std::string>> rejects = {
      {"--serve=70000"},
      {"--serve=-1"},
      {"--profile-hz", "20000"},
      {"--profile-hz", "-3"},
      {"--profile-clock", "foo"},
      {"--slo", "p99_search_ns<"},
      {"--slo", "no_such_metric<1"},
      {"--adaptive-budget", "-1"},
      {"--snapshot-every", "-5"},
      {"--metrics-every-ms", "abc"},
      {"--metrics-every-ms", "99999999999999"},
      {"--serve-linger-ms", "99999999999999"},
      {"--trace-out"},
  };
  for (const auto& args : rejects) {
    ServiceOptions options;
    std::string error;
    EXPECT_TRUE(parse(args, options, &error).empty()) << args[0];
    EXPECT_NE(error, "") << args[0];
  }
  // The first error is kept.
  ServiceOptions options;
  std::string error;
  parse({"--profile-hz", "20000", "--profile-clock", "foo"}, options, &error);
  EXPECT_NE(error.find("--profile-hz"), std::string::npos) << error;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class StreamServiceLifecycle : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("parcycle_service_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    ScaleFreeTemporalParams params;
    params.num_vertices = 300;
    params.num_edges = 6000;
    params.time_span = 200000;
    params.seed = 7;
    graph_ = scale_free_temporal(params);
    stream_options_.window = kWindow;
    stream_options_.num_vertices_hint = graph_.num_vertices();
    expected_cycles_ = temporal_johnson_cycles(graph_, kWindow).num_cycles;
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static constexpr Timestamp kWindow = 2000;
  std::filesystem::path dir_;
  TemporalGraph graph_;
  StreamOptions stream_options_;
  std::uint64_t expected_cycles_ = 0;
};

TEST_F(StreamServiceLifecycle, ServesSnapshotsTracesAndCrossChecksMetrics) {
  ServiceOptions options;
  options.serve = true;
  options.trace_path = (dir_ / "trace.json").string();
  if (StackProfiler::supported()) {
    options.profile_path = (dir_ / "profile.collapsed").string();
  }
  options.snapshot_path = (dir_ / "snap.bin").string();
  options.snapshot_every = 1000;
  options.metrics_path = (dir_ / "metrics.prom").string();
  std::ostringstream log;
  CountingSink sink;  // outlives the service, as open() requires
  {
    StreamService service(options, 2, "obs_service_test", log, "test");
    ASSERT_EQ(service.start(), 0);
    ASSERT_EQ(service.open(stream_options_, &sink), 0);
    ASSERT_NE(service.port(), 0);
    const auto edges = graph_.edges_by_time();
    std::uint64_t i = service.resume();
    ASSERT_EQ(i, 0u);
    for (; i < edges.size(); ++i) {
      service.engine().push(edges[i].src, edges[i].dst, edges[i].ts);
      ASSERT_FALSE(service.after_push());
      if (i == edges.size() / 2) {
        for (const char* path :
             {"/metrics", "/statusz", "/healthz", "/tracez",
              "/profilez?seconds=0.05"}) {
          int status = 0;
          const std::string body = http_get(service.port(), path, &status);
          const bool profilez = std::string(path).rfind("/profilez", 0) == 0;
          EXPECT_EQ(status, profilez && !StackProfiler::supported() ? 503 : 200)
              << path;
          EXPECT_FALSE(body.empty()) << path;
        }
      }
    }
    EXPECT_EQ(service.finish(), 0) << log.str();
    EXPECT_EQ(service.engine().cycles_found(), expected_cycles_);
    EXPECT_EQ(sink.count(), expected_cycles_);
  }
  EXPECT_NE(log.str().find("test: metrics cross-check ok"), std::string::npos)
      << log.str();
  EXPECT_TRUE(std::filesystem::exists(dir_ / "snap.bin.1"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "snap.bin.2"));
  expect_balanced_json(read_file(dir_ / "trace.json"));
  if (StackProfiler::supported()) {
    const std::string profile = read_file(dir_ / "profile.collapsed");
    EXPECT_EQ(profile.rfind("# parcycle-profile", 0), 0u);
  }

  // Restore from the rotated snapshot: nothing left to feed, same total.
  ServiceOptions restore;
  restore.restore_path = options.snapshot_path;
  StreamService resumed(restore, 2, "obs_service_test", log, "test");
  ASSERT_EQ(resumed.open(stream_options_, nullptr), 0);
  EXPECT_EQ(resumed.resume(), graph_.num_edges());
  EXPECT_EQ(resumed.finish(), 0);
  EXPECT_EQ(resumed.engine().cycles_found(), expected_cycles_);
}

TEST_F(StreamServiceLifecycle, SignalSnapshotsAndRestoreResumesMidFeed) {
  ServiceOptions options;
  options.snapshot_path = (dir_ / "snap.bin").string();
  options.snapshot_every = 700;
  const auto edges = graph_.edges_by_time();
  std::uint64_t stopped_at = 0;
  std::ostringstream log;
  {
    StreamService service(options, 2, "obs_service_test", log, "test");
    ASSERT_EQ(service.open(stream_options_, nullptr), 0);
    for (std::uint64_t i = service.resume(); i < edges.size(); ++i) {
      service.engine().push(edges[i].src, edges[i].dst, edges[i].ts);
      if (i == edges.size() / 3) {
        std::raise(SIGTERM);
      }
      if (service.after_push()) {
        stopped_at = i + 1;
        break;
      }
    }
  }
  ASSERT_GT(stopped_at, 0u) << "the SIGTERM never reached after_push";
  ASSERT_LT(stopped_at, edges.size());
  EXPECT_NE(log.str().find("test: shutdown signal after"), std::string::npos);

  ServiceOptions restore;
  restore.restore_path = options.snapshot_path;
  StreamService resumed(restore, 2, "obs_service_test", log, "test");
  ASSERT_EQ(resumed.open(stream_options_, nullptr), 0);
  std::uint64_t i = resumed.resume();
  EXPECT_EQ(i, stopped_at);
  for (; i < edges.size(); ++i) {
    resumed.engine().push(edges[i].src, edges[i].dst, edges[i].ts);
    ASSERT_FALSE(resumed.after_push());
  }
  EXPECT_EQ(resumed.finish(), 0);
  EXPECT_EQ(resumed.engine().cycles_found(), expected_cycles_);
}

TEST(StreamService, RejectedEngineOptionsExitTwo) {
  StreamService service(ServiceOptions{}, 1, "obs_service_test");
  StreamOptions bad;
  bad.window = 100;
  bad.windows = {0, 50};
  EXPECT_EQ(service.open(bad, nullptr), 2);
  StreamOptions negative_slack;
  negative_slack.window = 100;
  negative_slack.reorder_slack = -5;
  EXPECT_EQ(service.open(negative_slack, nullptr), 2);
}

}  // namespace
}  // namespace parcycle
