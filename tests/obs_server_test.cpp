// Introspection HTTP server: request-line parsing (malformed, oversized,
// wrong method/version), handler dispatch over real loopback sockets,
// ephemeral-port allocation and re-bind, /healthz tracking the overload
// ladder, and — the reason this suite carries the parallel label — a client
// thread scraping every endpoint while the engine ingests live (the TSan
// contract behind enable_concurrent_stats / concurrent_reads).
#include "obs/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "obs_test_support.hpp"
#include "stream/engine.hpp"
#include "support/scheduler.hpp"

namespace parcycle {
namespace {

TEST(ParseHttpRequest, AcceptsWellFormedGetAndStripsQuery) {
  std::string method;
  std::string path;
  EXPECT_EQ(parse_http_request("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n",
                               &method, &path),
            0);
  EXPECT_EQ(method, "GET");
  EXPECT_EQ(path, "/metrics");

  EXPECT_EQ(parse_http_request("GET /statusz?verbose=1 HTTP/1.0\r\n\r\n",
                               &method, &path),
            0);
  EXPECT_EQ(path, "/statusz");

  // Non-GET methods parse fine; the method policy (405) is dispatch's job.
  EXPECT_EQ(parse_http_request("POST /metrics HTTP/1.1\r\n\r\n", &method,
                               &path),
            0);
  EXPECT_EQ(method, "POST");
}

TEST(ParseHttpRequest, RejectsMalformedRequestLines) {
  std::string method;
  std::string path;
  EXPECT_EQ(parse_http_request("", &method, &path), 400);
  EXPECT_EQ(parse_http_request("GARBAGE\r\n\r\n", &method, &path), 400);
  EXPECT_EQ(parse_http_request("GET\r\n\r\n", &method, &path), 400);
  EXPECT_EQ(parse_http_request("GET /x\r\n\r\n", &method, &path), 400);
  EXPECT_EQ(parse_http_request("GET  /x HTTP/1.1\r\n\r\n", &method, &path),
            400);  // double space = empty target
  EXPECT_EQ(parse_http_request("GET /a b HTTP/1.1\r\n\r\n", &method, &path),
            400);  // space inside target
  EXPECT_EQ(parse_http_request("GET metrics HTTP/1.1\r\n\r\n", &method,
                               &path),
            400);  // target must be absolute
  EXPECT_EQ(parse_http_request("GET /x SMTP/1.1\r\n\r\n", &method, &path),
            400);
}

TEST(ParseHttpRequest, RejectsUnsupportedHttpVersions) {
  std::string method;
  std::string path;
  EXPECT_EQ(parse_http_request("GET /x HTTP/2.0\r\n\r\n", &method, &path),
            505);
  EXPECT_EQ(parse_http_request("GET /x HTTP/0.9\r\n\r\n", &method, &path),
            505);
}

TEST(HttpStatusReason, CoversServedStatuses) {
  EXPECT_STREQ(http_status_reason(200), "OK");
  EXPECT_STREQ(http_status_reason(404), "Not Found");
  EXPECT_STREQ(http_status_reason(431), "Request Header Fields Too Large");
  EXPECT_STREQ(http_status_reason(503), "Service Unavailable");
}

TEST(IntrospectionServer, DispatchesHandlersAndAnswersErrors) {
  IntrospectionServer server;  // loopback, ephemeral port
  server.add_handler("/hello", [] {
    HttpResponse r;
    r.body = "world\n";
    return r;
  });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_NE(server.port(), 0);

  int status = 0;
  EXPECT_EQ(http_get(server.port(), "/hello", &status), "world\n");
  EXPECT_EQ(status, 200);
  // Query strings route to the same handler.
  EXPECT_EQ(http_get(server.port(), "/hello?x=1", &status), "world\n");
  EXPECT_EQ(status, 200);

  http_get(server.port(), "/missing", &status);
  EXPECT_EQ(status, 404);

  std::string response = raw_round_trip(
      server.port(), "POST /hello HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 405"), std::string::npos);

  response = raw_round_trip(server.port(), "NOT A REQUEST\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos);

  response = raw_round_trip(server.port(), "GET /hello HTTP/2.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 505"), std::string::npos);

  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(IntrospectionServer, OversizedRequestGets431) {
  IntrospectionOptions options;
  options.max_request_bytes = 512;
  IntrospectionServer server(options);
  server.add_handler("/x", [] { return HttpResponse{}; });
  ASSERT_TRUE(server.start());
  // 4 KiB of header bytes with no terminating blank line: the server must
  // cut the read off at max_request_bytes and answer 431.
  std::string request = "GET /x HTTP/1.1\r\n";
  request += "X-Padding: " + std::string(4096, 'a') + "\r\n\r\n";
  const std::string response = raw_round_trip(server.port(), request);
  EXPECT_NE(response.find("HTTP/1.1 431"), std::string::npos);
  // And an ordinary request afterwards still succeeds.
  int status = 0;
  http_get(server.port(), "/x", &status);
  EXPECT_EQ(status, 200);
}

TEST(IntrospectionServer, EphemeralPortCanBeReboundAfterStop) {
  IntrospectionOptions options;
  std::uint16_t first_port = 0;
  {
    IntrospectionServer server(options);
    server.add_handler("/p", [] { return HttpResponse{}; });
    ASSERT_TRUE(server.start());
    first_port = server.port();
    ASSERT_NE(first_port, 0);
    server.stop();
  }
  // SO_REUSEADDR: the port just vacated (possibly with TIME_WAIT remnants
  // from the requests above) must be immediately bindable.
  options.port = first_port;
  IntrospectionServer server(options);
  server.add_handler("/p", [] {
    HttpResponse r;
    r.body = "rebound\n";
    return r;
  });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  EXPECT_EQ(server.port(), first_port);
  int status = 0;
  EXPECT_EQ(http_get(server.port(), "/p", &status), "rebound\n");
  EXPECT_EQ(status, 200);
  // stop() is idempotent.
  server.stop();
  server.stop();
}

TEST(IntrospectionServer, HealthzFlipsWithOverloadLadder) {
  Scheduler sched(2);
  StreamOptions options;
  options.window = 1'000'000;
  options.batch_size = 8;
  options.max_cycle_length = 4;
  // occupancy/high = 4 rungs at the first batch: straight to kShed.
  options.overload_high_watermark = 2;
  StreamEngine engine(options, sched, nullptr);
  TimeSeriesSampler sampler(engine, sched, {});
  IntrospectionServer server;
  server.add_handler("/healthz", [&sampler] {
    const TimeSeriesSampler::Health health = sampler.health();
    HttpResponse r;
    r.status = health.ok ? 200 : 503;
    r.body = health.text;
    return r;
  });
  ASSERT_TRUE(server.start());

  int status = 0;
  std::string body = http_get(server.port(), "/healthz", &status);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body.rfind("ok", 0), 0u) << body;

  for (int i = 0; i < 8; ++i) {
    engine.push(static_cast<VertexId>(i % 4),
                static_cast<VertexId>((i + 1) % 4), i);
  }
  ASSERT_EQ(engine.overload_level(), OverloadLevel::kShed);
  body = http_get(server.port(), "/healthz", &status);
  EXPECT_EQ(status, 503);
  EXPECT_EQ(body.rfind("shedding", 0), 0u) << body;

  // Empty flushes are batch boundaries: the ladder steps down one rung per
  // kOverloadRecoverBatches calm batches until /healthz recovers.
  for (int i = 0; i < 64 && engine.overload_level() != OverloadLevel::kNormal;
       ++i) {
    engine.flush();
  }
  ASSERT_EQ(engine.overload_level(), OverloadLevel::kNormal);
  body = http_get(server.port(), "/healthz", &status);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body.rfind("ok", 0), 0u) << body;
}

// The live-scrape contract, all layers at once: workers searching and
// recording spans, the sampler thread snapshotting stats, the serving thread
// rendering every endpoint, and a client thread scraping — while the main
// thread keeps pushing. Run under TSan in the scheduler-stress job.
TEST(IntrospectionServer, ConcurrentScrapeDuringLiveIngest) {
  TraceRecorder recorder(4, 1u << 12, /*enabled=*/true,
                         /*concurrent_reads=*/true);
  Scheduler sched(4);
  sched.set_tracer(&recorder);
  StreamOptions options;
  options.window = 1'000'000;
  options.batch_size = 16;
  options.max_cycle_length = 4;
  StreamEngine engine(options, sched, nullptr);
  TimeSeriesOptions ts_options;
  ts_options.interval_ms = 2;
  ts_options.slo_spec = "shed_fraction<0.5";
  TimeSeriesSampler sampler(engine, sched, ts_options);
  sampler.start();
  IntrospectionServer server;
  server.add_handler("/metrics", [&sampler] {
    HttpResponse r;
    r.body = sampler.render_prometheus();
    return r;
  });
  server.add_handler("/statusz", [&sampler] {
    HttpResponse r;
    r.body = sampler.render_statusz();
    return r;
  });
  server.add_handler("/healthz", [&sampler] {
    const TimeSeriesSampler::Health health = sampler.health();
    HttpResponse r;
    r.status = health.ok ? 200 : 503;
    r.body = health.text;
    return r;
  });
  server.add_handler("/tracez", [&recorder] {
    HttpResponse r;
    r.body = render_tracez_text(recorder, 8);
    return r;
  });
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::atomic<int> scrapes{0};
  std::atomic<int> bad{0};
  std::thread client([&] {
    const char* const paths[] = {"/metrics", "/statusz", "/healthz",
                                 "/tracez"};
    std::size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      int status = 0;
      const std::string body =
          http_get(server.port(), paths[i++ % 4], &status);
      if (status == 200 || status == 503) {
        scrapes.fetch_add(1, std::memory_order_relaxed);
      } else {
        bad.fetch_add(1, std::memory_order_relaxed);
      }
      if (status == 200 && body.empty()) {
        bad.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  for (int i = 0; i < 4000; ++i) {
    engine.push(static_cast<VertexId>(i % 32),
                static_cast<VertexId>((i * 7 + 1) % 32), i);
  }
  engine.flush();
  stop.store(true, std::memory_order_relaxed);
  client.join();
  sampler.stop();
  server.stop();

  EXPECT_GT(scrapes.load(), 0);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(engine.stats().edges_ingested, 4000u);
  // The sampler observed the run too.
  EXPECT_GE(sampler.ticks(), 1u);
  EXPECT_NE(sampler.render_prometheus().find("parcycle_stream_edges_pushed"),
            std::string::npos);
}

}  // namespace
}  // namespace parcycle
