#include "obs/stream_service.hpp"

#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "obs/server.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "robust/snapshot_rotation.hpp"

namespace parcycle {

namespace {

// SIGTERM and SIGINT both request a graceful shutdown: finish the in-flight
// push, persist a snapshot, exit 3. Treating Ctrl-C the same as a
// supervisor TERM means an interactive kill never loses the window.
std::atomic<bool> g_terminate{false};

void handle_shutdown_signal(int) {
  g_terminate.store(true, std::memory_order_relaxed);
}

template <typename T>
bool parse_number(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

bool parse_double(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

ProfilerOptions profiler_options(const ServiceOptions& options) {
  ProfilerOptions prof;
  if (options.profile_hz > 0) {
    prof.sample_hz = static_cast<int>(options.profile_hz);
  }
  // Serve-only runs sample in wall time, so an idle service still yields
  // samples showing where the workers wait; an explicit clock always wins.
  if (options.profile_clock == "wall" ||
      (options.profile_clock.empty() && options.profile_path.empty())) {
    prof.clock = ProfileClock::kWall;
  }
  return prof;
}

HttpResponse text_response(std::string body, int status = 200) {
  HttpResponse r;
  r.status = status;
  r.body = std::move(body);
  return r;
}

}  // namespace

bool ServiceOptions::uses_engine() const {
  return serve || !slo_spec.empty() || adaptive_budget != 0.0 ||
         serve_linger_ms != 0 || !snapshot_path.empty() ||
         snapshot_every.has_value() || !restore_path.empty() ||
         !metrics_path.empty() || metrics_every_ms != 0;
}

void ServiceOptions::require_obs_only(std::string* error) const {
  if (uses_engine() && error->empty()) {
    *error = "only --trace-out and --profile-* of the service flags apply";
  }
}

// Millisecond values are capped at UINT32_MAX (~49 days) so that converting
// them to nanoseconds cannot overflow.
bool parse_service_flag(int argc, char** argv, int& i, ServiceOptions& options,
                        std::string* error) {
  const std::string_view arg = argv[i];
  const auto fail = [&](std::string message) {
    if (error != nullptr && error->empty()) {
      *error = std::move(message);
    }
    return true;
  };
  if (arg == "--serve") {
    options.serve = true;
    return true;
  }
  if (arg.rfind("--serve=", 0) == 0) {
    options.serve = true;
    const std::string_view port = arg.substr(8);
    if (!parse_number(port, &options.serve_port) || options.serve_port < 0 ||
        options.serve_port > 65535) {
      return fail("invalid --serve port: " + std::string(port) +
                  " (use 0..65535)");
    }
    return true;
  }
  static constexpr const char* kValued[] = {
      "--trace-out",       "--profile-out", "--profile-hz",
      "--profile-clock",   "--slo",         "--adaptive-budget",
      "--serve-linger-ms", "--snapshot",    "--snapshot-every",
      "--restore",         "--metrics-out", "--metrics-every-ms"};
  bool valued = false;
  for (const char* name : kValued) {
    valued = valued || arg == name;
  }
  if (!valued) {
    return false;
  }
  if (i + 1 >= argc) {
    return fail("missing value for " + std::string(arg));
  }
  const char* value = argv[++i];
  if (arg == "--trace-out") {
    options.trace_path = value;
  } else if (arg == "--profile-out") {
    options.profile_path = value;
  } else if (arg == "--profile-hz") {
    if (!parse_number(std::string_view(value), &options.profile_hz) ||
        options.profile_hz < 0 || options.profile_hz > 10000) {
      return fail(std::string("invalid --profile-hz: ") + value +
                  " (use 1..10000, 0 = default)");
    }
  } else if (arg == "--profile-clock") {
    options.profile_clock = value;
    if (options.profile_clock != "cpu" && options.profile_clock != "wall") {
      return fail(std::string("invalid --profile-clock '") + value +
                  "' (use cpu or wall)");
    }
  } else if (arg == "--slo") {
    options.slo_spec = value;
    try {
      (void)SloTracker::parse(options.slo_spec);
    } catch (const std::invalid_argument& e) {
      return fail(std::string("invalid --slo spec: ") + e.what());
    }
  } else if (arg == "--adaptive-budget") {
    if (!parse_double(value, &options.adaptive_budget) ||
        !(options.adaptive_budget >= 0.0)) {
      return fail(std::string("invalid --adaptive-budget: ") + value);
    }
  } else if (arg == "--serve-linger-ms") {
    if (!parse_number(std::string_view(value), &options.serve_linger_ms) ||
        options.serve_linger_ms < 0 || options.serve_linger_ms > UINT32_MAX) {
      return fail(std::string("invalid --serve-linger-ms: ") + value);
    }
  } else if (arg == "--snapshot") {
    options.snapshot_path = value;
  } else if (arg == "--snapshot-every") {
    std::uint64_t every = 0;
    if (!parse_number(std::string_view(value), &every)) {
      return fail(std::string("invalid --snapshot-every: ") + value);
    }
    options.snapshot_every = every;
  } else if (arg == "--restore") {
    options.restore_path = value;
  } else if (arg == "--metrics-out") {
    options.metrics_path = value;
  } else if (!parse_number(std::string_view(value),
                           &options.metrics_every_ms) ||
             options.metrics_every_ms > UINT32_MAX) {
    return fail(std::string("invalid --metrics-every-ms: ") + value);
  }
  return true;
}

StreamService::StreamService(ServiceOptions options, unsigned workers,
                             std::string process_name, std::ostream& log,
                             std::string log_tag)
    : options_(std::move(options)),
      log_(log),
      tag_(std::move(log_tag)),
      // --serve enables the recorder too (for /tracez) and lets the serving
      // thread read the rings while workers record.
      recorder_(workers, TraceRecorder::kDefaultCapacity,
                /*enabled=*/!options_.trace_path.empty() || options_.serve,
                /*concurrent_reads=*/options_.serve),
      trace_export_(recorder_, options_.trace_path, std::move(process_name)),
      // A whole-run capture (--profile-out) or the on-demand /profilez,
      // plus per-worker hardware counter groups either way.
      profiler_(workers, profiler_options(options_),
                /*enabled=*/!options_.profile_path.empty() || options_.serve),
      perf_(workers, /*enabled=*/profiler_.enabled()),
      profile_export_(profiler_, options_.profile_path),
      sched_(workers, scheduler_options()) {
  if (recorder_.enabled()) {
    sched_.set_tracer(&recorder_);
  }
}

SchedulerOptions StreamService::scheduler_options() {
  // With tracing, per-task timing buys per-task spans (two clock reads per
  // task); untraced runs keep the zero-clock-read transition timing.
  SchedulerOptions sched_options;
  if (!options_.trace_path.empty()) {
    sched_options.timing = TimingMode::kPerTask;
  }
  if (profiler_.enabled()) {
    observers_.add(&profiler_);
    observers_.add(&perf_);
    sched_options.thread_observer = &observers_;
  }
  return sched_options;
}

StreamService::~StreamService() {
  if (server_ != nullptr) {
    server_->stop();
  }
  if (sampler_ != nullptr) {
    sampler_->stop();
  }
  if (signals_armed_) {
    std::signal(SIGTERM, prev_sigterm_);
    std::signal(SIGINT, prev_sigint_);
  }
}

int StreamService::start() {
  if (options_.profile_path.empty()) {
    return 0;
  }
  std::string error;
  if (!profiler_.start(&error)) {
    std::cerr << "error: profiler: " << error << "\n";
    return 1;
  }
  return 0;
}

int StreamService::open(const StreamOptions& options, CycleSink* sink) {
  try {
    engine_ = std::make_unique<StreamEngine>(options, sched_, sink);
    if (options_.serve) {
      // Constructed before the first push: the sampler arms the engine's
      // concurrent-stats path.
      TimeSeriesOptions ts_options;
      ts_options.slo_spec = options_.slo_spec;
      ts_options.adaptive_budget_multiplier = options_.adaptive_budget;
      ts_options.perf = &perf_;
      ts_options.profiler = &profiler_;
      sampler_ = std::make_unique<TimeSeriesSampler>(*engine_, sched_,
                                                     ts_options);
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (!options_.serve) {
    return 0;
  }
  sampler_->start();
  IntrospectionOptions http_options;
  http_options.port = static_cast<std::uint16_t>(options_.serve_port);
  server_ = std::make_unique<IntrospectionServer>(http_options);
  TimeSeriesSampler& sampler = *sampler_;
  server_->add_handler("/metrics", [&sampler] {
    return text_response(sampler.render_prometheus());
  });
  server_->add_handler("/statusz", [&sampler] {
    return text_response(sampler.render_statusz());
  });
  server_->add_handler("/healthz", [&sampler] {
    const TimeSeriesSampler::Health health = sampler.health();
    return text_response(health.text, health.ok ? 200 : 503);
  });
  server_->add_handler("/tracez", [this] {
    return text_response(render_tracez_text(recorder_));
  });
  server_->add_query_handler("/profilez", [this](const std::string& query) {
    if (!profiler_.enabled() || !StackProfiler::supported()) {
      return text_response(
          "profiler unavailable (disabled, non-Linux, or ThreadSanitizer "
          "build)\n",
          503);
    }
    const std::string seconds = query_param(query, "seconds");
    return text_response(profiler_.timed_capture(
        seconds.empty() ? 1.0 : std::atof(seconds.c_str())));
  });
  std::string error;
  if (!server_->start(&error)) {
    std::cerr << "introspection server failed: " << error << "\n";
    return 1;
  }
  // Scrapers grep this exact line to learn the ephemeral port; flushed
  // explicitly so a piped stderr shows it at once.
  std::cerr << "serving introspection on http://127.0.0.1:" << server_->port()
            << "/" << std::endl;
  return 0;
}

std::uint16_t StreamService::port() const {
  return server_ != nullptr ? server_->port() : 0;
}

std::uint64_t StreamService::resume() {
  std::uint64_t cursor = 0;
  if (!options_.restore_path.empty()) {
    const RotatedSnapshotInfo restored =
        restore_snapshot_rotated(*engine_, options_.restore_path);
    cursor = engine_->edges_pushed();
    log_ << tag_ << ": restored " << restored.path << " (generation "
         << restored.generation << "), resuming at edge " << cursor << " ("
         << engine_->cycles_found() << " cycles already found)" << std::endl;
  }
  if (!options_.snapshot_path.empty() && !signals_armed_) {
    g_terminate.store(false, std::memory_order_relaxed);
    prev_sigterm_ = std::signal(SIGTERM, handle_shutdown_signal);
    prev_sigint_ = std::signal(SIGINT, handle_shutdown_signal);
    signals_armed_ = true;
  }
  if (!options_.metrics_path.empty() && options_.metrics_every_ms > 0) {
    next_metrics_ns_ = trace_now_ns() + options_.metrics_every_ms * 1000000;
  }
  return cursor;
}

bool StreamService::after_push() {
  if (!options_.snapshot_path.empty()) {
    const std::uint64_t every = options_.snapshot_every.value_or(2000);
    if (every > 0 && engine_->edges_pushed() % every == 0) {
      save_snapshot_rotated(*engine_, options_.snapshot_path);
    }
    if (g_terminate.load(std::memory_order_relaxed)) {
      const RotatedSnapshotInfo saved =
          save_snapshot_rotated(*engine_, options_.snapshot_path);
      log_ << tag_ << ": shutdown signal after " << engine_->edges_pushed()
           << " edges; snapshot written to " << saved.path << std::endl;
      return true;
    }
  }
  // Wall-clock cadence: dumps land every M ms of real time no matter how
  // fast or throttled the feed is.
  if (next_metrics_ns_ != 0) {
    const std::uint64_t now_ns = trace_now_ns();
    if (now_ns >= next_metrics_ns_) {
      dump_metrics();
      next_metrics_ns_ = now_ns + options_.metrics_every_ms * 1000000;
    }
  }
  return false;
}

int StreamService::finish() {
  try {
    engine_->flush();
    if (!options_.snapshot_path.empty()) {
      // Final snapshot: a restart after completion resumes to a no-op feed,
      // and a signal that raced the last pushes still finds current state.
      const RotatedSnapshotInfo saved =
          save_snapshot_rotated(*engine_, options_.snapshot_path);
      log_ << tag_ << ": snapshot written to " << saved.path << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (options_.serve && options_.serve_linger_ms > 0) {
    // Keep the endpoints up after the feed so a scraper can observe
    // recovery: each empty flush is a batch boundary, letting the overload
    // ladder step back down and /healthz return to 200.
    log_ << tag_ << ": lingering " << options_.serve_linger_ms
         << "ms for scrapers" << std::endl;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(options_.serve_linger_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      engine_->flush();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  if (options_.metrics_path.empty()) {
    return 0;
  }
  // Final dump, then cross-check the published counters against the very
  // StreamStats totals they were imported from: any drift between the
  // registry's named surface and the engine's counters is a bug, caught
  // here rather than on an operator's dashboard.
  if (!dump_metrics()) {
    return 1;
  }
  if (!metrics_match()) {
    std::cerr << "METRICS MISMATCH: registry counters disagree with "
                 "StreamStats/WorkerStats totals\n";
    return 1;
  }
  log_ << tag_ << ": metrics cross-check ok; snapshot written to "
       << options_.metrics_path << "\n";
  return 0;
}

bool StreamService::dump_metrics() {
  // Each dump clears and re-imports the current totals, rendered to
  // Prometheus text and atomically renamed into place.
  metrics_.clear();
  metrics_.import_stream(engine_->stats());
  metrics_.import_scheduler(sched_);
  metrics_.import_process();
  metrics_.import_perf(perf_);
  metrics_.import_profiler(profiler_);
  std::string error;
  if (!metrics_.write_text_file(options_.metrics_path, &error)) {
    std::cerr << "metrics dump failed: " << error << "\n";
    return false;
  }
  return true;
}

bool StreamService::metrics_match() {
  const StreamStats stats = engine_->stats();
  const std::vector<WorkerStats> workers = sched_.worker_stats();
  std::uint64_t published_tasks = 0;
  std::uint64_t expected_tasks = 0;
  for (std::size_t w = 0; w < workers.size(); ++w) {
    published_tasks += metrics_
                           .value_u64("parcycle_worker_tasks_executed_total",
                                      "worker=\"" + std::to_string(w) + "\"")
                           .value_or(0);
    expected_tasks += workers[w].tasks_executed;
  }
  return metrics_.value_u64("parcycle_stream_cycles_found_total") ==
             stats.cycles_found &&
         metrics_.value_u64("parcycle_stream_edges_ingested_total") ==
             stats.edges_ingested &&
         metrics_.value_u64("parcycle_stream_edges_pushed_total") ==
             stats.edges_pushed &&
         metrics_.value_u64("parcycle_stream_batches_total") == stats.batches &&
         metrics_.value_u64("parcycle_stream_escalated_edges_total") ==
             stats.escalated_edges &&
         metrics_.value_u64("parcycle_stream_work_edges_visited_total") ==
             stats.work.edges_visited &&
         published_tasks == expected_tasks;
}

}  // namespace parcycle
