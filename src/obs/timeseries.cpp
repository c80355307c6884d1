#include "obs/timeseries.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "obs/perf_counters.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace parcycle {

namespace {

constexpr std::size_t kMaxRecentShifts = 32;

// Bucket-wise difference of two cumulative histograms (cur grew out of
// prev): the samples recorded between the two snapshots. `max` keeps the
// cumulative maximum — an upper bound for the interval, and percentile()
// never reads it.
Log2Histogram delta_hist(const Log2Histogram& cur, const Log2Histogram& prev) {
  Log2Histogram d;
  for (int b = 0; b < Log2Histogram::kBuckets; ++b) {
    d.buckets[b] = cur.buckets[b] - prev.buckets[b];
  }
  d.sum = cur.sum - prev.sum;
  d.max = cur.max;
  return d;
}

void append_kv_u64(std::string& out, const char* key, std::uint64_t v) {
  out += key;
  out += '=';
  out += std::to_string(v);
}

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

std::vector<SeriesRing::Sample> SeriesRing::samples() const {
  std::vector<Sample> out;
  const std::size_t n = size();
  out.reserve(n);
  const std::uint64_t first = count_ - n;
  for (std::uint64_t i = first; i < count_; ++i) {
    out.push_back(buf_[static_cast<std::size_t>(i % buf_.size())]);
  }
  return out;
}

TimeSeriesSampler::TimeSeriesSampler(StreamEngine& engine, Scheduler& sched,
                                     TimeSeriesOptions options)
    : engine_(engine),
      sched_(sched),
      options_(options),
      start_ns_(trace_now_ns()),
      slo_(SloTracker::parse(options.slo_spec)),
      edges_per_sec_(options.capacity),
      cycles_per_sec_(options.capacity),
      shed_per_sec_(options.capacity),
      p99_search_ns_(options.capacity),
      overload_level_(options.capacity) {
  options_.rolling_ticks = std::max<std::size_t>(1, options_.rolling_ticks);
  delta_hists_.resize(options_.rolling_ticks);
  // One-way arm: the feeding thread must see this before racing begins,
  // which is why the sampler must be constructed before the first push.
  engine_.enable_concurrent_stats();
}

TimeSeriesSampler::~TimeSeriesSampler() { stop(); }

void TimeSeriesSampler::start() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    if (running_) {
      return;
    }
    running_ = true;
    stop_requested_ = false;
  }
  // Baseline tick before the thread exists: once start() returns, /metrics
  // renders a populated registry even if a scraper beats the first interval.
  sample_once(trace_now_ns());
  thread_ = std::thread([this] { thread_main(); });
}

void TimeSeriesSampler::stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    if (!running_) {
      return;
    }
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(stop_mutex_);
  running_ = false;
}

void TimeSeriesSampler::thread_main() {
  const auto interval = std::chrono::milliseconds(
      std::max<std::uint64_t>(1, options_.interval_ms));
  while (true) {
    {
      std::unique_lock<std::mutex> lock(stop_mutex_);
      if (stop_cv_.wait_for(lock, interval, [this] { return stop_requested_; })) {
        return;
      }
    }
    sample_once(trace_now_ns());
  }
}

void TimeSeriesSampler::sample_once(std::uint64_t now_ns) {
  // Snapshot outside our own mutex: engine.stats() takes the engine's
  // observer lock, worker_stats() reads single-writer atomics.
  const StreamStats cur = engine_.stats();
  const std::vector<WorkerStats> workers = sched_.worker_stats();

  std::lock_guard<std::mutex> lock(mutex_);
  ticks_ += 1;

  std::map<std::string, double> tick_values;
  tick_values["overload_level"] =
      static_cast<double>(static_cast<int>(cur.overload_level));

  if (has_prev_ && now_ns > prev_t_ns_) {
    const double dt =
        static_cast<double>(now_ns - prev_t_ns_) * 1e-9;
    const double edges_rate =
        static_cast<double>(cur.edges_pushed - prev_.edges_pushed) / dt;
    const double cycles_rate =
        static_cast<double>(cur.cycles_found - prev_.cycles_found) / dt;
    const double shed_rate =
        static_cast<double>(cur.edges_shed - prev_.edges_shed) / dt;
    edges_per_sec_.push(now_ns, edges_rate);
    cycles_per_sec_.push(now_ns, cycles_rate);
    shed_per_sec_.push(now_ns, shed_rate);
    tick_values["edges_per_sec"] = edges_rate;
    tick_values["cycles_per_sec"] = cycles_rate;

    const std::uint64_t pushed_delta = cur.edges_pushed - prev_.edges_pushed;
    if (pushed_delta > 0) {
      tick_values["shed_fraction"] =
          static_cast<double>(cur.edges_shed - prev_.edges_shed) /
          static_cast<double>(pushed_delta);
    }

    // Rolling p99: merge the last rolling_ticks per-tick delta histograms.
    delta_hists_[static_cast<std::size_t>(delta_count_ %
                                          delta_hists_.size())] =
        delta_hist(cur.latency, prev_.latency);
    delta_count_ += 1;
    Log2Histogram rolling;
    const std::uint64_t retained =
        std::min<std::uint64_t>(delta_count_, delta_hists_.size());
    for (std::uint64_t i = delta_count_ - retained; i < delta_count_; ++i) {
      rolling.merge(
          delta_hists_[static_cast<std::size_t>(i % delta_hists_.size())]);
    }
    if (!rolling.empty()) {
      const auto rolling_p99 =
          static_cast<double>(rolling.percentile(0.99));
      p99_search_ns_.push(now_ns, rolling_p99);
      tick_values["p99_search_ns"] = rolling_p99;
      if (options_.adaptive_budget_multiplier > 0.0) {
        engine_.set_degraded_wall_hint_ns(static_cast<std::uint64_t>(
            options_.adaptive_budget_multiplier * rolling_p99));
      }
    }
  }

  const auto level_value =
      static_cast<double>(static_cast<int>(cur.overload_level));
  if (overload_level_.total() == 0 ||
      overload_level_.latest() != level_value) {
    if (overload_level_.total() != 0) {
      recent_shifts_.push_back(Shift{now_ns, cur.overload_level});
      if (recent_shifts_.size() > kMaxRecentShifts) {
        recent_shifts_.erase(recent_shifts_.begin());
      }
    }
  }
  overload_level_.push(now_ns, level_value);

  slo_.evaluate(tick_values);

  // Registry snapshot (SET semantics: re-import replaces previous values).
  registry_.import_stream(cur);
  registry_.import_worker_counters(workers);
  registry_.import_build_info();
  registry_.set_uptime_seconds(static_cast<double>(now_ns - start_ns_) *
                               1e-9);
  registry_.set_gauge("parcycle_stream_edges_per_sec", "",
                      edges_per_sec_.latest(),
                      "Arrival rate over the last sampling tick");
  registry_.set_gauge("parcycle_stream_cycles_per_sec", "",
                      cycles_per_sec_.latest(),
                      "Cycle-detection rate over the last sampling tick");
  registry_.set_gauge("parcycle_stream_shed_per_sec", "",
                      shed_per_sec_.latest(),
                      "Shed rate over the last sampling tick");
  registry_.set_gauge("parcycle_stream_rolling_p99_search_ns", "",
                      p99_search_ns_.latest(),
                      "Rolling p99 search latency per edge-lane over the "
                      "sampler window: wall ns of the search, 0 for a lane "
                      "that settled without one");
  registry_.import_process();
  if (options_.perf != nullptr) {
    registry_.import_perf(*options_.perf);
  }
  if (options_.profiler != nullptr) {
    registry_.import_profiler(*options_.profiler);
  }
  slo_.export_to(registry_);

  has_prev_ = true;
  prev_t_ns_ = now_ns;
  prev_ = cur;
}

std::string TimeSeriesSampler::render_prometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return registry_.render_text();
}

std::string TimeSeriesSampler::render_statusz() const {
  const StreamStats live = engine_.stats();
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  out.reserve(1u << 12);
  out += "parcycle statusz\n";
  out += "uptime_seconds: ";
  out += format_double(static_cast<double>(trace_now_ns() - start_ns_) * 1e-9);
  out += "\noverload_level: ";
  out += overload_level_name(live.overload_level);
  out += " (";
  append_kv_u64(out, "shifts", live.overload_shifts);
  out += ")\n";

  out += "stream: ";
  append_kv_u64(out, "edges_pushed", live.edges_pushed);
  out += ' ';
  append_kv_u64(out, "edges_ingested", live.edges_ingested);
  out += ' ';
  append_kv_u64(out, "cycles_found", live.cycles_found);
  out += ' ';
  append_kv_u64(out, "batches", live.batches);
  out += ' ';
  append_kv_u64(out, "live_edges", live.live_edges);
  out += ' ';
  append_kv_u64(out, "edges_shed", live.edges_shed);
  out += ' ';
  append_kv_u64(out, "late_rejected", live.late_edges_rejected);
  out += '\n';

  out += "reorder: ";
  append_kv_u64(out, "buffered", live.reorder_buffered);
  out += ' ';
  append_kv_u64(out, "peak", live.reorder_peak_buffered);
  if (live.reorder_max_seen >= live.reorder_floor &&
      live.reorder_floor != std::numeric_limits<Timestamp>::min()) {
    out += " floor=";
    out += std::to_string(live.reorder_floor);
    out += " max_seen=";
    out += std::to_string(live.reorder_max_seen);
    out += " watermark_lag=";
    out += std::to_string(live.reorder_max_seen - live.reorder_floor);
  } else {
    out += " (no arrivals yet)";
  }
  out += '\n';

  out += "rates: edges_per_sec=";
  out += format_double(edges_per_sec_.latest());
  out += " cycles_per_sec=";
  out += format_double(cycles_per_sec_.latest());
  out += " shed_per_sec=";
  out += format_double(shed_per_sec_.latest());
  out += " rolling_p99_search_ns=";
  out += format_double(p99_search_ns_.latest());
  out += '\n';

  out += "lanes:\n";
  for (const StreamWindowStats& lane : live.per_window) {
    out += "  window=";
    out += std::to_string(lane.window);
    out += ' ';
    append_kv_u64(out, "cycles", lane.cycles_found);
    out += ' ';
    append_kv_u64(out, "escalated", lane.escalated_edges);
    out += ' ';
    append_kv_u64(out, "truncated", lane.work.searches_truncated);
    out += ' ';
    append_kv_u64(out, "p50_ns", lane.latency_p50_ns);
    out += ' ';
    append_kv_u64(out, "p99_ns", lane.latency_p99_ns);
    out += ' ';
    append_kv_u64(out, "max_ns", lane.latency_max_ns);
    out += '\n';
  }

  if (options_.perf != nullptr && options_.perf->enabled()) {
    if (options_.perf->available()) {
      out += "perf:\n";
      for (unsigned w = 0; w < options_.perf->num_workers(); ++w) {
        const PerfCounts c = options_.perf->counts(w);
        if (!c.available) {
          continue;
        }
        out += "  worker=";
        out += std::to_string(w);
        out += " ipc=";
        out += format_double(c.ipc());
        out += " cache_miss_rate=";
        out += format_double(c.cache_miss_rate());
        out += ' ';
        append_kv_u64(out, "cycles", c.cycles);
        out += ' ';
        append_kv_u64(out, "instructions", c.instructions);
        out += ' ';
        append_kv_u64(out, "branch_misses", c.branch_misses);
        out += '\n';
      }
    } else {
      out += "perf: unavailable (";
      out += options_.perf->unavailable_reason().empty()
                 ? "no groups opened yet"
                 : options_.perf->unavailable_reason();
      out += ")\n";
    }
  }

  if (options_.profiler != nullptr && options_.profiler->enabled()) {
    out += "profiler: ";
    out += options_.profiler->sampling() ? "sampling" : "idle";
    out += ' ';
    append_kv_u64(out, "taken", options_.profiler->total_taken());
    out += ' ';
    append_kv_u64(out, "dropped", options_.profiler->total_dropped());
    // Requested and achieved rates, formatted as the collapsed header does.
    char rates[64];
    std::snprintf(rates, sizeof rates, " hz=%d effective_hz=%.1f",
                  options_.profiler->options().sample_hz,
                  options_.profiler->effective_hz());
    out += rates;
    out += " clock=";
    out += profile_clock_name(options_.profiler->options().clock);
    out += '\n';
  }

  if (!recent_shifts_.empty()) {
    out += "recent_overload_shifts:\n";
    for (const Shift& shift : recent_shifts_) {
      out += "  t=+";
      out += format_double(static_cast<double>(shift.t_ns - start_ns_) * 1e-9);
      out += "s level=";
      out += overload_level_name(shift.level);
      out += '\n';
    }
  }

  if (!slo_.empty()) {
    out += "slo:\n";
    out += slo_.render_text();
  }
  return out;
}

TimeSeriesSampler::Health TimeSeriesSampler::health() const {
  const OverloadLevel level = engine_.overload_level();
  Health h;
  h.ok = level < OverloadLevel::kShed;
  h.text = h.ok ? "ok" : "shedding";
  h.text += " overload_level=";
  h.text += overload_level_name(level);
  h.text += '\n';
  return h;
}

const SeriesRing& TimeSeriesSampler::ring_by_name(
    const std::string& name) const {
  if (name == "edges_per_sec") return edges_per_sec_;
  if (name == "cycles_per_sec") return cycles_per_sec_;
  if (name == "shed_per_sec") return shed_per_sec_;
  if (name == "p99_search_ns") return p99_search_ns_;
  if (name == "overload_level") return overload_level_;
  throw std::out_of_range("TimeSeriesSampler: unknown series '" + name + "'");
}

std::vector<SeriesRing::Sample> TimeSeriesSampler::series(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_by_name(name).samples();
}

std::vector<SloTracker::Status> TimeSeriesSampler::slo_status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slo_.status();
}

std::uint64_t TimeSeriesSampler::ticks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ticks_;
}

}  // namespace parcycle
