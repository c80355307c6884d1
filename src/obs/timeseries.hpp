// Background time-series sampler for a live StreamEngine.
//
// A dedicated thread snapshots StreamStats (via the engine's
// concurrent-stats path) and the scheduler's live worker counters every
// interval, derives per-tick rates (edges/s, cycles/s, shed/s) and a rolling
// p99 of the search latency (from per-tick delta histograms; one sample per
// edge-lane, the search's wall time or 0 for a lane that settled without a
// search, see StreamStats::latency), and appends everything to
// fixed-capacity per-series rings. The same tick
// drives the SLO tracker (obs/slo.hpp) and, when
// TimeSeriesOptions::adaptive_budget_multiplier > 0, seeds the engine's
// degraded search budget with k×rolling-p99 (static configuration stays the
// floor; see StreamEngine::set_degraded_wall_hint_ns).
//
// The sampler also maintains a MetricsRegistry snapshot — rendered by the
// /metrics endpoint — and human-readable /statusz text. All accessors are
// thread-safe (one internal mutex); health() bypasses the mutex entirely by
// reading the engine's atomic overload level, so /healthz reports the live
// ladder state with zero sampler lag.
//
// Lifecycle contract: construct the sampler BEFORE the first push (the
// constructor arms StreamEngine::enable_concurrent_stats, a one-way flag the
// feeding thread must observe before racing begins) and destroy it before
// the engine and scheduler. An unattached engine pays nothing; an attached
// one pays one mutex acquisition per public engine call and nothing per
// edge.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "stream/engine.hpp"

namespace parcycle {

class PerfCounterGroups;
class StackProfiler;

struct TimeSeriesOptions {
  // Sampling cadence of the background thread (start()/stop()); tests drive
  // sample_once() directly with synthetic timestamps instead.
  std::uint64_t interval_ms = 250;
  // Retained samples per series ring (oldest overwritten).
  std::size_t capacity = 256;
  // Ticks merged into the rolling latency histogram behind p99_search_ns.
  std::size_t rolling_ticks = 20;
  // Degraded-budget seed: wall hint = multiplier × rolling p99 (0 = off).
  double adaptive_budget_multiplier = 0.0;
  // Parsed by SloTracker::parse; empty = no objectives.
  std::string slo_spec;
  // Optional profiling sources (obs/perf_counters.hpp, obs/profiler.hpp).
  // When set they must outlive the sampler; each tick then imports
  // parcycle_perf_* / parcycle_profile_* families and /statusz grows
  // per-worker IPC and cache-miss-rate lines. nullptr = absent, free.
  const PerfCounterGroups* perf = nullptr;
  const StackProfiler* profiler = nullptr;
};

// Fixed-capacity (timestamp, value) ring; oldest samples overwritten.
class SeriesRing {
 public:
  struct Sample {
    std::uint64_t t_ns = 0;
    double value = 0.0;
  };

  explicit SeriesRing(std::size_t capacity)
      : buf_(capacity == 0 ? 1 : capacity) {}

  void push(std::uint64_t t_ns, double value) {
    buf_[static_cast<std::size_t>(count_ % buf_.size())] = Sample{t_ns, value};
    count_ += 1;
  }

  std::size_t capacity() const noexcept { return buf_.size(); }
  // Samples ever pushed (retained + overwritten).
  std::uint64_t total() const noexcept { return count_; }
  std::size_t size() const noexcept {
    return count_ < buf_.size() ? static_cast<std::size_t>(count_)
                                : buf_.size();
  }

  // Retained samples, oldest first.
  std::vector<Sample> samples() const;
  double latest() const noexcept {
    return count_ == 0
               ? 0.0
               : buf_[static_cast<std::size_t>((count_ - 1) % buf_.size())]
                     .value;
  }

 private:
  std::vector<Sample> buf_;
  std::uint64_t count_ = 0;
};

class TimeSeriesSampler {
 public:
  // Arms engine.enable_concurrent_stats(); see the lifecycle contract above.
  TimeSeriesSampler(StreamEngine& engine, Scheduler& sched,
                    TimeSeriesOptions options = {});
  ~TimeSeriesSampler();

  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  // Background sampling thread at options.interval_ms. Idempotent.
  void start();
  void stop();

  // One sampling tick at the given steady-clock timestamp. The background
  // thread calls this with trace_now_ns(); tests call it directly with
  // synthetic timestamps for deterministic rate arithmetic.
  void sample_once(std::uint64_t now_ns);

  // -- Serving-surface accessors (thread-safe) ------------------------------

  // Prometheus text of the latest registry snapshot (/metrics body).
  std::string render_prometheus() const;
  // Human-readable engine status (/statusz body).
  std::string render_statusz() const;

  struct Health {
    bool ok = false;  // false while the overload ladder sheds
    std::string text;
  };
  // Lag-free: reads the engine's atomic level, not the last sample.
  Health health() const;

  // -- Test access ----------------------------------------------------------

  // Copies of a named ring: "edges_per_sec", "cycles_per_sec",
  // "shed_per_sec", "p99_search_ns", "overload_level". Throws
  // std::out_of_range on unknown names.
  std::vector<SeriesRing::Sample> series(const std::string& name) const;
  std::vector<SloTracker::Status> slo_status() const;
  std::uint64_t ticks() const;

 private:
  void thread_main();
  const SeriesRing& ring_by_name(const std::string& name) const;

  StreamEngine& engine_;
  Scheduler& sched_;
  TimeSeriesOptions options_;
  const std::uint64_t start_ns_;

  mutable std::mutex mutex_;
  MetricsRegistry registry_;
  SloTracker slo_;
  SeriesRing edges_per_sec_;
  SeriesRing cycles_per_sec_;
  SeriesRing shed_per_sec_;
  SeriesRing p99_search_ns_;
  SeriesRing overload_level_;
  // Per-tick latency delta histograms, newest last; merged on demand into
  // the rolling window behind p99_search_ns.
  std::vector<Log2Histogram> delta_hists_;
  std::uint64_t delta_count_ = 0;  // write cursor into delta_hists_
  struct Shift {
    std::uint64_t t_ns = 0;
    OverloadLevel level = OverloadLevel::kNormal;
  };
  std::vector<Shift> recent_shifts_;  // bounded, newest last
  bool has_prev_ = false;
  std::uint64_t prev_t_ns_ = 0;
  StreamStats prev_;
  std::uint64_t ticks_ = 0;

  std::thread thread_;
  std::condition_variable stop_cv_;
  std::mutex stop_mutex_;
  bool stop_requested_ = false;
  bool running_ = false;
};

}  // namespace parcycle
