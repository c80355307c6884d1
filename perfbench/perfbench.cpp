// perfbench: the repository benchmark driver.
//
// One invocation runs one workload for a fixed measuring time and prints
// exactly one JSON line on stdout: {"correct", "attempted", "failed",
// "metrics"}. Batch workloads run on a 4-worker scheduler (the calling thread
// is worker 0), stream replays on one worker (see kStreamWorkers). A
// human-readable report goes to stderr. The workloads, their metrics and the
// layer map are documented in README.md next to this file.
//
//   temporal-batch  fine temporal Johnson over a long-history dense graph,
//                   re-read from a text edge list every repetition
//   simple-batch    fine Read-Tarjan windowed simple cycles on a small skewed
//                   graph whose window is calibrated to a cycle-count target
//   stream-dense    StreamEngine replay of the temporal-batch input from its
//                   .pcg cache, two window lanes
//   stream-sparse   StreamEngine replay of a sparse feed shuffled within the
//                   reorder slack, one lane
//
// --trace 0 measures the end-to-end metrics with no instrumentation beyond
// the clock reads the metrics themselves need. --trace 1 is a separate run:
// it records spans around every call into a layer from this file, runs the
// extra reference passes (serial, one-worker, coarse, reachability,
// standalone window replay) and prints the per-layer metrics.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/coarse_grained.hpp"
#include "core/cycle_types.hpp"
#include "core/fine_read_tarjan.hpp"
#include "core/read_tarjan.hpp"
#include "core/window_context.hpp"
#include "graph/generators.hpp"
#include "graph/temporal_graph.hpp"
#include "io/edge_list.hpp"
#include "io/edge_stream.hpp"
#include "io/graph_cache.hpp"
#include "stream/engine.hpp"
#include "stream/incremental.hpp"
#include "stream/sliding_window_graph.hpp"
#include "support/prng.hpp"
#include "support/scheduler.hpp"
#include "temporal/cycle_union.hpp"
#include "temporal/temporal_johnson.hpp"
#include "temporal/temporal_read_tarjan.hpp"

namespace {

using namespace parcycle;

constexpr unsigned kWorkers = 4;
// The measured stream replays run the engine on one worker. The engine waits
// for every task of a 256-edge batch, so on a shared VM a 4-worker replay is
// dominated by how fast the host reschedules a preempted or parked vCPU: the
// same 4-worker stream-sparse replay took 1.3 s on a quiet host and 2-4.4 s
// minutes later, while 1-worker replays stayed at 0.65-1.0 s. The traced run
// replays on 4 workers as an extra pass (stream.4w_edges_per_s).
constexpr unsigned kStreamWorkers = 1;
// Set-up is repeated and its median reported, so a change that moves work
// into set-up shows in setup_s rather than hiding in one noisy sample.
constexpr int kSetupReps = 3;
// Lower bound on measured repetitions whatever --seconds says; the traced
// run needs at least this many traced and untraced repetitions each.
constexpr int kMinReps = 3;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile (q in (0, 1]); reorders `values`.
template <typename T>
T percentile(std::span<T> values, double q) {
  if (values.empty()) {
    return T{};
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = std::max<std::size_t>(rank, 1) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

// FNV-1a over the canonical edge sequence: identifies the generated input.
std::uint64_t fingerprint(std::span<const TemporalEdge> edges) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const TemporalEdge& e : edges) {
    mix(e.src);
    mix(e.dst);
    mix(static_cast<std::uint64_t>(e.ts));
  }
  return h;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// -- Metric names -----------------------------------------------------------
//
// The two lists mirror BENCHMARK.json. --trace 0 prints every end-to-end
// metric; --trace 1 prints every per-layer metric, with 0 for a layer the
// workload does not exercise (README.md lists which apply where).

struct MetricName {
  const char* name;
  const char* unit;
};

constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"edges_per_s", "edges/s"},
    {"edge_latency_p50_ms", "ms"},
    {"edge_latency_p90_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricName kPerLayer[] = {
    {"io.load_s", "s"},
    {"graph.finalise_s", "s"},
    {"io.stream_read_s", "s"},
    {"temporal.serial_s", "s"},
    {"temporal.reach_s", "s"},
    {"temporal.reach_pass_ratio", "ratio"},
    {"temporal.edges_visited", "count"},
    {"temporal.cycles", "count"},
    {"core.serial_s", "s"},
    {"core.cycle_union_s", "s"},
    {"core.edges_visited", "count"},
    {"core.vertices_visited", "count"},
    {"core.cycles", "count"},
    {"sched.tasks_spawned", "count"},
    {"sched.tasks_stolen", "count"},
    {"sched.tasks_executed", "count"},
    {"sched.heap_fallbacks", "count"},
    {"sched.state_copies", "count"},
    {"sched.state_reuses", "count"},
    {"sched.busy_frac", "ratio"},
    {"sched.busy_imbalance", "ratio"},
    {"sched.fine_1w_s", "s"},
    {"sched.coarse_s", "s"},
    {"sched.speedup", "ratio"},
    {"stream.busy_s", "s"},
    {"stream.producer_s", "s"},
    {"stream.edges_visited", "count"},
    {"stream.escalated_edges", "count"},
    {"stream.batches", "count"},
    {"stream.expired_edges", "count"},
    {"stream.compactions", "count"},
    {"stream.reorder_peak_buffered", "count"},
    {"stream.search_p99_ns", "ns"},
    {"stream.batch_p50_ms", "ms"},
    {"stream.batch_p99_ms", "ms"},
    {"stream.window_s", "s"},
    {"stream.search_serial_s", "s"},
    {"stream.dispatch_approx_s", "s"},
    {"stream.4w_edges_per_s", "edges/s"},
    {"stream.cycles", "count"},
    {"stream.latency_p99_ms", "ms"},
    {"latency_samples", "count"},
    {"trace.overhead_s", "s"},
    {"error_rate", "ratio"},
};

// -- Spans ------------------------------------------------------------------
//
// Spans are recorded only by the traced run and only on the calling thread
// (worker 0), around calls into the library's layers. They stay in memory
// and are written out once, at exit.

class SpanLog {
 public:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    int parent;
    int rep;
  };

  int begin(const char* name, int rep) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(
        Span{name, now_ns(), 0, open_.empty() ? -1 : open_.back(), rep});
    open_.push_back(id);
    return id;
  }

  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    open_.pop_back();
  }

  // Durations (seconds) of every span with this name.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) {
        out.push_back(seconds_between(s.start_ns, s.end_ns));
      }
    }
    return out;
  }

  bool write_json(const std::string& path, const std::string& workload) const {
    std::ofstream out(path);
    if (!out) {
      return false;
    }
    const std::uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"workload\": \"" << workload << "\", \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
          << s.name << "\", \"start_us\": "
          << static_cast<double>(s.start_ns - base) * 1e-3
          << ", \"end_us\": " << static_cast<double>(s.end_ns - base) * 1e-3
          << ", \"parent\": " << s.parent << ", \"rep\": " << s.rep << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// No-op when `log` is null (untraced repetitions).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int rep)
      : log_(log), id_(log != nullptr ? log->begin(name, rep) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->end(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// -- Run-wide accounting ----------------------------------------------------

struct Run {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  // Added to every reference count: the self-test sets it to prove that a
  // wrong reference is reported as a failure.
  std::int64_t reference_offset = 0;
  std::string work_dir;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::unique_ptr<SpanLog> spans;

  void set(const std::string& name, double value) { metrics[name] = value; }

  // One verified operation.
  void check(const char* what, std::uint64_t got, std::uint64_t want) {
    attempted += 1;
    if (got != want) {
      failed += 1;
      std::cerr << "perfbench: MISMATCH " << what << ": got " << got
                << ", reference " << want << "\n";
    }
  }

  std::uint64_t reference(std::uint64_t count) const {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(count) +
                                      reference_offset);
  }

  // Measured repetitions continue until --seconds elapsed and kMinReps
  // (twice that when traced: traced and untraced repetitions alternate).
  bool more_reps(std::uint64_t start_ns, int reps) const {
    const int min_reps = trace ? 2 * kMinReps : kMinReps;
    return reps < min_reps || seconds_between(start_ns, now_ns()) < seconds;
  }

  // Traced runs alternate: even repetitions record spans, odd ones do not,
  // so their difference is the tracing overhead.
  SpanLog* span_log_for(int rep) const {
    return trace && rep % 2 == 0 ? spans.get() : nullptr;
  }
};

std::string path_in(const Run& run, const std::string& name) {
  return (std::filesystem::path(run.work_dir) /
          (run.workload + "-" + std::to_string(run.seed) + name))
      .string();
}

// Scheduler counters of one repetition.
struct SchedSample {
  double spawned = 0;
  double stolen = 0;
  double executed = 0;
  double heap = 0;
  double busy_frac = 0;
  double busy_imbalance = 0;
};

SchedSample sample_scheduler(const Scheduler& sched, double wall_s) {
  SchedSample s;
  double busy_sum = 0;
  double busy_max = 0;
  const std::vector<WorkerStats> stats = sched.worker_stats();
  for (const WorkerStats& w : stats) {
    s.spawned += static_cast<double>(w.tasks_spawned);
    s.stolen += static_cast<double>(w.tasks_stolen);
    s.executed += static_cast<double>(w.tasks_executed);
    s.heap += static_cast<double>(w.tasks_heap_allocated);
    const double busy = static_cast<double>(w.busy_ns) * 1e-9;
    busy_sum += busy;
    busy_max = std::max(busy_max, busy);
  }
  const double workers = static_cast<double>(stats.size());
  if (wall_s > 0 && workers > 0) {
    s.busy_frac = busy_sum / (workers * wall_s);
  }
  if (busy_sum > 0) {
    s.busy_imbalance = busy_max / (busy_sum / workers);
  }
  return s;
}

void set_sched_metrics(Run& run, const std::vector<SchedSample>& samples) {
  const auto med = [&](double SchedSample::*field) {
    std::vector<double> v;
    for (const SchedSample& s : samples) {
      v.push_back(s.*field);
    }
    return median(v);
  };
  run.set("sched.tasks_spawned", med(&SchedSample::spawned));
  run.set("sched.tasks_stolen", med(&SchedSample::stolen));
  run.set("sched.tasks_executed", med(&SchedSample::executed));
  run.set("sched.heap_fallbacks", med(&SchedSample::heap));
  run.set("sched.busy_frac", med(&SchedSample::busy_frac));
  run.set("sched.busy_imbalance", med(&SchedSample::busy_imbalance));
}

void report_series(const char* label, const std::vector<double>& values) {
  std::cerr << "perfbench: " << label << "=";
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::cerr << (i ? "," : "") << values[i];
  }
  std::cerr << "\n";
}

// Times `setup` kSetupReps times (each run rebuilds the same inputs from the
// seed) and records the median as setup_s.
template <typename Fn>
void timed_setup(Run& run, Fn&& setup) {
  std::vector<double> times;
  for (int i = 0; i < kSetupReps; ++i) {
    const std::uint64_t start = now_ns();
    setup();
    times.push_back(seconds_between(start, now_ns()));
  }
  report_series("setup_s", times);
  run.set("setup_s", median(times));
}

void set_trace_overhead(Run& run, const std::vector<double>& rep_seconds) {
  std::vector<double> traced;
  std::vector<double> plain;
  for (std::size_t i = 0; i < rep_seconds.size(); ++i) {
    (i % 2 == 0 ? traced : plain).push_back(rep_seconds[i]);
  }
  run.set("trace.overhead_s", median(traced) - median(plain));
}

// Runs `fn` under a span and returns its wall time in seconds.
template <typename Fn>
double timed(SpanLog* spans, const char* name, int rep, Fn&& fn) {
  const std::uint64_t start = now_ns();
  {
    ScopedSpan span(spans, name, rep);
    fn();
  }
  return seconds_between(start, now_ns());
}

// One traced extra enumeration: its time is recorded under `metric` and its
// cycle count is checked against the reference like any repetition.
template <typename Fn>
EnumResult extra_pass(Run& run, const char* metric, std::uint64_t reference,
                      Fn&& enumerate) {
  EnumResult result;
  run.set(metric, timed(run.spans.get(), metric, -1,
                        [&] { result = enumerate(); }));
  run.check(metric, result.num_cycles, reference);
  return result;
}

struct BatchReps {
  std::vector<double> seconds;
  std::vector<SchedSample> sched;  // traced repetitions only
  EnumResult last;
};

// The measured loop of a batch workload. `rep(spans, i)` runs one repetition
// (spans is null when it is not traced); its cycle count must equal the
// reference.
template <typename Fn>
BatchReps measure_batch(Run& run, Scheduler& sched, std::uint64_t reference,
                        Fn&& rep) {
  BatchReps reps;
  const std::uint64_t start = now_ns();
  for (int i = 0; run.more_reps(start, i); ++i) {
    SpanLog* spans = run.span_log_for(i);
    if (spans != nullptr) {
      sched.reset_stats();
    }
    const double seconds =
        timed(spans, "rep", i, [&] { reps.last = rep(spans, i); });
    run.check("repetition", reps.last.num_cycles, reference);
    reps.seconds.push_back(seconds);
    if (spans != nullptr) {
      reps.sched.push_back(sample_scheduler(sched, seconds));
    }
  }
  return reps;
}

// Batch workloads: every edge's cycles are known only when the repetition
// ends, so each edge's latency is its repetition's time. With equal-sized
// repetitions the percentiles over edges are percentiles over repetitions,
// one sample each.
void set_batch_metrics(Run& run, const BatchReps& reps, std::uint64_t edges) {
  report_series("rep_s", reps.seconds);
  const double wall = median(reps.seconds);
  run.set("wall_s", wall);
  run.set("edges_per_s", static_cast<double>(edges) / wall);
  run.set("edge_latency_p50_ms", wall * 1e3);
  std::vector<double> ordered = reps.seconds;
  run.set("edge_latency_p90_ms", percentile(std::span(ordered), 0.90) * 1e3);
  run.set("latency_samples", static_cast<double>(reps.seconds.size()));
  if (run.trace) {
    set_trace_overhead(run, reps.seconds);
    set_sched_metrics(run, reps.sched);
    run.set("sched.state_copies",
            static_cast<double>(reps.last.work.state_copies));
    run.set("sched.state_reuses",
            static_cast<double>(reps.last.work.state_reuses));
  }
}

// -- simple-batch -----------------------------------------------------------

// Counts cycles per time span (max - min edge timestamp) and aborts the
// enumeration once more than `cap` cycles have been seen. A windowed simple
// cycle is reported at window w exactly when its span is <= w, so one
// complete enumeration at w gives the cycle count of every window <= w.
class SpanHistogramSink final : public CycleSink {
 public:
  struct CapExceeded : std::exception {};

  SpanHistogramSink(const TemporalGraph& graph, Timestamp window,
                    std::uint64_t cap)
      : graph_(graph),
        histogram_(static_cast<std::size_t>(window) + 1),
        cap_(cap) {}

  void on_cycle(std::span<const VertexId>,
                std::span<const EdgeId> edges) override {
    Timestamp lo = std::numeric_limits<Timestamp>::max();
    Timestamp hi = std::numeric_limits<Timestamp>::min();
    for (const EdgeId id : edges) {
      lo = std::min(lo, graph_.edge(id).ts);
      hi = std::max(hi, graph_.edge(id).ts);
    }
    histogram_[static_cast<std::size_t>(hi - lo)].fetch_add(
        1, std::memory_order_relaxed);
    if (count_.fetch_add(1, std::memory_order_relaxed) + 1 > cap_) {
      throw CapExceeded{};
    }
  }

  // cumulative[w] = cycles with span <= w.
  std::vector<std::uint64_t> cumulative() const {
    std::vector<std::uint64_t> out(histogram_.size());
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < histogram_.size(); ++i) {
      sum += histogram_[i].load(std::memory_order_relaxed);
      out[i] = sum;
    }
    return out;
  }

 private:
  const TemporalGraph& graph_;
  std::vector<std::atomic<std::uint64_t>> histogram_;
  std::uint64_t cap_;
  std::atomic<std::uint64_t> count_{0};
};

struct Calibration {
  Timestamp window = 0;
  std::uint64_t cycles = 0;
  int probes = 0;
};

// Finds the largest window whose simple-cycle count is <= `target`. The
// cycle count grows steeply with the window (one seed went from 1M to 192M
// cycles over a 14% wider window), so every probe is capped at 2x target and
// the search stops on counts only, never on time: parent and child commits
// always calibrate to the same window. Probes run coarse Johnson, a
// different algorithm family from the measured fine Read-Tarjan.
Calibration calibrate_window(const TemporalGraph& graph, std::uint64_t target,
                             Scheduler& sched) {
  const std::uint64_t cap = 2 * target;
  Timestamp lo = 0;  // largest probed window with a complete count < target
  Timestamp hi = 0;  // smallest probed window over the cap (0: none yet)
  std::vector<std::uint64_t> lo_counts{0};
  Timestamp probe = std::max<Timestamp>(1, graph.time_span() / 8);
  for (int probes = 1;; ++probes) {
    SpanHistogramSink sink(graph, probe, cap);
    bool over_cap = false;
    try {
      coarse_johnson_windowed_cycles(graph, probe, sched, {}, &sink);
    } catch (const SpanHistogramSink::CapExceeded&) {
      over_cap = true;
    }
    if (!over_cap) {
      std::vector<std::uint64_t> counts = sink.cumulative();
      if (counts.back() >= target) {
        Timestamp w = probe;
        while (counts[static_cast<std::size_t>(w)] > target) {
          --w;
        }
        return {w, counts[static_cast<std::size_t>(w)], probes};
      }
      lo = probe;
      lo_counts = std::move(counts);
    } else {
      hi = probe;
    }
    if (hi != 0 && hi - lo <= 1) {
      // The count jumps past the cap within one tick: take the last window
      // below target.
      return {lo, lo_counts.back(), probes};
    }
    // Next probe: extrapolate log(count) linearly from the last complete
    // probe towards 1.4x target (mid-way to the cap in log space), bounded
    // to a 30% step, and kept inside (lo, hi) once the cap was hit.
    Timestamp next = lo + std::max<Timestamp>(1, lo * 3 / 10);
    const auto back = static_cast<std::size_t>(lo * 85 / 100);
    if (lo > 0 && lo_counts.back() > 0 && lo_counts[back] > 0 &&
        lo_counts.back() > lo_counts[back]) {
      const double slope =
          std::log(static_cast<double>(lo_counts.back()) /
                   static_cast<double>(lo_counts[back])) /
          static_cast<double>(static_cast<std::size_t>(lo) - back);
      const double step =
          std::log(1.4 * static_cast<double>(target) /
                   static_cast<double>(lo_counts.back())) /
          slope;
      next = lo + std::clamp<Timestamp>(static_cast<Timestamp>(step), 1,
                                        std::max<Timestamp>(1, lo * 3 / 10));
    }
    if (lo == 0) {
      next = hi / 2;  // every probe so far was over the cap
    }
    if (hi != 0) {
      next = std::clamp(next, lo + std::max<Timestamp>(1, (hi - lo) / 4),
                        hi - std::max<Timestamp>(1, (hi - lo) / 4));
    }
    probe = next;
  }
}

// simple-batch takes its structure from one fixed generator seed, and
// --seed relabels the vertices with a seeded permutation. Independently
// generated graphs of this size differ 2x in search work at the same cycle
// count (99M vs 224M edge visits for seeds 4 and 5), because ~10 starts hold
// most of the work; that would swamp any effect a change could claim. A
// relabelled graph poses the same problem (same window, same cycles) with a
// different memory layout, tie order and steal pattern.
constexpr std::uint64_t kSimpleStructureSeed = 201;

TemporalGraph simple_input(const Run& run) {
  ScaleFreeTemporalParams p;
  p.num_vertices = run.tiny ? 80 : 1000;
  p.num_edges = run.tiny ? 800 : 8000;
  p.time_span = 100000;
  p.attachment = 0.7;
  p.burstiness = 0.5;
  p.seed = kSimpleStructureSeed;
  const TemporalGraph base = scale_free_temporal(p);
  std::vector<VertexId> label(base.num_vertices());
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    label[v] = v;
  }
  Xoshiro256 rng(run.seed);
  for (std::size_t i = label.size(); i > 1; --i) {
    std::swap(label[i - 1], label[rng.bounded(i)]);
  }
  std::vector<TemporalEdge> edges(base.edges_by_time().begin(),
                                  base.edges_by_time().end());
  for (TemporalEdge& e : edges) {
    e.src = label[e.src];
    e.dst = label[e.dst];
  }
  return TemporalGraph(base.num_vertices(), std::move(edges));
}

void cycle_union_pass(Run& run, const TemporalGraph& graph, Timestamp window) {
  CycleUnionScratch scratch;
  scratch.init(graph.num_vertices());
  run.set("core.cycle_union_s",
          timed(run.spans.get(), "core.cycle_union_s", -1, [&] {
            for (const TemporalEdge& e0 : graph.edges_by_time()) {
              StartContext ctx;
              ctx.e0 = e0.id;
              ctx.tail = e0.src;
              ctx.head = e0.dst;
              ctx.t0 = e0.ts;
              ctx.hi = e0.ts + window;
              // Mirrors the windowed enumerators' per-start preparation.
              if (e0.src == e0.dst ||
                  graph.out_edges_in_window(e0.dst, ctx.t0, ctx.hi).empty() ||
                  graph.in_edges_in_window(e0.src, ctx.t0, ctx.hi).empty()) {
                continue;
              }
              scratch.compute(graph, ctx);
            }
          }));
}

std::uint64_t simple_target(const Run& run) {
  return run.tiny ? 2000 : 1000000;
}

// The core layer's serial passes: serial Read-Tarjan (time and exact counts)
// and the cycle-union pre-pass.
void core_layer_passes(Run& run, const TemporalGraph& graph, Timestamp window,
                       std::uint64_t reference) {
  const EnumResult serial = extra_pass(run, "core.serial_s", reference, [&] {
    return read_tarjan_windowed_cycles(graph, window);
  });
  run.set("core.cycles", static_cast<double>(serial.num_cycles));
  run.set("core.edges_visited", static_cast<double>(serial.work.edges_visited));
  run.set("core.vertices_visited",
          static_cast<double>(serial.work.vertices_visited));
  cycle_union_pass(run, graph, window);
}

void run_simple_batch(Run& run) {
  TemporalGraph graph;
  Calibration cal;
  std::uint64_t reference = 0;
  BatchReps reps;

  Scheduler::with_pool(kWorkers, [&](Scheduler& sched) {
    timed_setup(run, [&] {
      graph = simple_input(run);
      cal = calibrate_window(graph, simple_target(run), sched);
      reference = run.reference(cal.cycles);
    });
    std::cerr << "perfbench: input_fingerprint="
              << fingerprint(graph.edges_by_time()) << "\n";

    reps = measure_batch(run, sched, reference, [&](SpanLog* spans, int i) {
      EnumResult result;
      timed(spans, "core.fine", i, [&] {
        result = fine_read_tarjan_windowed_cycles(graph, cal.window, sched);
      });
      return result;
    });

    if (run.trace) {
      extra_pass(run, "sched.coarse_s", reference, [&] {
        return coarse_read_tarjan_windowed_cycles(graph, cal.window, sched);
      });
    }
  });

  std::cerr << "perfbench: cycles=" << reps.last.num_cycles
            << " reference=" << reference << " window=" << cal.window
            << " calibration_probes=" << cal.probes
            << " repetitions=" << reps.seconds.size() << "\n";
  set_batch_metrics(run, reps, graph.num_edges());
  if (!run.trace) {
    return;
  }
  core_layer_passes(run, graph, cal.window, reference);
  run.set("sched.speedup", run.metrics["core.serial_s"] / run.metrics["wall_s"]);
  Scheduler::with_pool(1, [&](Scheduler& sched) {
    extra_pass(run, "sched.fine_1w_s", reference, [&] {
      return fine_read_tarjan_windowed_cycles(graph, cal.window, sched);
    });
  });
}

// -- temporal-batch ---------------------------------------------------------

struct TemporalBatchSpec {
  ScaleFreeTemporalParams params;
  Timestamp window;
};

TemporalBatchSpec temporal_spec(const Run& run) {
  ScaleFreeTemporalParams p;
  p.num_vertices = run.tiny ? 60 : 400;
  p.num_edges = run.tiny ? 6000 : 600000;
  p.time_span = run.tiny ? 30000 : 3000000;
  p.attachment = 0.6;
  p.burstiness = 0.6;
  p.seed = run.seed;
  return {p, run.tiny ? 960 : 9600};
}

void temporal_reach_pass(Run& run, const TemporalGraph& graph,
                         Timestamp window) {
  TemporalReachScratch reach;
  reach.init(graph.num_vertices());
  std::uint64_t attempted = 0;
  std::uint64_t passed = 0;
  // Mirrors the per-start preparation of the temporal enumerators: the cheap
  // neighbour rejection first, then the reachability pre-pass.
  run.set("temporal.reach_s",
          timed(run.spans.get(), "temporal.reach_s", -1, [&] {
            for (const TemporalEdge& e0 : graph.edges_by_time()) {
              const Timestamp hi = e0.ts + window;
              if (e0.src == e0.dst ||
                  graph.out_edges_in_window(e0.dst, e0.ts + 1, hi).empty() ||
                  graph.in_edges_in_window(e0.src, e0.ts + 1, hi).empty()) {
                continue;
              }
              attempted += 1;
              passed += reach.compute(graph, e0, hi) ? 1 : 0;
            }
          }));
  run.set("temporal.reach_pass_ratio",
          attempted == 0 ? 0.0
                         : static_cast<double>(passed) /
                               static_cast<double>(attempted));
}

void run_temporal_batch(Run& run) {
  const TemporalBatchSpec spec = temporal_spec(run);
  const std::string text_path = path_in(run, ".txt");
  TemporalGraph graph;  // kept for the traced extra passes only
  std::uint64_t reference = 0;
  std::uint64_t edges = 0;
  std::uint64_t input_fingerprint = 0;
  std::vector<double> finalise_s;
  BatchReps reps;

  Scheduler::with_pool(kWorkers, [&](Scheduler& sched) {
    timed_setup(run, [&] {
      TemporalGraph generated = scale_free_temporal(spec.params);
      save_temporal_edge_list_file(generated, text_path);
      // Independent reference: the Read-Tarjan family, not the measured
      // Johnson enumerator.
      reference = run.reference(
          fine_temporal_read_tarjan_cycles(generated, spec.window, sched)
              .num_cycles);
      edges = generated.num_edges();
      input_fingerprint = fingerprint(generated.edges_by_time());
      if (run.trace) {
        graph = std::move(generated);
      }
    });
    std::cerr << "perfbench: input_fingerprint=" << input_fingerprint << "\n";

    reps = measure_batch(run, sched, reference, [&](SpanLog* spans, int i) {
      LoadStats stats;
      TemporalGraph loaded;
      timed(spans, "io.load", i, [&] {
        loaded = load_temporal_edge_list_file_parallel(text_path, sched, {},
                                                       &stats);
      });
      finalise_s.push_back(stats.finalise_seconds);
      EnumResult result;
      timed(spans, "temporal.fine", i, [&] {
        result = fine_temporal_johnson_cycles(loaded, spec.window, sched);
      });
      return result;
    });

    if (run.trace) {
      extra_pass(run, "sched.coarse_s", reference, [&] {
        return coarse_temporal_johnson_cycles(graph, spec.window, sched);
      });
    }
  });

  std::cerr << "perfbench: cycles=" << reps.last.num_cycles
            << " reference=" << reference << " window=" << spec.window
            << " repetitions=" << reps.seconds.size() << "\n";
  run.set("temporal.cycles", static_cast<double>(reps.last.num_cycles));
  set_batch_metrics(run, reps, edges);
  if (!run.trace) {
    return;
  }
  run.set("io.load_s", median(run.spans->durations("io.load")));
  run.set("graph.finalise_s", median(finalise_s));
  const EnumResult serial =
      extra_pass(run, "temporal.serial_s", reference,
                 [&] { return temporal_johnson_cycles(graph, spec.window); });
  run.set("temporal.edges_visited",
          static_cast<double>(serial.work.edges_visited));
  run.set("sched.speedup",
          run.metrics["temporal.serial_s"] / run.metrics["wall_s"]);
  temporal_reach_pass(run, graph, spec.window);
  Scheduler::with_pool(1, [&](Scheduler& sched) {
    extra_pass(run, "sched.fine_1w_s", reference, [&] {
      return fine_temporal_johnson_cycles(graph, spec.window, sched);
    });
  });
  // simple-batch is not in the gated set (README.md says why), so the core
  // layer's passes also run here, on the simple-batch input.
  Scheduler::with_pool(kWorkers, [&](Scheduler& sched) {
    const TemporalGraph simple = simple_input(run);
    const Calibration cal = calibrate_window(simple, simple_target(run), sched);
    core_layer_passes(run, simple, cal.window, run.reference(cal.cycles));
  });
}

// -- stream-dense / stream-sparse ------------------------------------------

// Deterministic within-slack disorder: sort by the jittered key
// ts + uniform[0, slack]. Any arrival j after i has ts_j >= ts_i - slack, so
// the reorder stage accepts every edge and must reproduce the sorted replay.
// Edge ids keep the canonical rank. The same construction as bench_stream's,
// which is private to that binary.
std::vector<TemporalEdge> shuffle_within_slack(
    std::span<const TemporalEdge> edges, Timestamp slack, std::uint64_t seed) {
  struct Keyed {
    Timestamp key;
    std::uint64_t tiebreak;
    TemporalEdge edge;
  };
  SplitMix64 rng(seed);
  std::vector<Keyed> keyed;
  keyed.reserve(edges.size());
  for (const TemporalEdge& e : edges) {
    const auto jitter = static_cast<Timestamp>(
        rng.next() % static_cast<std::uint64_t>(slack + 1));
    keyed.push_back(Keyed{e.ts + jitter, rng.next(), e});
  }
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    return a.key != b.key ? a.key < b.key : a.tiebreak < b.tiebreak;
  });
  std::vector<TemporalEdge> out;
  out.reserve(keyed.size());
  for (const Keyed& k : keyed) {
    out.push_back(k.edge);
  }
  return out;
}

struct StreamInput {
  TemporalGraph graph;             // canonical order, for references
  std::string pcg_path;            // stream-dense feed
  std::vector<TemporalEdge> feed;  // stream-sparse feed (ids = canonical rank)
  std::vector<Timestamp> lanes;
  Timestamp slack = 0;
  std::vector<std::uint64_t> references;  // per lane
};

struct ReplayResult {
  double replay_s = 0;  // first push() to the return of the final flush()
  double wall_s = 0;    // feed open to verified result
  double p50_ms = 0;
  double p90_ms = 0;
  double p99_ms = 0;
  std::uint64_t pushed = 0;
  std::uint64_t samples = 0;
  std::vector<double> batch_ms;  // push/flush calls that processed a batch
  StreamStats stats;
};

// Per-edge latency bookkeeping reused across replays: push time by canonical
// rank, and the latency of each rank once ingested.
struct LatencyBuffers {
  std::vector<std::uint64_t> push_ns;
  std::vector<std::uint64_t> latency_ns;
};

ReplayResult replay(Run& run, const StreamInput& in, Scheduler& sched,
                    SpanLog* spans, int rep, LatencyBuffers& buf) {
  ReplayResult r;
  // The in-memory feed is handed over by value; copying it is the
  // benchmark's own cost and stays outside every timer.
  std::vector<TemporalEdge> feed_copy;
  if (in.pcg_path.empty()) {
    feed_copy = in.feed;
  }
  const std::uint64_t t_open = now_ns();
  ScopedSpan rep_span(spans, "stream.replay", rep);
  std::unique_ptr<EdgeStreamReader> reader;
  {
    ScopedSpan span(spans, "io.open", rep);
    reader = std::make_unique<EdgeStreamReader>(
        in.pcg_path.empty()
            ? EdgeStreamReader::from_edges(std::move(feed_copy),
                                           in.graph.num_vertices())
            : EdgeStreamReader::open_file(in.pcg_path));
  }
  StreamOptions options;
  options.windows = in.lanes;
  options.reorder_slack = in.slack;
  options.num_vertices_hint = in.graph.num_vertices();
  std::vector<CountingSink> sinks(in.lanes.size());
  std::vector<CycleSink*> sink_ptrs;
  for (CountingSink& sink : sinks) {
    sink_ptrs.push_back(&sink);
  }
  StreamEngine engine(options, sched, sink_ptrs);

  std::uint64_t ingested = 0;
  const auto complete = [&](std::uint64_t call_start) {
    const std::uint64_t now_ingested = engine.graph().total_ingested();
    if (now_ingested == ingested) {
      return;
    }
    const std::uint64_t t = now_ns();
    for (std::uint64_t rank = ingested; rank < now_ingested; ++rank) {
      buf.latency_ns[rank] = t - buf.push_ns[rank];
    }
    r.batch_ms.push_back(static_cast<double>(t - call_start) * 1e-6);
    ingested = now_ingested;
  };
  const bool shuffled = !in.feed.empty();
  TemporalEdge e;
  const std::uint64_t t_first = now_ns();
  {
    ScopedSpan span(spans, "stream.push", rep);
    for (std::uint64_t i = 0; reader->next(e); ++i) {
      const std::uint64_t t = now_ns();
      buf.push_ns[shuffled ? in.feed[i].id : i] = t;
      engine.push(e.src, e.dst, e.ts);
      complete(t);
    }
  }
  {
    ScopedSpan span(spans, "stream.flush", rep);
    const std::uint64_t t = now_ns();
    engine.flush();
    complete(t);
  }
  const std::uint64_t t_end = now_ns();
  r.stats = engine.stats();
  r.pushed = r.stats.edges_pushed;
  bool lanes_agree = true;
  for (std::size_t lane = 0; lane < in.lanes.size(); ++lane) {
    lanes_agree = lanes_agree && sinks[lane].count() == in.references[lane] &&
                  r.stats.per_window[lane].cycles_found == in.references[lane];
  }
  const std::uint64_t t_verified = now_ns();
  r.replay_s = seconds_between(t_first, t_end);
  r.wall_s = seconds_between(t_open, t_verified);

  // Operation accounting: one operation per pushed edge. Late-rejected,
  // shed or truncated edges fail; a lane total off the reference fails the
  // whole repetition.
  std::uint64_t failed = r.stats.late_edges_rejected + r.stats.edges_shed;
  for (const StreamWindowStats& lane : r.stats.per_window) {
    failed += lane.work.searches_truncated;
  }
  if (!lanes_agree) {
    failed = r.pushed;
    for (std::size_t lane = 0; lane < in.lanes.size(); ++lane) {
      std::cerr << "perfbench: MISMATCH lane " << in.lanes[lane] << ": got "
                << sinks[lane].count() << ", reference "
                << in.references[lane] << "\n";
    }
  }
  run.attempted += r.pushed;
  run.failed += std::min(failed, r.pushed);

  const std::span<std::uint64_t> latencies(buf.latency_ns.data(), ingested);
  r.samples = latencies.size();
  r.p50_ms = static_cast<double>(percentile(latencies, 0.50)) * 1e-6;
  r.p90_ms = static_cast<double>(percentile(latencies, 0.90)) * 1e-6;
  r.p99_ms = static_cast<double>(percentile(latencies, 0.99)) * 1e-6;
  return r;
}

struct WindowReplay {
  double window_s = 0;
  double search_s = 0;
  std::uint64_t edges_visited = 0;
  std::vector<std::uint64_t> cycles;  // per lane
};

// Standalone replay of the engine's window maintenance and serial per-edge
// searches with the engine's default batch boundaries, retention and prune
// rule, on one thread.
WindowReplay window_replay(const StreamInput& in) {
  const StreamOptions defaults;
  const Timestamp retention =
      *std::max_element(in.lanes.begin(), in.lanes.end());
  const std::span<const TemporalEdge> edges = in.graph.edges_by_time();
  SlidingWindowGraph window(in.graph.num_vertices());
  StreamSearchScratch scratch;
  scratch.ensure(in.graph.num_vertices());
  WorkCounters work;
  WindowReplay out;
  out.cycles.assign(in.lanes.size(), 0);
  std::vector<TemporalEdge> batch;
  std::uint64_t window_ns = 0;
  std::uint64_t search_ns = 0;
  for (std::size_t begin = 0; begin < edges.size();
       begin += defaults.batch_size) {
    const std::size_t end = std::min(edges.size(), begin + defaults.batch_size);
    const std::uint64_t t0 = now_ns();
    window.expire_before(edges[begin].ts - retention);
    batch.clear();
    for (std::size_t i = begin; i < end; ++i) {
      TemporalEdge e = edges[i];
      e.id = window.ingest(e.src, e.dst, e.ts);
      batch.push_back(e);
    }
    const std::uint64_t t1 = now_ns();
    for (const TemporalEdge& e : batch) {
      for (std::size_t lane = 0; lane < in.lanes.size(); ++lane) {
        const Timestamp delta = in.lanes[lane];
        const std::size_t frontier =
            e.src == e.dst
                ? 0
                : window.out_edges_in_window(e.dst, e.ts - delta, e.ts - 1)
                      .size();
        EnumOptions options;
        options.use_cycle_union =
            frontier >= defaults.prune_frontier_threshold;
        out.cycles[lane] +=
            cycles_closed_by_edge(window, e, delta, options, scratch, work);
      }
    }
    const std::uint64_t t2 = now_ns();
    window_ns += t1 - t0;
    search_ns += t2 - t1;
  }
  out.window_s = static_cast<double>(window_ns) * 1e-9;
  out.search_s = static_cast<double>(search_ns) * 1e-9;
  out.edges_visited = work.edges_visited;
  return out;
}

void run_stream(Run& run, bool dense) {
  ScaleFreeTemporalParams params;
  if (dense) {
    params = temporal_spec(run).params;
  } else {
    params.num_vertices = run.tiny ? 300 : 6000;
    params.num_edges = run.tiny ? 12000 : 1200000;
    params.time_span = run.tiny ? 80000 : 8000000;
    params.attachment = 0.8;
    params.burstiness = 0.6;
    params.seed = run.seed;
  }
  const Timestamp window =
      dense ? temporal_spec(run).window : (run.tiny ? 3200 : 32000);
  StreamInput in;
  in.lanes = dense ? std::vector<Timestamp>{window / 2, window}
                   : std::vector<Timestamp>{window};
  in.slack = dense ? 0 : window / 8;
  if (dense) {
    in.pcg_path = path_in(run, ".pcg");
  }
  LatencyBuffers buf;
  std::vector<ReplayResult> replays;

  Scheduler::with_pool(kWorkers, [&](Scheduler& sched) {
    timed_setup(run, [&] {
      in.graph = scale_free_temporal(params);
      if (dense) {
        save_graph_cache_file(in.graph, in.pcg_path);
      } else {
        in.feed = shuffle_within_slack(in.graph.edges_by_time(), in.slack,
                                       run.seed ^ 0x5eedb05500511cULL);
      }
      // Reference per lane: the batch temporal enumerator on the same edges.
      in.references.clear();
      for (const Timestamp lane : in.lanes) {
        in.references.push_back(run.reference(
            fine_temporal_johnson_cycles(in.graph, lane, sched).num_cycles));
      }
    });
  });
  std::cerr << "perfbench: input_fingerprint="
            << fingerprint(in.graph.edges_by_time()) << "\n";
  buf.push_ns.assign(in.graph.num_edges(), 0);
  buf.latency_ns.assign(in.graph.num_edges(), 0);

  Scheduler::with_pool(kStreamWorkers, [&](Scheduler& sched) {
    const std::uint64_t start = now_ns();
    for (int rep = 0; run.more_reps(start, rep); ++rep) {
      replays.push_back(
          replay(run, in, sched, run.span_log_for(rep), rep, buf));
    }
  });

  const auto med = [&](auto field, bool traced_only) {
    std::vector<double> v;
    for (std::size_t i = 0; i < replays.size(); ++i) {
      if (!traced_only || i % 2 == 0) {
        v.push_back(field(replays[i]));
      }
    }
    return median(v);
  };
  const auto edges_per_s = [](const ReplayResult& r) {
    return static_cast<double>(r.pushed) / r.replay_s;
  };
  const bool traced = run.trace;
  std::vector<double> series[4];
  for (const ReplayResult& r : replays) {
    series[0].push_back(r.replay_s);
    series[1].push_back(r.p50_ms);
    series[2].push_back(r.p90_ms);
    series[3].push_back(r.p99_ms);
  }
  report_series("replay_s", series[0]);
  report_series("latency_p50_ms", series[1]);
  report_series("latency_p90_ms", series[2]);
  report_series("latency_p99_ms", series[3]);
  run.set("wall_s", med([](const ReplayResult& r) { return r.wall_s; }, false));
  run.set("edges_per_s", med(edges_per_s, false));
  run.set("edge_latency_p50_ms",
          med([](const ReplayResult& r) { return r.p50_ms; }, traced));
  run.set("edge_latency_p90_ms",
          med([](const ReplayResult& r) { return r.p90_ms; }, traced));
  run.set("stream.latency_p99_ms",
          med([](const ReplayResult& r) { return r.p99_ms; }, traced));
  const StreamStats& stats = replays.back().stats;
  std::uint64_t samples = 0;
  for (const ReplayResult& r : replays) {
    samples += r.samples;
  }
  run.set("latency_samples", static_cast<double>(samples));
  run.set("stream.cycles", static_cast<double>(stats.cycles_found));
  std::cerr << "perfbench: cycles=" << stats.cycles_found << " lanes=";
  for (std::size_t lane = 0; lane < in.lanes.size(); ++lane) {
    std::cerr << (lane ? "," : "") << in.lanes[lane] << ":"
              << in.references[lane];
  }
  std::cerr << " edges=" << in.graph.num_edges()
            << " repetitions=" << replays.size()
            << " latency_samples=" << samples << "\n";
  if (!traced) {
    return;
  }

  std::vector<double> replay_seconds;
  for (const ReplayResult& r : replays) {
    replay_seconds.push_back(r.replay_s);
  }
  set_trace_overhead(run, replay_seconds);
  run.set("sched.state_copies", static_cast<double>(stats.work.state_copies));
  run.set("sched.state_reuses", static_cast<double>(stats.work.state_reuses));
  const double busy_s =
      med([](const ReplayResult& r) { return r.stats.busy_seconds; }, true);
  run.set("stream.busy_s", busy_s);
  run.set("stream.producer_s",
          med([](const ReplayResult& r) {
                return r.replay_s - r.stats.busy_seconds;
              }, true));
  run.set("stream.edges_visited",
          static_cast<double>(stats.work.edges_visited));
  run.set("stream.escalated_edges", static_cast<double>(stats.escalated_edges));
  run.set("stream.batches", static_cast<double>(stats.batches));
  run.set("stream.expired_edges", static_cast<double>(stats.expired_edges));
  run.set("stream.compactions",
          static_cast<double>(stats.work.graph_compactions));
  run.set("stream.reorder_peak_buffered",
          static_cast<double>(stats.reorder_peak_buffered));
  run.set("stream.search_p99_ns",
          med([](const ReplayResult& r) {
                return static_cast<double>(r.stats.latency_p99_ns);
              }, true));
  std::vector<double> batch_ms;
  for (std::size_t i = 0; i < replays.size(); i += 2) {
    batch_ms.insert(batch_ms.end(), replays[i].batch_ms.begin(),
                    replays[i].batch_ms.end());
  }
  run.set("stream.batch_p50_ms", percentile(std::span(batch_ms), 0.50));
  run.set("stream.batch_p99_ms", percentile(std::span(batch_ms), 0.99));

  // The feed on its own, drained without an engine.
  EdgeStreamReader reader =
      dense ? EdgeStreamReader::open_file(in.pcg_path)
            : EdgeStreamReader::from_edges(in.feed, in.graph.num_vertices());
  std::uint64_t fed = 0;
  run.set("io.stream_read_s",
          timed(run.spans.get(), "io.stream_read_s", -1, [&] {
            TemporalEdge e;
            while (reader.next(e)) {
              fed += 1;
            }
          }));
  run.check("feed length", fed, in.graph.num_edges());

  WindowReplay wr;
  {
    ScopedSpan span(run.spans.get(), "stream.window_replay", -1);
    wr = window_replay(in);
  }
  for (std::size_t lane = 0; lane < in.lanes.size(); ++lane) {
    run.check("serial window replay lane", wr.cycles[lane],
              in.references[lane]);
  }
  run.set("stream.window_s", wr.window_s);
  run.set("stream.search_serial_s", wr.search_s);
  // Derived, approximate: batch time not explained by window maintenance or
  // by the serial search cost spread perfectly over the workers.
  run.set("stream.dispatch_approx_s",
          busy_s - wr.window_s - wr.search_s / kStreamWorkers);
  std::cerr << "perfbench: edges_visited engine=" << stats.work.edges_visited
            << " serial_replay=" << wr.edges_visited << "\n";

  // The same replay on 4 workers; the scheduler layer's counters come from
  // it, since one worker never steals.
  run.set("sched.fine_1w_s",
          med([](const ReplayResult& r) { return r.replay_s; }, true));
  Scheduler::with_pool(kWorkers, [&](Scheduler& sched) {
    ScopedSpan span(run.spans.get(), "stream.4w_edges_per_s", -1);
    sched.reset_stats();
    const ReplayResult four = replay(run, in, sched, nullptr, -1, buf);
    set_sched_metrics(run, {sample_scheduler(sched, four.replay_s)});
    run.set("stream.4w_edges_per_s", edges_per_s(four));
    run.set("sched.speedup",
            edges_per_s(four) / med(edges_per_s, true));
  });
}

// -- Entry point ------------------------------------------------------------

constexpr const char* kUsage =
    "usage: perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]\n"
    "                 [--size full|tiny] [--work-dir DIR]\n"
    "                 [--reference-offset K]\n"
    "workloads: temporal-batch simple-batch stream-dense stream-sparse\n";

void print_result(const Run& run) {
  std::ostringstream out;
  out << "{\"correct\": " << (run.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
      << ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricName& m) {
    const auto it = run.metrics.find(m.name);
    double value = it == run.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      value = 0.0;
    }
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    out << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
        << number << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  };
  if (run.trace) {
    for (const MetricName& m : kPerLayer) {
      emit(m);
    }
  } else {
    for (const MetricName& m : kEndToEnd) {
      emit(m);
    }
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (arg == "--workload" && has_value) {
      run.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      run.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      run.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      run.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--size" && has_value) {
      run.tiny = std::string(argv[++i]) == "tiny";
    } else if (arg == "--work-dir" && has_value) {
      run.work_dir = argv[++i];
    } else if (arg == "--reference-offset" && has_value) {
      run.reference_offset = std::atoll(argv[++i]);
    } else {
      std::cerr << "unknown or incomplete option: " << arg << "\n" << kUsage;
      return 2;
    }
  }
  static const std::map<std::string, std::function<void(Run&)>> kWorkloads = {
      {"temporal-batch", run_temporal_batch},
      {"simple-batch", run_simple_batch},
      {"stream-dense", [](Run& r) { run_stream(r, /*dense=*/true); }},
      {"stream-sparse", [](Run& r) { run_stream(r, /*dense=*/false); }},
  };
  const auto workload = kWorkloads.find(run.workload);
  if (workload == kWorkloads.end() || !have_seed || run.seconds <= 0) {
    std::cerr << kUsage;
    return 2;
  }
  if (run.work_dir.empty()) {
    run.work_dir = ".";
  }
  std::filesystem::create_directories(run.work_dir);
  if (run.trace) {
    run.spans = std::make_unique<SpanLog>();
  }
  std::cerr << "perfbench: environment nproc="
            << std::thread::hardware_concurrency() << " workers=" << kWorkers
            << " stream_workers=" << kStreamWorkers
            << " compiler=\"" << __VERSION__
            << "\" build_type=" << PERFBENCH_BUILD_TYPE
            << " frame_pointers=" << PERFBENCH_FRAME_POINTERS
#ifdef NDEBUG
            << " asserts=off"
#else
            << " asserts=on"
#endif
            << " workload=" << run.workload << " seed=" << run.seed
            << " seconds=" << run.seconds << " trace=" << run.trace << "\n";

  try {
    workload->second(run);
  } catch (const std::exception& ex) {
    std::cerr << "perfbench: " << run.workload << " failed: " << ex.what()
              << "\n";
    return 1;
  }
  run.set("peak_rss_mb", peak_rss_mb());
  run.set("error_rate", run.attempted == 0
                            ? 0.0
                            : static_cast<double>(run.failed) /
                                  static_cast<double>(run.attempted));
  if (run.spans != nullptr) {
    const std::string span_path = path_in(run, "-spans.json");
    if (!run.spans->write_json(span_path, run.workload)) {
      std::cerr << "perfbench: cannot write " << span_path << "\n";
      return 1;
    }
    std::cerr << "perfbench: spans -> " << span_path << "\n";
  }
  print_result(run);
  return run.failed == 0 && run.attempted > 0 ? 0 : 1;
}
