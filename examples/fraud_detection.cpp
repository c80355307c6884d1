// Fraud-detection scenario (the paper's motivating application): find
// temporal cycles in a synthetic payment network — money leaving an account
// and returning to it through a chain of time-ordered transfers is a strong
// money-laundering / circular-trading signal.
//
//   ./examples/fraud_detection [num_accounts] [num_transfers] [max_hops]
//                              [--monitor] [--feed-delay-us U]
//                              [--inject <spec>] [--overload-high N]
//                              [service flags: obs/stream_service.hpp]
//
// Two scans are run: a temporal-cycle scan (transfers strictly time-ordered
// around the ring — the paper's laundering signal) and a hop-constrained
// BC-DFS scan for short rings regardless of transfer order (max_hops edges, a
// superset of the temporal rings of that length — the screening query an
// analyst widens to).
//
// With --monitor the example additionally runs the fraud-monitor mode: the
// same transfers are replayed as a live feed through the streaming engine
// (src/stream/engine.hpp), raising an alert the moment each laundering ring
// closes instead of waiting for a batch scan — the deployment shape of the
// paper's motivating application.
//
// The monitor runs inside a StreamService, so it is restartable: --snapshot
// <path> persists the engine state every --snapshot-every transfers (default
// 2000) and at completion, using two rotated generations (<path>.1/<path>.2)
// behind a last-good pointer file at <path>, and a SIGTERM or SIGINT
// mid-feed finishes the in-flight transfer, writes a final snapshot and
// exits with status 3. --restore
// <path> resumes a killed monitor from its snapshot — no replay of
// already-processed transfers, falling back to the previous generation when
// the latest one is corrupt — and the combined alert total must still equal
// the uninterrupted batch scan (CI kills and resumes the monitor to assert
// exactly that). --feed-delay-us throttles the feed so a signal reliably
// lands mid-stream.
//
// --inject arms the deterministic fault injector (robust/fault_injection.hpp)
// for chaos runs: e.g. --inject "sink_throw:every=3;snapshot_bitflip:every=1"
// makes every third alert delivery throw downstream and corrupts every
// snapshot data file as it is written. Injection also switches the alert
// sink behind the GuardedSink isolation layer and relaxes the final
// stream-vs-batch equality into a conservation check (pushed == ingested +
// late + shed), since shed or truncated work legitimately loses rings.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_support/cli.hpp"
#include "core/fine_hc_dfs.hpp"
#include "graph/generators.hpp"
#include "obs/stream_service.hpp"
#include "robust/fault_injection.hpp"
#include "stream/engine.hpp"
#include "support/stats.hpp"
#include "temporal/temporal_johnson.hpp"

namespace {

// Thread-safe alert sink for the monitor mode: prints the first few closed
// rings in full and counts the rest.
class AlertSink final : public parcycle::CycleSink {
 public:
  explicit AlertSink(const parcycle::TemporalGraph& payments,
                     std::size_t max_printed)
      : payments_(payments), max_printed_(max_printed) {}

  void on_cycle(std::span<const parcycle::VertexId> vertices,
                std::span<const parcycle::EdgeId> edges) override {
    std::lock_guard<std::mutex> guard(mutex_);
    alerts_ += 1;
    if (alerts_ > max_printed_) {
      return;
    }
    // The closing hop is reported last: its timestamp is the moment the
    // ring completed — the alert time.
    const parcycle::Timestamp closed_at = payments_.edge(edges.back()).ts;
    std::cout << "  ALERT t=" << closed_at << ": ring of "
              << vertices.size() << " accounts:";
    for (const auto account : vertices) {
      std::cout << " " << account;
    }
    std::cout << " -> " << vertices.front() << "\n";
  }

  std::uint64_t alerts() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return alerts_;
  }

 private:
  const parcycle::TemporalGraph& payments_;
  const std::size_t max_printed_;
  mutable std::mutex mutex_;
  std::uint64_t alerts_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace parcycle;
  if (help_requested(argc, argv,
                     "usage: fraud_detection [num_accounts] [num_transfers] "
                     "[max_hops] [--monitor]\n"
                     "  [--feed-delay-us U] [--inject <spec>] "
                     "[--overload-high N] [service flags]\n"
                     "Finds temporal cycles plus hop-constrained (<= max_hops "
                     "edges, order-agnostic) rings in a synthetic payment "
                     "network (defaults: 2000 accounts, 20000 transfers, 4 "
                     "hops).\n--monitor additionally replays the transfers as "
                     "a live stream through the incremental engine,\nraising "
                     "per-ring alerts the moment they close; the service "
                     "flags below act on that feed\n(--snapshot, --restore "
                     "and the signal path make it restartable). "
                     "--feed-delay-us throttles\nthe feed so a signal lands "
                     "mid-stream.\n--inject arms deterministic fault "
                     "injection, e.g.\n  --inject \"sink_throw:every=3;"
                     "snapshot_bitflip:every=1;feed_stall:every=500,"
                     "param=2000\"\n(points: slab_grow sink_throw sink_delay "
                     "snapshot_truncate snapshot_bitflip\nfeed_stall "
                     "feed_burst; keys: every/after/limit/param/prob). "
                     "--overload-high sets the\nbuffered-arrival watermark "
                     "where the engine's overload ladder starts degrading.\n"
                     "\nexit codes:\n"
                     "  0  success (monitor total matches the batch scan, or "
                     "conservation holds\n     under injection)\n"
                     "  1  runtime failure: monitor/batch mismatch, metrics "
                     "drift, restore or IO error\n"
                     "  2  invalid arguments (bad sizes, flags or --inject "
                     "spec)\n"
                     "  3  graceful shutdown: SIGTERM/SIGINT received, final "
                     "snapshot written\n\n")) {
    std::cout << kServiceObsUsage << kServiceEngineUsage;
    return 0;
  }

  bool monitor = false;
  long feed_delay_us = 0;
  std::string inject_spec;
  std::size_t overload_high = SIZE_MAX;
  ServiceOptions service_options;
  std::string flag_error;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (parse_service_flag(argc, argv, i, service_options, &flag_error)) {
      continue;
    }
    if (std::strcmp(argv[i], "--monitor") == 0) {
      monitor = true;
    } else if (std::strcmp(argv[i], "--feed-delay-us") == 0 && i + 1 < argc) {
      feed_delay_us = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--inject") == 0 && i + 1 < argc) {
      inject_spec = argv[++i];
    } else if (std::strcmp(argv[i], "--overload-high") == 0 && i + 1 < argc) {
      overload_high = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (!flag_error.empty()) {
    std::cerr << "invalid arguments: " << flag_error << "\n";
    return 2;
  }
  // Armed before anything else so every named point in the run — slab
  // growth, sink delivery, snapshot writes, the feed loop — sees it. Static
  // storage: the injector must outlive the engine and the scheduler.
  static FaultInjector injector(/*seed=*/2024);
  if (!inject_spec.empty()) {
    std::string inject_error;
    if (!injector.arm_from_spec(inject_spec, &inject_error)) {
      std::cerr << "invalid --inject spec: " << inject_error << "\n";
      return 2;
    }
    FaultInjector::install(&injector);
  }
  // Parse signed first so negative inputs are rejected instead of wrapping
  // through the unsigned graph-size types.
  const long accounts_arg =
      positional.size() > 0 ? std::atol(positional[0]) : 2000;
  const long transfers_arg =
      positional.size() > 1 ? std::atol(positional[1]) : 20000;
  const int max_hops = positional.size() > 2 ? std::atoi(positional[2]) : 4;
  if (accounts_arg < 2 || transfers_arg < 1 || max_hops < 1) {
    std::cerr << "invalid arguments: need num_accounts >= 2, num_transfers "
                 ">= 1, max_hops >= 1\n";
    return 2;
  }
  const VertexId accounts = static_cast<VertexId>(accounts_arg);
  const std::size_t transfers = static_cast<std::size_t>(transfers_arg);

  // Synthetic payment network: heavy-tailed activity (a few busy accounts),
  // bursty timestamps — the shape of real transaction graphs.
  ScaleFreeTemporalParams params;
  params.num_vertices = accounts;
  params.num_edges = transfers;
  params.time_span = 30L * 24 * 3600;  // one month of seconds
  params.attachment = 0.75;
  params.burstiness = 0.6;
  params.seed = 2024;
  const TemporalGraph payments = scale_free_temporal(params);

  const Timestamp window = 48 * 3600;  // cycles completing within 48 hours
  std::cout << "payment network: " << payments.num_vertices() << " accounts, "
            << payments.num_edges() << " transfers over "
            << payments.time_span() / (24 * 3600) << " days\n"
            << "searching temporal cycles within a 48h window...\n\n";

  // Short cycles are the interesting ones for an analyst: cap the length.
  EnumOptions options;
  options.max_cycle_length = 6;

  CollectingSink sink;
  // The monitor's sink outlives the service: a guarded hand-off may still
  // deliver queued alerts while the service tears its engine down.
  AlertSink alerts(payments, /*max_printed=*/5);
  // The service owns the pool, so the batch scans below are traced and
  // profiled too; the monitor's messages go to stdout as "monitor: ...".
  StreamService service(service_options, 4, "fraud_detection", std::cout,
                        "monitor");
  if (const int rc = service.start()) {
    return rc;
  }
  Scheduler& sched = service.scheduler();
  const EnumResult result =
      fine_temporal_johnson_cycles(payments, window, sched, options, {}, &sink);

  std::cout << "suspicious cycles found: " << result.num_cycles << "\n";

  // Rank accounts by how many cycles they participate in.
  std::map<VertexId, std::size_t> involvement;
  std::map<std::size_t, std::size_t> length_histogram;
  for (const CycleRecord& cycle : sink.sorted_cycles()) {
    length_histogram[cycle.vertices.size()] += 1;
    for (const VertexId account : cycle.vertices) {
      involvement[account] += 1;
    }
  }
  std::cout << "cycle length histogram:\n";
  for (const auto& [length, count] : length_histogram) {
    std::cout << "  length " << length << ": " << count << "\n";
  }

  std::vector<std::pair<std::size_t, VertexId>> ranked;
  ranked.reserve(involvement.size());
  for (const auto& [account, count] : involvement) {
    ranked.emplace_back(count, account);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  std::cout << "top accounts by cycle involvement:\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(5, ranked.size()); ++i) {
    std::cout << "  account " << ranked[i].second << ": " << ranked[i].first
              << " cycles\n";
  }

  // Widened screening query: short rings regardless of transfer order,
  // enumerated by the dedicated hop-constrained subsystem (BC-DFS).
  std::cout << "\nscreening for order-agnostic rings of at most " << max_hops
            << " hops in the same window...\n";
  WallTimer timer;
  const EnumResult rings =
      fine_hc_windowed_cycles(payments, window, max_hops, sched);
  std::cout << "rings found: " << rings.num_cycles << " ("
            << rings.work.edges_visited << " edge visits, "
            << timer.elapsed_seconds() << "s)\n"
            << "every time-ordered cycle of that length is among these; the "
               "extras are candidate\nstructuring patterns that a pure "
               "temporal scan misses.\n";

  if (!monitor) {
    return 0;
  }

  // Fraud-monitor mode: the same transfer feed, consumed as it happens. The
  // streaming engine detects each ring from its closing transfer, so an
  // analyst is paged while the money is still moving — and the total must
  // equal the batch scan above.
  std::cout << "\n=== fraud monitor: replaying the transfer feed live "
               "(window 48h, rings <= " << options.max_cycle_length
            << " hops) ===\n";
  const bool injecting = !inject_spec.empty();
  StreamOptions stream_options;
  stream_options.window = window;
  stream_options.max_cycle_length = options.max_cycle_length;
  stream_options.num_vertices_hint = payments.num_vertices();
  stream_options.overload_high_watermark = overload_high;
  // A chaos run isolates the alert sink behind the guarded hand-off so an
  // injected sink fault costs alerts, never the engine; plain runs keep the
  // direct synchronous path (and its exact legacy totals).
  stream_options.guard_sinks = injecting;
  if (const int rc = service.open(stream_options, &alerts)) {
    return rc;
  }
  StreamEngine& engine = service.engine();
  WallTimer feed_timer;
  try {
    const std::uint64_t resume_at = service.resume();
    feed_timer.reset();
    const auto feed = payments.edges_by_time();
    std::uint64_t burst_remaining = 0;
    for (std::uint64_t i = resume_at; i < feed.size(); ++i) {
      const auto& transfer = feed[i];
      engine.push(transfer.src, transfer.dst, transfer.ts);
      // Feed-shape faults: a stall freezes the producer for `param`
      // microseconds; a burst delivers the next `param` transfers
      // back-to-back, ignoring the configured pacing — the arrival patterns
      // the overload ladder exists to absorb.
      std::uint64_t fault_param = 0;
      if (FaultInjector::should_fire(FaultPoint::kFeedStall, &fault_param)) {
        std::this_thread::sleep_for(std::chrono::microseconds(fault_param));
      }
      if (FaultInjector::should_fire(FaultPoint::kFeedBurst, &fault_param)) {
        burst_remaining = fault_param;
      }
      if (burst_remaining > 0) {
        burst_remaining -= 1;
      } else if (feed_delay_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(feed_delay_us));
      }
      if (service.after_push()) {
        return 3;
      }
    }
    engine.flush();
  } catch (const std::exception& error) {
    std::cerr << "monitor error: " << error.what() << "\n";
    return 1;
  }
  // For a restored run this times the replayed suffix only — informational.
  // Taken before finish(), whose linger is serving time, not ingest time.
  const double feed_seconds = feed_timer.elapsed_seconds();
  if (const int rc = service.finish()) {
    return rc;
  }
  const StreamStats stream_stats = engine.stats();
  if (alerts.alerts() > 5) {
    std::cout << "  ... and " << alerts.alerts() - 5 << " more alerts\n";
  }
  std::cout << "monitor: " << stream_stats.cycles_found << " rings from "
            << stream_stats.edges_ingested << " transfers in " << feed_seconds
            << "s (" << static_cast<std::uint64_t>(
                            static_cast<double>(stream_stats.edges_ingested) /
                            std::max(feed_seconds, 1e-12))
            << " transfers/s, per-transfer p50 "
            << stream_stats.latency_p50_ns << "ns, p99 "
            << stream_stats.latency_p99_ns << "ns, "
            << stream_stats.escalated_edges << " escalated)\n";
  if (injecting) {
    // Shed arrivals and budget-truncated searches legitimately lose rings, so
    // a chaos run cannot demand stream == batch. What it CAN demand: every
    // arrival is accounted for (pushed = ingested + late + shed), the engine
    // never over-reports, and every degradation left a counter trail.
    const std::uint64_t shed = stream_stats.edges_shed;
    const std::uint64_t late = stream_stats.late_edges_rejected;
    const bool conserved = stream_stats.edges_pushed ==
                           stream_stats.edges_ingested + late + shed;
    const bool no_overcount = stream_stats.cycles_found <= result.num_cycles;
    const bool losses_explained =
        stream_stats.cycles_found == result.num_cycles || shed > 0 ||
        stream_stats.work.searches_truncated > 0 ||
        stream_stats.search_errors > 0;
    std::cout << "monitor (chaos): " << shed << " shed, " << late << " late, "
              << stream_stats.work.searches_truncated << " truncated, "
              << stream_stats.search_errors << " search errors, "
              << stream_stats.sink_errors << " sink errors, "
              << stream_stats.sink_dropped << " sink drops, "
              << stream_stats.overload_shifts << " overload shifts (level "
              << overload_level_name(stream_stats.overload_level) << ")\n";
    if (conserved && no_overcount && losses_explained) {
      std::cout << "monitor total is conserved under injected faults ("
                << stream_stats.cycles_found << "/" << result.num_cycles
                << " rings).\n";
      return 0;
    }
    std::cerr << "MONITOR MISMATCH under injection: conserved=" << conserved
              << " no_overcount=" << no_overcount
              << " losses_explained=" << losses_explained << " (stream "
              << stream_stats.cycles_found << " vs batch "
              << result.num_cycles << ")\n";
    return 1;
  }
  if (stream_stats.cycles_found == result.num_cycles) {
    std::cout << "monitor total matches the batch temporal scan.\n";
    return 0;
  }
  std::cerr << "MONITOR MISMATCH: stream found " << stream_stats.cycles_found
            << " rings but the batch scan found " << result.num_cycles << "\n";
  return 1;
}
