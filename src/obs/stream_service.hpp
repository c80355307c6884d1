// One runtime wiring for the binaries that run a StreamEngine or want its
// observability surface: tracer, profiler, hardware counter groups, the
// Scheduler they observe, and — around an engine — the time-series sampler,
// the introspection server, rotated snapshots, metrics dumps and graceful
// SIGTERM/SIGINT handling.
//
// Each binary keeps its own flags and its feed loop:
//
//   ServiceOptions service_options;
//   std::string error;
//   for (int i = 1; i < argc; ++i) {
//     if (parse_service_flag(argc, argv, i, service_options, &error)) continue;
//     ...  // the binary's own flags
//   }
//   if (!error.empty()) { std::cerr << "error: " << error << "\n"; return 2; }
//   MySink sink;  // outlives the service
//   StreamService service(service_options, threads, "my_binary");
//   if (const int rc = service.start()) return rc;
//   if (const int rc = service.open(stream_options, sink)) return rc;
//   StreamEngine& engine = service.engine();
//   for (std::uint64_t i = service.resume(); i < n; ++i) {
//     engine.push(...);
//     if (service.after_push()) return 3;
//   }
//   return service.finish();
//
// resume() and after_push() throw what restore and snapshot writes throw;
// the feed loop's own error handling covers them.
//
// Without --trace-out, --profile-out or --serve no observer is attached and
// no span is recorded: the scheduler and the engine run exactly as if the
// service were absent.
#pragma once

#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "stream/engine.hpp"
#include "support/scheduler.hpp"

namespace parcycle {

class IntrospectionServer;
class TimeSeriesSampler;

// Usage text of the shared flags, printed after each binary's own usage.
// kServiceObsUsage covers the flags every service takes; the engine block
// only applies to binaries that run a StreamEngine through open().
inline constexpr const char* kServiceObsUsage =
    "service flags (observability):\n"
    "  --trace-out <file>       per-worker spans as Chrome trace_event JSON, "
    "written on exit\n"
    "  --profile-out <file>     whole-run stack samples as flamegraph.pl "
    "collapsed text, written on exit\n"
    "  --profile-hz N           per-thread sampling rate, 1..10000 (default "
    "97)\n"
    "  --profile-clock cpu|wall sample thread CPU time or wall time "
    "(default cpu; wall when serving only)\n";

inline constexpr const char* kServiceEngineUsage =
    "service flags (stream engine):\n"
    "  --serve[=port]           HTTP introspection on 127.0.0.1 (/metrics "
    "/statusz /healthz /tracez\n"
    "                           /profilez); port 0 = ephemeral, printed on "
    "stderr\n"
    "  --slo <spec>             objectives per sampler tick, e.g. "
    "\"p99_search_ns<2000000;shed_fraction<0.05@0.1\"\n"
    "  --adaptive-budget K      degraded search budget = K x rolling p99 "
    "while overloaded (0 = off)\n"
    "  --serve-linger-ms M      keep serving M ms after the feed ends\n"
    "  --snapshot <path>        rotated snapshots (<path>.1/.2 behind a "
    "pointer file); SIGTERM/SIGINT\n"
    "                           writes a final one and exits 3\n"
    "  --snapshot-every N       snapshot every N pushed edges (default 2000)\n"
    "  --restore <path>         resume from a snapshot (rotated or plain) "
    "without replay\n"
    "  --metrics-out <file>     Prometheus text dump at exit, cross-checked "
    "against the engine\n"
    "  --metrics-every-ms M     also dump every M ms of wall time during the "
    "feed\n";

// Exactly the shared flags; defaults are the flags' defaults.
struct ServiceOptions {
  std::string trace_path;             // --trace-out
  std::string profile_path;           // --profile-out
  long profile_hz = 0;                // --profile-hz (0 = library default)
  std::string profile_clock;          // --profile-clock: "", "cpu", "wall"
  bool serve = false;                 // --serve[=port]
  long serve_port = 0;                // 0 = ephemeral
  std::string slo_spec;               // --slo
  double adaptive_budget = 0.0;       // --adaptive-budget
  long serve_linger_ms = 0;           // --serve-linger-ms
  std::string snapshot_path;          // --snapshot
  std::optional<std::uint64_t> snapshot_every;  // --snapshot-every (2000)
  std::string restore_path;           // --restore
  std::string metrics_path;           // --metrics-out
  std::uint64_t metrics_every_ms = 0;  // --metrics-every-ms (0 = exit only)

  // True when a flag that needs a StreamEngine (everything except the
  // trace and profile flags) was given.
  bool uses_engine() const;

  // For binaries that run no StreamEngine: when uses_engine(), leaves an
  // error naming the flags that do apply in *error (unless one is there).
  void require_obs_only(std::string* error) const;
};

// Parses argv[i] when it is a shared flag: advances i past its value and
// returns true. A missing or invalid value leaves a message in *error (the
// first one wins) and still returns true. Returns false for any other
// argument.
bool parse_service_flag(int argc, char** argv, int& i, ServiceOptions& options,
                        std::string* error);

class StreamService {
 public:
  // Messages go to `log` as "<log_tag>: ..."; the serve banner and errors
  // always go to stderr. `process_name` names the trace's process track.
  StreamService(ServiceOptions options, unsigned workers,
                std::string process_name, std::ostream& log = std::cerr,
                std::string log_tag = "stream");
  ~StreamService();

  StreamService(const StreamService&) = delete;
  StreamService& operator=(const StreamService&) = delete;

  // Starts the whole-run profile when --profile-out is set. Returns 0, or 1
  // after printing an error.
  int start();

  Scheduler& scheduler() { return sched_; }

  // Builds the engine and, with --serve, starts the sampler, registers the
  // five handlers and prints the banner. Returns 0, 2 for options the
  // engine rejects, or 1 when the server cannot start. `sink` must outlive
  // the service: the engine may still report to it while it is destroyed.
  int open(const StreamOptions& options, CycleSink* sink);
  StreamEngine& engine() { return *engine_; }

  // Restores --restore (rotated or plain) and returns the count of edges it
  // already holds: the feed resumes there. Arms the signal handlers when
  // --snapshot is set and starts the --metrics-every-ms clock.
  std::uint64_t resume();

  // Snapshot cadence, wall-clock metrics cadence and the signal check after
  // each push. True means a signal arrived and a final snapshot was written:
  // the caller exits 3.
  bool after_push();

  // Flush, final snapshot, linger, final metrics dump and its cross-check
  // against StreamStats / WorkerStats. Returns 0, or 1 on any failure.
  int finish();

  // Bound introspection port after open() with --serve, else 0.
  std::uint16_t port() const;

 private:
  SchedulerOptions scheduler_options();
  bool dump_metrics();
  bool metrics_match();

  ServiceOptions options_;
  std::ostream& log_;
  std::string tag_;
  // Members are destroyed in reverse declaration order: the server and
  // sampler go first (their handlers render the engine and the rings), then
  // the engine, then the pool — whose destructor records worker 0's last
  // span and detaches the observers — and only then the export guards,
  // which read rings and counters that are final by then.
  TraceRecorder recorder_;
  ScopedTraceExport trace_export_;
  StackProfiler profiler_;
  PerfCounterGroups perf_;
  WorkerObserverChain observers_;
  ScopedProfileExport profile_export_;
  Scheduler sched_;
  MetricsRegistry metrics_;
  std::unique_ptr<StreamEngine> engine_;
  std::unique_ptr<TimeSeriesSampler> sampler_;
  std::unique_ptr<IntrospectionServer> server_;
  std::uint64_t next_metrics_ns_ = 0;
  bool signals_armed_ = false;
  void (*prev_sigterm_)(int) = nullptr;
  void (*prev_sigint_)(int) = nullptr;
};

}  // namespace parcycle
