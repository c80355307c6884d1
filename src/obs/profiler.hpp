// In-process sampling stack profiler.
//
// One fixed-capacity ring of stack samples per worker, preallocated at
// construction, mirroring TraceRecorder's ownership design: samples are
// written exclusively by the owning worker — here from a SIGPROF handler
// that interrupts the worker on its own thread — so sampling adds ZERO
// shared cache-line traffic to the scheduler hot path. A disabled profiler
// allocates nothing and reduces every control call to one predictable
// branch; with no profiler attached the scheduler's per-task path is
// untouched (the attach hook runs once per thread lifetime, not per task).
//
// Mechanics: each attached thread gets a POSIX per-thread timer
// (timer_create with SIGEV_THREAD_ID) driven by either the thread's CPU
// clock (classic profiling: only on-CPU time accrues samples) or
// CLOCK_MONOTONIC (wall sampling: parked threads show their wait stacks,
// which is what /profilez wants on an idle service). The SIGPROF handler is
// async-signal-safe: it reads the interrupted context's PC and frame
// pointer from the ucontext, walks the frame-pointer chain within the
// thread's stack bounds, and appends the PCs into the owner ring — no
// allocation, no locks, no clock reads. Symbolization (dladdr + demangle)
// is deferred to export, which renders flamegraph.pl collapsed-stack
// format: `frame;frame;frame count`, root first, preceded by one
// `# parcycle-profile taken=.. dropped=..` header line that
// scripts/profile_summary.py cross-checks against the sample lines.
//
// The ring is saturating rather than wrapping: a full ring counts further
// samples as dropped instead of overwriting, so the exported total always
// equals the taken counter — the invariant the CI acceptance check pins.
//
// ThreadSanitizer intercepts signal delivery and defers handlers to
// sync points, which breaks the "sample the interrupted PC" contract, so
// supported() reports false under TSan and start() refuses with an explicit
// reason — tests assert that state rather than silently skipping.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/scheduler.hpp"

namespace parcycle {

namespace detail {
// Per-worker sample ring; defined in profiler.cpp (the SIGPROF handler, a
// free function there, writes into it through a thread_local pointer).
struct ProfileRing;
}  // namespace detail

// Which clock drives the per-thread sample timers.
enum class ProfileClock : std::uint8_t {
  kThreadCpu,  // samples accrue only while the thread is on-CPU
  kWall,       // samples accrue in wall time (idle threads show wait stacks)
};

const char* profile_clock_name(ProfileClock clock) noexcept;

struct ProfilerOptions {
  // Sampling rate per thread. Prime by default so the sampler cannot run in
  // lockstep with millisecond-periodic work (feed loops, sampler ticks).
  int sample_hz = 97;
  ProfileClock clock = ProfileClock::kThreadCpu;
  // Samples retained per worker; the ring saturates (drops) beyond this.
  std::size_t capacity_per_worker = 8192;
  // Deepest stack recorded per sample (deeper frames are cut off).
  std::size_t max_frames = 64;
};

class StackProfiler final : public WorkerThreadObserver {
 public:
  static constexpr std::size_t kMaxFrames = 64;

  // False when the platform cannot deliver per-thread SIGPROF samples
  // (non-Linux, or ThreadSanitizer's deferred signal delivery). A
  // non-supported profiler still accepts record_raw_sample (format/export
  // tests run everywhere); only timer-driven sampling is refused.
  static bool supported() noexcept;

  // Rings are allocated only when `enabled`; a disabled profiler is inert
  // and free, like a disabled TraceRecorder.
  explicit StackProfiler(unsigned num_workers, ProfilerOptions options = {},
                         bool enabled = true);
  ~StackProfiler() override;

  StackProfiler(const StackProfiler&) = delete;
  StackProfiler& operator=(const StackProfiler&) = delete;

  bool enabled() const noexcept { return enabled_; }
  unsigned num_workers() const noexcept { return num_workers_; }
  const ProfilerOptions& options() const noexcept { return options_; }

  // -- Worker-thread registry hooks (Scheduler calls these on the worker's
  // own thread via SchedulerOptions::thread_observer) ----------------------
  void on_worker_start(unsigned worker) noexcept override;
  void on_worker_stop(unsigned worker) noexcept override;

  // -- Sampling control (any thread; serialized internally) ----------------

  // Arms every attached thread's timer. Returns false (and fills *error)
  // when disabled or unsupported. Idempotent while sampling.
  bool start(std::string* error = nullptr);
  // Disarms the timers; ring contents and counters are retained for export.
  void stop();
  bool sampling() const noexcept {
    return sampling_.load(std::memory_order_acquire);
  }
  // Resets counters and ring contents. Call while not sampling.
  void clear();

  // Timed capture for /profilez: restarts the sample window, sleeps for
  // `seconds`, stops, and returns the collapsed text. If a continuous
  // capture was running it is resumed afterwards (its window restarts — the
  // exported totals stay consistent with the taken counter).
  std::string timed_capture(double seconds);

  // -- Counters (exact after stop(); live reads are approximate) -----------
  std::uint64_t samples_taken(unsigned worker) const noexcept;
  std::uint64_t samples_dropped(unsigned worker) const noexcept;
  std::uint64_t total_taken() const noexcept;
  std::uint64_t total_dropped() const noexcept;

  // The rate the timers actually fired at: samples (taken + dropped) per
  // second that the sampled threads' clocks advanced while armed — CPU
  // seconds for kThreadCpu, wall seconds for kWall. Below the requested
  // sample_hz when the kernel's timer resolution is coarser (thread CPU
  // timers tick with the scheduler); 0 before any armed time. A read while
  // sampling includes the spans still open. stop() warns on stderr when it
  // is below half the requested rate.
  double effective_hz() const;

  // -- Export (call while not sampling) ------------------------------------

  // flamegraph.pl collapsed-stack text: one `# parcycle-profile ...` header
  // line, then `root;..;leaf count` lines aggregated across workers. The
  // header keys (taken, dropped, hz, effective_hz, clock, workers) are what
  // scripts/profile_summary.py cross-checks.
  std::string collapsed() const;
  bool write_collapsed_file(const std::string& path,
                            std::string* error = nullptr) const;

  // Signal-handler-shaped raw append (leaf PC first), exposed so format and
  // saturation tests can inject known stacks without timer machinery. No-op
  // when disabled.
  void record_raw_sample(unsigned worker, void* const* pcs,
                         std::size_t depth) noexcept;

 private:
  void arm_slot_locked(unsigned worker);
  void disarm_slot_locked(unsigned worker);
  double effective_hz_locked() const;

  unsigned num_workers_;
  ProfilerOptions options_;
  bool enabled_;
  std::vector<std::unique_ptr<detail::ProfileRing>> rings_;
  std::atomic<bool> sampling_{false};
  // Serializes start/stop/clear/timed_capture against each other (the
  // /profilez handler runs on the serving thread while main owns the
  // continuous capture).
  mutable std::mutex control_mutex_;
};

// Writes the profiler's collapsed stacks to `path` on scope exit (after the
// profiled pool tore down, when counters are final) and prints a one-line
// `profile: taken=.. dropped=.. -> path` receipt. Declare BEFORE the
// Scheduler, like ScopedTraceExport, so the export runs after the pool's
// destructor. Empty path = inert.
class ScopedProfileExport {
 public:
  ScopedProfileExport(StackProfiler& profiler, std::string path)
      : profiler_(profiler), path_(std::move(path)) {}
  ~ScopedProfileExport();

  ScopedProfileExport(const ScopedProfileExport&) = delete;
  ScopedProfileExport& operator=(const ScopedProfileExport&) = delete;

 private:
  StackProfiler& profiler_;
  std::string path_;
};

}  // namespace parcycle
