#include "obs/profiler.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <thread>
#include <unordered_map>

#include "support/tsan.hpp"

#if defined(__linux__)
#define PARCYCLE_PROFILER_PLATFORM 1
#else
#define PARCYCLE_PROFILER_PLATFORM 0
#endif

#if PARCYCLE_PROFILER_PLATFORM
#include <cxxabi.h>
#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

// glibc spells the SIGEV_THREAD_ID target field differently across
// versions; newer ones provide this macro themselves.
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif
#endif  // PARCYCLE_PROFILER_PLATFORM

namespace parcycle {

namespace detail {

// Owner-write sample ring, cache-line aligned like the scheduler's
// WorkerSlot and TraceRecorder's rings. The SIGPROF handler (running ON the
// owning thread) is the only writer; `taken` is the write cursor, published
// with release so an exporter's acquire load sees every PC of every sample
// below it. The ring saturates instead of wrapping so the exported total
// always equals `taken`.
struct alignas(64) ProfileRing {
  std::vector<void*> pcs;                 // capacity * max_frames, flat
  std::vector<std::uint16_t> depths;      // frames used per sample
  std::size_t capacity = 0;
  std::size_t max_frames = 0;
  std::atomic<std::uint64_t> taken{0};
  std::atomic<std::uint64_t> dropped{0};
  // Gate read by the handler: a queued SIGPROF delivered after disarm (or
  // after timer_delete) must not record.
  std::atomic<bool> armed{false};
  // Frame-pointer walk bounds, captured at attach via pthread_getattr_np.
  std::uintptr_t stack_lo = 0;
  std::uintptr_t stack_hi = 0;
#if PARCYCLE_PROFILER_PLATFORM
  timer_t timer{};
  clockid_t clock_id = CLOCK_MONOTONIC;  // the clock driving `timer`
#endif
  bool timer_created = false;
  bool attached = false;
  // Time the timer's clock advanced while armed, and its reading at the
  // last arm: the denominator of effective_hz(). Control-mutex guarded.
  std::uint64_t armed_ns = 0;
  std::uint64_t armed_since_ns = 0;

  void append(void* const* frames, std::size_t depth) noexcept {
    if (depth == 0) {
      return;
    }
    const std::uint64_t idx = taken.load(std::memory_order_relaxed);
    if (idx >= capacity) {
      dropped.store(dropped.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
      return;
    }
    const std::size_t n = std::min(depth, max_frames);
    void** slot = &pcs[static_cast<std::size_t>(idx) * max_frames];
    for (std::size_t i = 0; i < n; ++i) {
      slot[i] = frames[i];
    }
    depths[static_cast<std::size_t>(idx)] = static_cast<std::uint16_t>(n);
    taken.store(idx + 1, std::memory_order_release);
  }

#if PARCYCLE_PROFILER_PLATFORM
  // Async-signal-safe: plain loads/stores into preallocated memory, no
  // allocation, no locks, no clock reads.
  void sample_from_context(void* ucv) noexcept {
    if (!armed.load(std::memory_order_relaxed)) {
      return;
    }
    const std::uint64_t idx = taken.load(std::memory_order_relaxed);
    if (idx >= capacity) {
      dropped.store(dropped.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
      return;
    }
    std::uintptr_t pc = 0;
    std::uintptr_t fp = 0;
    const auto* uc = static_cast<const ucontext_t*>(ucv);
#if defined(__x86_64__)
    pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
    fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
    pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
    fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
#else
    (void)uc;
#endif
    if (pc == 0) {
      dropped.store(dropped.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
      return;
    }
    void** slot = &pcs[static_cast<std::size_t>(idx) * max_frames];
    std::size_t n = 0;
    slot[n++] = reinterpret_cast<void*>(pc);
    // Frame-pointer chain walk: [fp] = caller's fp, [fp+8] = return address.
    // Every dereference is bounds-checked against the thread's stack and the
    // chain must grow strictly upward, so a frame built without a frame
    // pointer ends the walk instead of faulting.
    std::uintptr_t frame = fp;
    while (n < max_frames && frame >= stack_lo &&
           frame + 2 * sizeof(void*) <= stack_hi &&
           (frame & (sizeof(void*) - 1)) == 0) {
      const auto* record = reinterpret_cast<const std::uintptr_t*>(frame);
      const std::uintptr_t next = record[0];
      const std::uintptr_t ret = record[1];
      if (ret == 0) {
        break;
      }
      slot[n++] = reinterpret_cast<void*>(ret);
      if (next <= frame) {
        break;
      }
      frame = next;
    }
    depths[static_cast<std::size_t>(idx)] = static_cast<std::uint16_t>(n);
    taken.store(idx + 1, std::memory_order_release);
  }
#endif  // PARCYCLE_PROFILER_PLATFORM
};

}  // namespace detail

namespace {

// The handler finds its ring through the sampled thread's own TLS slot, set
// at attach: per-thread routing without any global registry lookup in the
// handler.
thread_local detail::ProfileRing* tl_profile_ring = nullptr;

#if PARCYCLE_PROFILER_PLATFORM

void sigprof_handler(int /*signo*/, siginfo_t* /*info*/, void* ucontext) {
  const int saved_errno = errno;
  detail::ProfileRing* ring = tl_profile_ring;
  if (ring != nullptr) {
    ring->sample_from_context(ucontext);
  }
  errno = saved_errno;
}

void install_sigprof_handler() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction action {};
    action.sa_sigaction = &sigprof_handler;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, nullptr);
  });
}

// Current reading of `clock` (another thread's CPU clock included).
std::uint64_t clock_now_ns(clockid_t clock) {
  timespec now{};
  clock_gettime(clock, &now);
  return static_cast<std::uint64_t>(now.tv_sec) * 1000000000u +
         static_cast<std::uint64_t>(now.tv_nsec);
}

std::string demangled(const char* name) {
  int status = 0;
  char* out = abi::__cxa_demangle(name, nullptr, nullptr, &status);
  std::string result = (status == 0 && out != nullptr) ? out : name;
  std::free(out);
  return result;
}

const char* path_basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

#endif  // PARCYCLE_PROFILER_PLATFORM

void append_hex(std::string& out, std::uintptr_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(value));
  out += buf;
}

// Frame name for one PC. dladdr only sees dynamic-table symbols, which is
// why CMake links executables with ENABLE_EXPORTS (-rdynamic) when
// PARCYCLE_PROFILING is on; without it frames degrade to module+offset.
std::string symbolize(void* pc) {
  std::string out;
#if PARCYCLE_PROFILER_PLATFORM
  Dl_info info{};
  if (dladdr(pc, &info) != 0) {
    if (info.dli_sname != nullptr) {
      out = demangled(info.dli_sname);
      // ';' is the collapsed format's frame separator.
      std::replace(out.begin(), out.end(), ';', ',');
      return out;
    }
    if (info.dli_fname != nullptr) {
      out = path_basename(info.dli_fname);
      out += '+';
      append_hex(out, reinterpret_cast<std::uintptr_t>(pc) -
                          reinterpret_cast<std::uintptr_t>(info.dli_fbase));
      return out;
    }
  }
#endif
  append_hex(out, reinterpret_cast<std::uintptr_t>(pc));
  return out;
}

}  // namespace

const char* profile_clock_name(ProfileClock clock) noexcept {
  switch (clock) {
    case ProfileClock::kThreadCpu:
      return "cpu";
    case ProfileClock::kWall:
      return "wall";
  }
  return "unknown";
}

bool StackProfiler::supported() noexcept {
#if !PARCYCLE_PROFILER_PLATFORM
  return false;
#elif PARCYCLE_TSAN
  // TSan intercepts and defers async signals to synchronization points, so
  // the "PC of the interrupted instruction" contract does not hold (and the
  // runtime flags handler work as signal-unsafe). Explicitly unsupported.
  return false;
#else
  return true;
#endif
}

StackProfiler::StackProfiler(unsigned num_workers, ProfilerOptions options,
                             bool enabled)
    : num_workers_(num_workers == 0 ? 1 : num_workers),
      options_(options),
      enabled_(enabled) {
  options_.sample_hz = std::clamp(options_.sample_hz, 1, 10000);
  options_.capacity_per_worker =
      std::max<std::size_t>(1, options_.capacity_per_worker);
  options_.max_frames = std::clamp<std::size_t>(options_.max_frames, 1,
                                                kMaxFrames);
  if (!enabled_) {
    return;  // no rings, no cost — the TraceRecorder contract
  }
  rings_.reserve(num_workers_);
  for (unsigned w = 0; w < num_workers_; ++w) {
    auto ring = std::make_unique<detail::ProfileRing>();
    ring->capacity = options_.capacity_per_worker;
    ring->max_frames = options_.max_frames;
    ring->pcs.assign(ring->capacity * ring->max_frames, nullptr);
    ring->depths.assign(ring->capacity, 0);
    rings_.push_back(std::move(ring));
  }
}

StackProfiler::~StackProfiler() { stop(); }

void StackProfiler::on_worker_start(unsigned worker) noexcept {
  if (!enabled_ || worker >= rings_.size()) {
    return;
  }
  detail::ProfileRing& ring = *rings_[worker];
  std::lock_guard<std::mutex> lock(control_mutex_);
#if PARCYCLE_PROFILER_PLATFORM
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* stack_addr = nullptr;
    std::size_t stack_size = 0;
    if (pthread_attr_getstack(&attr, &stack_addr, &stack_size) == 0) {
      ring.stack_lo = reinterpret_cast<std::uintptr_t>(stack_addr);
      ring.stack_hi = ring.stack_lo + stack_size;
    }
    pthread_attr_destroy(&attr);
  }
  if (supported()) {
    sigevent sev{};
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev.sigev_notify_thread_id =
        static_cast<pid_t>(::syscall(SYS_gettid));
    clockid_t clock_id = CLOCK_MONOTONIC;
    if (options_.clock == ProfileClock::kThreadCpu &&
        pthread_getcpuclockid(pthread_self(), &clock_id) != 0) {
      clock_id = CLOCK_THREAD_CPUTIME_ID;
    }
    ring.clock_id = clock_id;
    ring.timer_created = timer_create(clock_id, &sev, &ring.timer) == 0;
  }
#endif
  tl_profile_ring = &ring;
  ring.attached = true;
  if (sampling_.load(std::memory_order_relaxed)) {
    arm_slot_locked(worker);
  }
}

void StackProfiler::on_worker_stop(unsigned worker) noexcept {
  if (!enabled_ || worker >= rings_.size()) {
    return;
  }
  detail::ProfileRing& ring = *rings_[worker];
  std::lock_guard<std::mutex> lock(control_mutex_);
  // The thread's CPU clock goes with the thread: close its span now.
  disarm_slot_locked(worker);
#if PARCYCLE_PROFILER_PLATFORM
  if (ring.timer_created) {
    timer_delete(ring.timer);
    ring.timer_created = false;
  }
#endif
  ring.attached = false;
  tl_profile_ring = nullptr;
}

void StackProfiler::arm_slot_locked(unsigned worker) {
  detail::ProfileRing& ring = *rings_[worker];
  if (!ring.timer_created) {
    return;
  }
  ring.armed.store(true, std::memory_order_release);
#if PARCYCLE_PROFILER_PLATFORM
  ring.armed_since_ns = clock_now_ns(ring.clock_id);
  const long interval_ns = 1000000000L / options_.sample_hz;
  itimerspec spec{};
  spec.it_interval.tv_sec = 0;
  spec.it_interval.tv_nsec = interval_ns;
  spec.it_value = spec.it_interval;
  timer_settime(ring.timer, 0, &spec, nullptr);
#endif
}

void StackProfiler::disarm_slot_locked(unsigned worker) {
  detail::ProfileRing& ring = *rings_[worker];
  const bool was_armed = ring.armed.exchange(false, std::memory_order_acq_rel);
#if PARCYCLE_PROFILER_PLATFORM
  if (ring.timer_created) {
    itimerspec spec{};  // zero it_value disarms
    timer_settime(ring.timer, 0, &spec, nullptr);
    if (was_armed) {
      ring.armed_ns += clock_now_ns(ring.clock_id) - ring.armed_since_ns;
    }
  }
#else
  (void)was_armed;
#endif
}

double StackProfiler::effective_hz_locked() const {
  std::uint64_t samples = 0;
  std::uint64_t armed_ns = 0;
  for (const auto& ring : rings_) {
    samples += ring->taken.load(std::memory_order_acquire) +
               ring->dropped.load(std::memory_order_relaxed);
    armed_ns += ring->armed_ns;
#if PARCYCLE_PROFILER_PLATFORM
    // A live read (/statusz during a capture) counts the open span too.
    if (ring->timer_created && ring->armed.load(std::memory_order_acquire)) {
      armed_ns += clock_now_ns(ring->clock_id) - ring->armed_since_ns;
    }
#endif
  }
  return armed_ns == 0 ? 0.0
                       : static_cast<double>(samples) * 1e9 /
                             static_cast<double>(armed_ns);
}

double StackProfiler::effective_hz() const {
  std::lock_guard<std::mutex> lock(control_mutex_);
  return effective_hz_locked();
}

bool StackProfiler::start(std::string* error) {
  if (!enabled_) {
    if (error != nullptr) {
      *error = "profiler is disabled";
    }
    return false;
  }
  if (!supported()) {
    if (error != nullptr) {
#if PARCYCLE_TSAN
      *error =
          "SIGPROF sampling is disabled under ThreadSanitizer (deferred "
          "signal delivery breaks interrupted-PC capture)";
#else
      *error = "per-thread timer sampling is unsupported on this platform";
#endif
    }
    return false;
  }
#if PARCYCLE_PROFILER_PLATFORM
  install_sigprof_handler();
#endif
  std::lock_guard<std::mutex> lock(control_mutex_);
  if (sampling_.load(std::memory_order_relaxed)) {
    return true;
  }
  sampling_.store(true, std::memory_order_release);
  for (unsigned w = 0; w < rings_.size(); ++w) {
    if (rings_[w]->attached) {
      arm_slot_locked(w);
    }
  }
  return true;
}

void StackProfiler::stop() {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(control_mutex_);
  if (!sampling_.load(std::memory_order_relaxed)) {
    return;
  }
  sampling_.store(false, std::memory_order_release);
  for (unsigned w = 0; w < rings_.size(); ++w) {
    disarm_slot_locked(w);
  }
  // A timer cannot fire faster than the kernel's timer resolution for its
  // clock (the scheduler tick, for thread CPU clocks): say so rather than
  // let a profile claim a rate it did not sample at.
  const double effective = effective_hz_locked();
  if (effective > 0.0 && effective < options_.sample_hz / 2.0) {
    std::fprintf(stderr,
                 "profile: warning: sampled at %.1f Hz, below half the "
                 "requested %d Hz\n",
                 effective, options_.sample_hz);
  }
}

void StackProfiler::clear() {
  std::lock_guard<std::mutex> lock(control_mutex_);
  for (auto& ring : rings_) {
    ring->taken.store(0, std::memory_order_release);
    ring->dropped.store(0, std::memory_order_relaxed);
    ring->armed_ns = 0;
  }
}

std::string StackProfiler::timed_capture(double seconds) {
  const bool resume = sampling();
  stop();
  clear();
  std::string error;
  if (!start(&error)) {
    return std::string();
  }
  const double clamped = std::clamp(seconds, 0.05, 60.0);
  std::this_thread::sleep_for(std::chrono::duration<double>(clamped));
  stop();
  std::string out = collapsed();
  if (resume) {
    clear();
    start();
  }
  return out;
}

std::uint64_t StackProfiler::samples_taken(unsigned worker) const noexcept {
  return worker < rings_.size()
             ? rings_[worker]->taken.load(std::memory_order_acquire)
             : 0;
}

std::uint64_t StackProfiler::samples_dropped(unsigned worker) const noexcept {
  return worker < rings_.size()
             ? rings_[worker]->dropped.load(std::memory_order_relaxed)
             : 0;
}

std::uint64_t StackProfiler::total_taken() const noexcept {
  std::uint64_t total = 0;
  for (unsigned w = 0; w < rings_.size(); ++w) {
    total += samples_taken(w);
  }
  return total;
}

std::uint64_t StackProfiler::total_dropped() const noexcept {
  std::uint64_t total = 0;
  for (unsigned w = 0; w < rings_.size(); ++w) {
    total += samples_dropped(w);
  }
  return total;
}

void StackProfiler::record_raw_sample(unsigned worker, void* const* pcs,
                                      std::size_t depth) noexcept {
  if (!enabled_ || worker >= rings_.size()) {
    return;
  }
  rings_[worker]->append(pcs, depth);
}

std::string StackProfiler::collapsed() const {
  // Aggregation and symbolization live here, off the signal path, where
  // allocation is fine. std::map keeps the output deterministic.
  std::map<std::string, std::uint64_t> aggregated;
  std::unordered_map<void*, std::string> symbol_cache;
  std::uint64_t taken_total = 0;
  std::uint64_t dropped_total = 0;
  for (const auto& ring : rings_) {
    const std::uint64_t n = ring->taken.load(std::memory_order_acquire);
    taken_total += n;
    dropped_total += ring->dropped.load(std::memory_order_relaxed);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::size_t depth = ring->depths[static_cast<std::size_t>(i)];
      void* const* frames =
          &ring->pcs[static_cast<std::size_t>(i) * ring->max_frames];
      std::string stack;
      // Captured leaf-first; collapsed format wants root-first.
      for (std::size_t j = depth; j > 0; --j) {
        void* pc = frames[j - 1];
        auto it = symbol_cache.find(pc);
        if (it == symbol_cache.end()) {
          it = symbol_cache.emplace(pc, symbolize(pc)).first;
        }
        if (!stack.empty()) {
          stack += ';';
        }
        stack += it->second;
      }
      if (!stack.empty()) {
        aggregated[stack] += 1;
      }
    }
  }
  std::string out = "# parcycle-profile taken=";
  out += std::to_string(taken_total);
  out += " dropped=";
  out += std::to_string(dropped_total);
  out += " hz=";
  out += std::to_string(options_.sample_hz);
  char effective[32];
  std::snprintf(effective, sizeof effective, " effective_hz=%.1f",
                effective_hz());
  out += effective;
  out += " clock=";
  out += profile_clock_name(options_.clock);
  out += " workers=";
  out += std::to_string(num_workers_);
  out += '\n';
  for (const auto& [stack, count] : aggregated) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

bool StackProfiler::write_collapsed_file(const std::string& path,
                                         std::string* error) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error != nullptr) {
      *error = "cannot open " + path + " for writing";
    }
    return false;
  }
  out << collapsed();
  out.flush();
  if (!out) {
    if (error != nullptr) {
      *error = "write to " + path + " failed";
    }
    return false;
  }
  return true;
}

ScopedProfileExport::~ScopedProfileExport() {
  if (path_.empty()) {
    return;
  }
  profiler_.stop();
  std::string error;
  if (!profiler_.write_collapsed_file(path_, &error)) {
    std::fprintf(stderr, "profile: export failed: %s\n", error.c_str());
    return;
  }
  std::fprintf(stderr,
               "profile: taken=%llu dropped=%llu clock=%s hz=%d "
               "effective_hz=%.1f -> %s\n",
               static_cast<unsigned long long>(profiler_.total_taken()),
               static_cast<unsigned long long>(profiler_.total_dropped()),
               profile_clock_name(profiler_.options().clock),
               profiler_.options().sample_hz, profiler_.effective_hz(),
               path_.c_str());
}

}  // namespace parcycle
