// Sampling profiler + hardware counter groups: collapsed-stack export from
// injected raw samples, saturating-ring drop accounting (sample-line sum ==
// taken, always), disabled-profiler no-ops, live SIGPROF sampling over a
// real worker pool, timed /profilez-style captures, and honest degradation —
// under ThreadSanitizer the profiler must REFUSE to sample (TSan defers
// async signals) and say so, and a kernel that forbids perf_event_open must
// yield available()==false with a reason, never garbage counts. The suite
// carries the `parallel` label so the TSan job asserts the refusal branch
// explicitly rather than skipping it.
#include "obs/profiler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "support/scheduler.hpp"
#include "support/tsan.hpp"

namespace parcycle {
namespace {

// Parses collapsed text into (header line, [(stack, count)]) and checks the
// syntax contract scripts/profile_summary.py enforces.
struct Parsed {
  std::string header;
  std::vector<std::pair<std::string, std::uint64_t>> stacks;
  std::uint64_t total = 0;
};

Parsed parse_collapsed(const std::string& text) {
  Parsed out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      EXPECT_TRUE(out.header.empty()) << "duplicate header: " << line;
      EXPECT_EQ(line.rfind("# parcycle-profile ", 0), 0u) << line;
      out.header = line;
      continue;
    }
    const std::size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << line;
    if (space == std::string::npos) {
      continue;
    }
    const std::string stack = line.substr(0, space);
    const std::uint64_t count =
        std::strtoull(line.c_str() + space + 1, nullptr, 10);
    EXPECT_GT(count, 0u) << line;
    EXPECT_FALSE(stack.empty()) << line;
    out.stacks.emplace_back(stack, count);
    out.total += count;
  }
  EXPECT_FALSE(out.header.empty()) << "missing header in:\n" << text;
  return out;
}

std::uint64_t header_field(const std::string& header, const std::string& key) {
  const std::size_t pos = header.find(key + "=");
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << header;
  return pos == std::string::npos
             ? 0
             : std::strtoull(header.c_str() + pos + key.size() + 1, nullptr,
                             10);
}

// Known dynamic symbols to inject as fake PCs: dladdr resolves function
// addresses from libc exactly, so the export must print their names.
using CFunc = void (*)();

TEST(StackProfiler, CollapsedFormatFromRawSamples) {
  StackProfiler prof(2, ProfilerOptions{});
  ASSERT_TRUE(prof.enabled());
  void* leaf = reinterpret_cast<void*>(reinterpret_cast<CFunc>(&std::abort));
  void* root = reinterpret_cast<void*>(reinterpret_cast<CFunc>(&std::exit));
  void* frames[2] = {leaf, root};  // leaf-first, as the signal handler stores
  prof.record_raw_sample(0, frames, 2);
  prof.record_raw_sample(0, frames, 2);
  void* other[1] = {root};
  prof.record_raw_sample(1, other, 1);

  EXPECT_EQ(prof.samples_taken(0), 2u);
  EXPECT_EQ(prof.samples_taken(1), 1u);
  EXPECT_EQ(prof.total_taken(), 3u);
  EXPECT_EQ(prof.total_dropped(), 0u);

  const std::string text = prof.collapsed();
  const Parsed parsed = parse_collapsed(text);
  EXPECT_EQ(parsed.total, 3u);
  EXPECT_EQ(header_field(parsed.header, "taken"), 3u);
  EXPECT_EQ(header_field(parsed.header, "dropped"), 0u);
  EXPECT_EQ(header_field(parsed.header, "workers"), 2u);
  // Aggregation: the two identical worker-0 samples collapse to one line
  // with count 2; worker 1 contributes the other line.
  ASSERT_EQ(parsed.stacks.size(), 2u);
  // Export renders root-first: the stack must start with the outer frame.
  bool saw_two_frame = false;
  for (const auto& [stack, count] : parsed.stacks) {
    if (count == 2) {
      saw_two_frame = true;
      EXPECT_NE(stack.find("exit"), std::string::npos) << stack;
      EXPECT_NE(stack.find("abort"), std::string::npos) << stack;
      EXPECT_LT(stack.find("exit"), stack.find("abort"))
          << "root must precede leaf: " << stack;
    }
  }
  EXPECT_TRUE(saw_two_frame);
}

TEST(StackProfiler, SaturatingRingKeepsSumEqualToTaken) {
  ProfilerOptions options;
  options.capacity_per_worker = 4;
  StackProfiler prof(1, options);
  void* frame = reinterpret_cast<void*>(reinterpret_cast<CFunc>(&std::abort));
  for (int i = 0; i < 10; ++i) {
    prof.record_raw_sample(0, &frame, 1);
  }
  // Saturating, not wrapping: beyond capacity samples count as dropped and
  // the stored total never exceeds capacity — so the exported sum can be
  // pinned against the taken counter exactly.
  EXPECT_EQ(prof.samples_taken(0), 4u);
  EXPECT_EQ(prof.samples_dropped(0), 6u);
  const Parsed parsed = parse_collapsed(prof.collapsed());
  EXPECT_EQ(parsed.total, prof.total_taken());
  EXPECT_EQ(header_field(parsed.header, "dropped"), 6u);
}

TEST(StackProfiler, DisabledProfilerIsInertAndRefusesStart) {
  StackProfiler prof(4, ProfilerOptions{}, /*enabled=*/false);
  EXPECT_FALSE(prof.enabled());
  void* frame = reinterpret_cast<void*>(reinterpret_cast<CFunc>(&std::abort));
  prof.record_raw_sample(0, &frame, 1);  // must be a no-op, not a crash
  EXPECT_EQ(prof.total_taken(), 0u);
  std::string error;
  EXPECT_FALSE(prof.start(&error));
  EXPECT_NE(error.find("disabled"), std::string::npos) << error;
  // Attach/detach hooks on a disabled profiler are harmless no-ops too.
  prof.on_worker_start(0);
  prof.on_worker_stop(0);
  const Parsed parsed = parse_collapsed(prof.collapsed());
  EXPECT_EQ(parsed.total, 0u);
  EXPECT_TRUE(parsed.stacks.empty());
}

TEST(StackProfiler, ClearResetsCountersAndStacks) {
  StackProfiler prof(1, ProfilerOptions{});
  void* frame = reinterpret_cast<void*>(reinterpret_cast<CFunc>(&std::abort));
  prof.record_raw_sample(0, &frame, 1);
  EXPECT_EQ(prof.total_taken(), 1u);
  prof.clear();
  EXPECT_EQ(prof.total_taken(), 0u);
  EXPECT_EQ(prof.total_dropped(), 0u);
  EXPECT_TRUE(parse_collapsed(prof.collapsed()).stacks.empty());
}

TEST(MetricsRegistry, ImportProfilerExportsPerWorkerCounters) {
  StackProfiler prof(2, ProfilerOptions{});
  void* frame = reinterpret_cast<void*>(reinterpret_cast<CFunc>(&std::abort));
  prof.record_raw_sample(1, &frame, 1);
  MetricsRegistry reg;
  reg.import_profiler(prof);
  EXPECT_EQ(
      reg.value_u64("parcycle_profile_samples_taken_total", "worker=\"0\"")
          .value_or(99),
      0u);
  EXPECT_EQ(
      reg.value_u64("parcycle_profile_samples_taken_total", "worker=\"1\"")
          .value_or(0),
      1u);
}

#if PARCYCLE_TSAN

// Under ThreadSanitizer the refusal is the contract: TSan defers async
// signal delivery to synchronization points, which breaks interrupted-PC
// sampling, so supported() must say no and start() must explain itself.
// Asserted explicitly — a skipped test could hide a profiler that silently
// arms timers under TSan and samples garbage.
TEST(StackProfiler, RefusesToSampleUnderThreadSanitizer) {
  EXPECT_FALSE(StackProfiler::supported());
  StackProfiler prof(2, ProfilerOptions{});
  std::string error;
  EXPECT_FALSE(prof.start(&error));
  EXPECT_NE(error.find("ThreadSanitizer"), std::string::npos) << error;
  EXPECT_FALSE(prof.sampling());
  // The raw-record path (format tests above) must keep working regardless.
  void* frame = reinterpret_cast<void*>(reinterpret_cast<CFunc>(&std::abort));
  prof.record_raw_sample(0, &frame, 1);
  EXPECT_EQ(prof.total_taken(), 1u);
}

#else  // !PARCYCLE_TSAN

TEST(StackProfiler, LiveCpuSamplingOverBusyPool) {
  ASSERT_TRUE(StackProfiler::supported());
  ProfilerOptions options;
  options.sample_hz = 997;  // fast so a short spin yields samples
  options.clock = ProfileClock::kThreadCpu;
  StackProfiler prof(2, options);
  std::string error;
  ASSERT_TRUE(prof.start(&error)) << error;
  SchedulerOptions sched_options;
  sched_options.thread_observer = &prof;
  Scheduler::with_pool(2, sched_options, [&](Scheduler& sched) {
    TaskGroup group(sched);
    for (int t = 0; t < 2; ++t) {
      group.spawn([] {
        // ~200ms of pure CPU per task: at 997Hz thread-CPU sampling the
        // two workers take hundreds of samples; >= 1 keeps slow/loaded CI
        // machines green.
        volatile std::uint64_t sink = 0;
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(200);
        while (std::chrono::steady_clock::now() < deadline) {
          for (int i = 0; i < 4096; ++i) {
            sink = sink + static_cast<std::uint64_t>(i) * 2654435761u;
          }
        }
      });
    }
    group.wait();
  });
  prof.stop();
  EXPECT_GE(prof.total_taken(), 1u);
  const Parsed parsed = parse_collapsed(prof.collapsed());
  EXPECT_EQ(parsed.total, prof.total_taken());
}

// The header reports the rate the timers really fired at, not the requested
// one: samples per CPU-second of the sampled thread, which the kernel's
// timer resolution may hold well below a fast requested rate.
TEST(StackProfiler, HeaderReportsEffectiveRate) {
  ASSERT_TRUE(StackProfiler::supported());
  ProfilerOptions options;
  options.sample_hz = 997;
  options.clock = ProfileClock::kThreadCpu;
  StackProfiler prof(1, options);
  std::string error;
  ASSERT_TRUE(prof.start(&error)) << error;
  SchedulerOptions sched_options;
  sched_options.thread_observer = &prof;
  Scheduler::with_pool(1, sched_options, [&](Scheduler& sched) {
    TaskGroup group(sched);
    group.spawn([] {
      volatile std::uint64_t sink = 0;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
      while (std::chrono::steady_clock::now() < deadline) {
        for (int i = 0; i < 4096; ++i) {
          sink = sink + static_cast<std::uint64_t>(i) * 2654435761u;
        }
      }
    });
    group.wait();
  });
  prof.stop();
  ASSERT_GE(prof.total_taken(), 1u);
  const Parsed parsed = parse_collapsed(prof.collapsed());
  const std::string key = " effective_hz=";
  const std::size_t pos = parsed.header.find(key);
  ASSERT_NE(pos, std::string::npos) << parsed.header;
  const double effective =
      std::strtod(parsed.header.c_str() + pos + key.size(), nullptr);
  EXPECT_GT(effective, 0.0) << parsed.header;
  EXPECT_GT(prof.effective_hz(), 0.0);
  // A timer never fires faster than asked; the margin absorbs the clock
  // reads bracketing the armed span.
  EXPECT_LE(prof.effective_hz(), 1.25 * options.sample_hz);
}

TEST(StackProfiler, WallClockSamplingSeesIdlePool) {
  ASSERT_TRUE(StackProfiler::supported());
  ProfilerOptions options;
  options.sample_hz = 499;
  options.clock = ProfileClock::kWall;
  StackProfiler prof(2, options);
  std::string error;
  ASSERT_TRUE(prof.start(&error)) << error;
  SchedulerOptions sched_options;
  sched_options.thread_observer = &prof;
  Scheduler::with_pool(2, sched_options, [&](Scheduler&) {
    // No tasks at all: the workers park. CPU-clock timers would never fire
    // here; wall-clock sampling is exactly the /profilez-on-an-idle-service
    // mode and must still take samples (of the wait stacks).
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  });
  prof.stop();
  EXPECT_GE(prof.total_taken(), 1u);
  const Parsed parsed = parse_collapsed(prof.collapsed());
  EXPECT_EQ(parsed.total, prof.total_taken());
}

TEST(StackProfiler, TimedCaptureRestartsWindowAndKeepsConsistency) {
  ASSERT_TRUE(StackProfiler::supported());
  ProfilerOptions options;
  options.sample_hz = 499;
  options.clock = ProfileClock::kWall;
  StackProfiler prof(1, options);
  SchedulerOptions sched_options;
  sched_options.thread_observer = &prof;
  Scheduler::with_pool(1, sched_options, [&](Scheduler&) {
    const std::string text = prof.timed_capture(0.25);
    const Parsed parsed = parse_collapsed(text);
    EXPECT_GE(parsed.total, 1u);
    EXPECT_EQ(parsed.total, header_field(parsed.header, "taken"));
    // timed_capture on an idle profiler leaves it idle afterwards.
    EXPECT_FALSE(prof.sampling());
  });
}

#endif  // PARCYCLE_TSAN

// perf_event groups must be honest about availability: either the group
// opened and the counts are plausible, or available() is false with a
// human-readable reason (perf_event_paranoid, seccomp, VM without a PMU).
// Both branches are legitimate in CI — what is asserted is the contract,
// not the kernel's permission policy.
TEST(PerfCounterGroups, AvailabilityIsHonest) {
  PerfCounterGroups perf(1);
  ASSERT_TRUE(perf.enabled());
  perf.on_worker_start(0);  // attach the calling thread as worker 0
  if (perf.available()) {
    // Burn some cycles so the group has something to count.
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 2000000; ++i) {
      sink = sink + static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ull;
    }
    const PerfCounts counts = perf.counts(0);
    EXPECT_TRUE(counts.available);
    EXPECT_GT(counts.cycles, 0u);
    EXPECT_GT(counts.instructions, 0u);
    EXPECT_GE(counts.ipc(), 0.0);
  } else {
    EXPECT_FALSE(perf.unavailable_reason().empty());
    EXPECT_FALSE(perf.counts(0).available);
  }
  perf.on_worker_stop(0);
  // After detach the final snapshot (or unavailability) persists.
  EXPECT_EQ(perf.counts(0).available, perf.available());
}

TEST(PerfCounterGroups, DisabledGroupsAreInert) {
  PerfCounterGroups perf(2, /*enabled=*/false);
  EXPECT_FALSE(perf.enabled());
  perf.on_worker_start(0);
  perf.on_worker_stop(0);
  EXPECT_FALSE(perf.available());
  EXPECT_FALSE(perf.counts(0).available);
  MetricsRegistry reg;
  reg.import_perf(perf);
  EXPECT_EQ(reg.value_u64("parcycle_perf_available").value_or(99), 0u);
}

TEST(PerfCounterGroups, ImportPerfAlwaysExportsAvailabilityGauge) {
  PerfCounterGroups perf(1);
  perf.on_worker_start(0);
  MetricsRegistry reg;
  reg.import_perf(perf);
  const std::uint64_t expected = perf.available() ? 1 : 0;
  EXPECT_EQ(reg.value_u64("parcycle_perf_available").value_or(99), expected);
  if (perf.available()) {
    EXPECT_TRUE(
        reg.value_u64("parcycle_perf_cycles_total", "worker=\"0\"")
            .has_value());
  }
  perf.on_worker_stop(0);
}

}  // namespace
}  // namespace parcycle
