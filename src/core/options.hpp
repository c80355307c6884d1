// Options and result types shared by every enumeration algorithm.
#pragma once

#include <cstdint>

#include "support/stats.hpp"

namespace parcycle {

struct EnumOptions {
  // Maximum number of edges in a reported cycle; 0 means unbounded. The
  // bounded mode implements the "cycle-length constraints" capability of
  // the paper's Table 2 via budget-aware blocking (see johnson_state.hpp).
  int max_cycle_length = 0;

  // Windowed/temporal modes only: prune each starting edge by intersecting
  // forward reachability (from the edge head) with backward reachability
  // (into the edge tail) before searching — the paper's "cycle-union"
  // preprocessing from Section 7. Ablated by bench_ablation_preprocess.
  bool use_cycle_union = true;

  // Temporal modes only: 2SCENT's path-bundling optimisation — one recursive
  // call walks all temporal cycles that share a vertex sequence, with
  // per-arrival instance counting. Disable to ablate (bench_fig7b prints
  // both). Ignored by static/windowed-simple algorithms.
  bool path_bundling = true;
};

// How the fine-grained algorithms decide whether a recursive call becomes a
// schedulable task or a plain nested call.
enum class SpawnPolicy {
  // Every recursive call is a task (the paper's model; maximal parallelism,
  // maximal scheduling overhead).
  kAlways,
  // Spawn only where a split can pay: never on one worker (the run then
  // does the serial run's work), in a fine root loop only once every root
  // task has started, and only while the worker's local deque is shallower
  // than `spawn_queue_threshold` tasks. Keeps enough stealable work
  // available without drowning in task bookkeeping.
  kAdaptive,
};

struct ParallelOptions {
  SpawnPolicy spawn_policy = SpawnPolicy::kAdaptive;
  std::int64_t spawn_queue_threshold = 8;
  // Disable the copy-on-steal state repair and fall back to restoring the
  // spawn-time snapshot by full re-copy (the "naive state restoration"
  // strawman of Section 5). Ablated by bench_ablation_copy_on_steal.
  bool naive_state_restore = false;
};

// Result of one enumeration run.
struct EnumResult {
  std::uint64_t num_cycles = 0;
  WorkCounters work;

  // The result of a run whose counters count every cycle it reported.
  static EnumResult of(const WorkCounters& counters) {
    return {counters.cycles_found, counters};
  }
};

}  // namespace parcycle
