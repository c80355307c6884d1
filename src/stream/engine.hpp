// Streaming enumeration engine: micro-batched ingestion of a temporal edge
// stream with per-edge incremental cycle detection on the work-stealing
// Scheduler.
//
// The producer pushes edges; the engine buffers them into micro-batches.
// Real event streams are not perfectly timestamp-sorted, so an optional
// bounded reorder stage sits in front of the batch buffer: with
// StreamOptions::reorder_slack > 0, arrivals may lag the maximum timestamp
// seen by up to `slack` time units. Buffered arrivals wait in a bucket ring
// over the slack (stream/reorder_buffer.hpp; O(1) per edge) and are released
// in the canonical (ts, src, dst) order — the order a batch TemporalGraph
// sorts into — once the slack watermark passes them, so an in-slack shuffle
// of a sorted stream reproduces the sorted replay byte-for-byte (edge ids
// included). Arrivals older than the watermark are counted
// (WorkCounters::late_edges_rejected) and dropped, never silently ingested
// out of order. With slack == 0 the engine keeps its strict legacy contract:
// push() throws on any timestamp regression.
//
// Processing a batch:
//
//  1. advances the sliding window (expire edges older than
//     batch_min_ts - retention, where retention is the largest configured
//     window — by construction nothing a later closing edge could still use,
//     so the window never loses a cycle);
//  2. ingests the whole batch into the SlidingWindowGraph (edges of one batch
//     are mutually invisible to each other's searches anyway: a closing edge
//     only reads strictly earlier timestamps);
//  3. splits the batch into contiguous chunks of edges, at most
//     StreamEngine::kSearchChunksPerWorker per worker, one slab task each.
//     A chunk pays the batch-stable setup (worker sink, ladder flags,
//     budget, scratch) once, then enumerates the cycles each of its edges
//     closes — once per configured window length. Hot edges — those whose
//     search frontier in the live window reaches
//     StreamOptions::hot_frontier_threshold — escalate to the fine-grained
//     variant: the same DFS visit, whose branches become tasks so a single
//     burst vertex cannot serialise the batch (none under the adaptive
//     policy on one worker). A branch another worker steals copies its
//     creator's path into a scratch of the engine's pool, and gives it back
//     when done (copy-on-steal). Failures stay per edge: a search
//     that throws loses only its own edge (its scratch is discarded, the
//     rest of the chunk runs on a fresh one) and the batch counts one
//     search error. The order of sink callbacks within a batch is
//     unspecified.
//
// Multi-δ windows: StreamOptions::windows configures several concurrent
// window lengths ("lanes") served by ONE ingest path. All lanes share the
// sliding graph (retention = max δ); each lane runs its own per-edge search
// bounds, keeps its own cycle/work counters and latency histogram, and
// reports to its own CycleSink — one deployment serves tenants with
// different horizons for one graph's worth of memory and ingest work.
//
// Backpressure is structural: push() drains a full buffer synchronously
// before accepting the next edge, so the engine never holds more than one
// batch of unprocessed input (plus at most the in-slack reorder buffer) and
// a slow search phase blocks the producer instead of growing a queue.
//
// The engine is restartable: save_snapshot() persists the entire mutable
// state — live window with original edge ids, watermark, reorder buffer,
// pending batch, and all counters — in a versioned, checksummed binary
// format (the .pcg discipline; see stream/snapshot.cpp), and
// restore_snapshot() resumes a freshly constructed engine mid-stream without
// replaying history. Feed the restored engine the stream suffix starting at
// edges_pushed() and it behaves exactly like the uninterrupted run.
//
// Throughput and latency are tracked in per-worker sinks (counter_sink
// style): one search latency per edge-lane lands in cache-line-aligned
// per-worker log2 histograms, merged once by stats() into p50/p99/max, per
// lane and aggregated. Search latency is the wall time of the lane's search
// (prepare, prune and DFS), and 0 for a lane that settles without one
// (settle_edge_lane: a self-loop, an empty head or an empty tail), which
// reads no clock. The histogram count is therefore edges × lanes and its
// sum the total search time. Latency of an escalated edge includes any
// tasks its worker executed while waiting on the search group — possibly a
// whole chunk of other edges — so percentiles describe the engine as
// operated, not the pure search cost.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/cycle_types.hpp"
#include "core/options.hpp"
#include "obs/histogram.hpp"
#include "robust/budget.hpp"
#include "robust/sink_guard.hpp"
#include "stream/incremental.hpp"
#include "stream/reorder_buffer.hpp"
#include "stream/sliding_window_graph.hpp"
#include "support/scheduler.hpp"
#include "support/scratch_pool.hpp"
#include "support/stats.hpp"

namespace parcycle {

// Overload-control ladder (see StreamOptions::overload_high_watermark).
// Levels are ordered by severity; each level implies everything above it.
enum class OverloadLevel : int {
  kNormal = 0,
  kForcePrune,      // reverse-BFS prune every search, frontier or not
  kForceSerial,     // no fine-grained escalation: serial searches only
  kTightenBudgets,  // degraded_budget replaces search_budget
  kShed,            // drop arrivals at push(), counted in edges_shed
};

constexpr int kOverloadLevels = static_cast<int>(OverloadLevel::kShed) + 1;

// The ladder steps down one level after this many consecutive batches that
// end at or below half the high watermark.
constexpr std::uint64_t kOverloadRecoverBatches = 2;

const char* overload_level_name(OverloadLevel level) noexcept;

struct StreamOptions {
  // Cycle window delta: a cycle's edges all lie within [t0, t0 + window].
  // Also the retention horizon of the sliding graph. Must be > 0. Ignored
  // when `windows` is non-empty.
  Timestamp window = 0;
  // Multi-δ configuration: when non-empty, each entry is a concurrent window
  // lane sharing the single ingest path and sliding graph (retention = the
  // maximum entry). Lane order is caller order; per-lane results surface in
  // StreamStats::per_window and per-lane sinks. All entries must be > 0.
  std::vector<Timestamp> windows;
  // Out-of-order arrival slack: accepted arrivals may lag the maximum
  // timestamp seen so far by up to this many time units (an arrival exactly
  // at the boundary is accepted). Older arrivals are counted and rejected.
  // 0 = strict non-decreasing input; push() throws on a regression.
  Timestamp reorder_slack = 0;
  // Edges per micro-batch (and the backpressure bound on buffered input).
  std::size_t batch_size = 256;
  // Forwarded to the per-edge searches.
  int max_cycle_length = 0;
  // Reverse-BFS pruning before a per-edge DFS (EnumOptions::use_cycle_union
  // of the batch algorithms). The BFS costs a scan of the window's
  // neighbourhood per edge, which dwarfs a typical (near-empty) search, so
  // it is only run when the edge's frontier suggests the DFS could blow up:
  // head out-degree >= prune_frontier_threshold live window edges. 0 prunes
  // every search; use_reach_prune = false never prunes.
  bool use_reach_prune = true;
  std::size_t prune_frontier_threshold = 32;
  // Escalate an edge to the fine-grained search when its head has at least
  // this many live out-edges inside the search window. 0 escalates every
  // edge; SIZE_MAX never escalates. Evaluated per lane (the frontier is a
  // function of the lane's window).
  std::size_t hot_frontier_threshold = 64;
  // Spawn policy of escalated searches.
  SpawnPolicy spawn_policy = SpawnPolicy::kAdaptive;
  // Initial vertex capacity hint for the sliding graph.
  VertexId num_vertices_hint = 0;

  // -- Robustness (src/robust/) ---------------------------------------------
  //
  // Cooperative deadline for every per-edge per-lane search (wall-ns and/or
  // edge-visit cap; zero fields = unlimited). A search that exhausts it
  // unwinds with the cycles found so far — a partial, lower-bound result —
  // and is counted in WorkCounters::searches_truncated for its lane.
  SearchBudget search_budget;
  // The tighter budget that replaces search_budget while the overload ladder
  // sits at kTightenBudgets or above.
  SearchBudget degraded_budget{/*wall_ns=*/2'000'000,
                               /*edge_visits=*/100'000};
  // Overload ladder watermark, measured in buffered arrivals (pending batch
  // + reorder buffer, counting an arrival whose push released the batch) at
  // batch boundaries. When occupancy reaches it at the start of a batch the
  // ladder climbs one level per multiple of the watermark; after
  // kOverloadRecoverBatches consecutive batches ending at or below half of
  // it the ladder steps back down one level (hysteresis). SIZE_MAX never
  // triggers — the decision points stay compiled in and exercised, so
  // enabling protection cannot change the idle-path behaviour.
  std::size_t overload_high_watermark = SIZE_MAX;
  // Wrap each non-null lane sink in a GuardedSink (bounded hand-off buffer +
  // consumer thread; see robust/sink_guard.hpp): a throwing, slow or stuck
  // downstream consumer degrades into sink_errors / sink_dropped counters
  // instead of stalling or killing the batch. Off by default because it
  // moves sink delivery onto a dedicated thread per lane.
  bool guard_sinks = false;
  SinkGuardOptions sink_guard;
};

// Per-window-lane statistics; see StreamStats::per_window.
struct StreamWindowStats {
  Timestamp window = 0;
  std::uint64_t cycles_found = 0;
  std::uint64_t escalated_edges = 0;
  WorkCounters work;
  std::uint64_t latency_p50_ns = 0;
  std::uint64_t latency_p99_ns = 0;
  std::uint64_t latency_max_ns = 0;
  // The merged search latency histogram the percentiles above are computed
  // from, one sample per edge: the search's wall time, 0 for an edge that
  // settled without a search (obs/metrics.hpp renders it as a Prometheus
  // histogram).
  Log2Histogram latency;
  // Sink-isolation accounting for this lane's GuardedSink (all zero when
  // guard_sinks is off or the lane has no sink).
  SinkGuardStats sink;
};

// Aggregate engine statistics; see StreamEngine::stats(). The scalar fields
// aggregate across lanes (for a single-window engine they coincide with
// per_window[0]); per_window carries the per-δ breakdown.
struct StreamStats {
  // Accepted push() calls that reached the sliding graph. Counts each edge
  // once regardless of how many window lanes searched it.
  std::uint64_t edges_ingested = 0;
  // Every push() call, including late-rejected and still-buffered arrivals.
  // A restored engine continues this count, so it doubles as the stream
  // cursor: feed a restored engine the suffix starting here.
  std::uint64_t edges_pushed = 0;
  // Arrivals dropped by the reorder stage (older than the slack watermark).
  std::uint64_t late_edges_rejected = 0;
  // Reorder-stage pressure: arrivals currently buffered, and the high-water
  // mark over the run. Peak near the slack horizon means the producer's
  // disorder is close to the configured bound.
  std::uint64_t reorder_buffered = 0;
  std::uint64_t reorder_peak_buffered = 0;
  // Reorder watermark: the maximum timestamp ever accepted and the late
  // floor (arrivals below it are rejected). Their difference is the
  // watermark lag /statusz reports; both are Timestamp::min() before the
  // first accepted arrival of a reorder-enabled engine.
  Timestamp reorder_max_seen = 0;
  Timestamp reorder_floor = 0;
  std::uint64_t cycles_found = 0;
  std::uint64_t batches = 0;
  std::uint64_t escalated_edges = 0;
  std::uint64_t expired_edges = 0;
  std::uint64_t live_edges = 0;
  // Wall time spent inside batch processing (expiry + ingest + searches).
  double busy_seconds = 0.0;
  // Aggregate across lanes; also carries the ingest-pressure counters
  // (late_edges_rejected, graph_compactions) for the ops dashboards.
  WorkCounters work;
  // Search latency over the whole run, one sample per edge-lane: the wall
  // time of the lane's search, 0 for a lane that settled without one. From
  // merged per-worker log2 histograms: upper bound of the bucket containing
  // the percentile.
  std::uint64_t latency_p50_ns = 0;
  std::uint64_t latency_p99_ns = 0;
  std::uint64_t latency_max_ns = 0;
  // Merged across all lanes (count = edges × lanes, sum = total search
  // time); source of the aggregate percentiles above.
  Log2Histogram latency;
  // -- Robustness (zero in a healthy, unprotected or untriggered run) -------
  // Current ladder level and the number of level changes (both directions).
  OverloadLevel overload_level = OverloadLevel::kNormal;
  std::uint64_t overload_shifts = 0;
  // Arrivals dropped at push() while the ladder sat at kShed. Also mirrored
  // into work.edges_shed so bench columns and the CLI pick it up for free.
  std::uint64_t edges_shed = 0;
  // Batches whose search phase threw (injected alloc failure, etc.); the
  // engine caught the exception and stayed live.
  std::uint64_t search_errors = 0;
  // Sink-isolation totals across lanes (see StreamWindowStats::sink);
  // sink_quarantined counts quarantined lanes.
  std::uint64_t sink_delivered = 0;
  std::uint64_t sink_errors = 0;
  std::uint64_t sink_dropped = 0;
  std::uint64_t sink_quarantined = 0;
  // One entry per configured window lane, in StreamOptions order.
  std::vector<StreamWindowStats> per_window;
};

class StreamEngine {
 public:
  // Searches run on `sched` (the caller's pool; the engine does not own it).
  // push()/flush()/stats()/snapshot calls must be made from the thread that
  // owns the scheduler (worker 0). `sink` (nullable) receives the cycles of
  // the FIRST window lane and must be thread-safe.
  StreamEngine(const StreamOptions& options, Scheduler& sched,
               CycleSink* sink = nullptr);

  // Multi-sink form: sinks[i] (nullable entries allowed) receives the cycles
  // of window lane i. Shorter vectors leave the remaining lanes sink-less.
  StreamEngine(const StreamOptions& options, Scheduler& sched,
               std::vector<CycleSink*> lane_sinks);

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  // A batch's searches run as at most this many tasks per worker.
  static constexpr std::size_t kSearchChunksPerWorker = 4;

  // Feeds one edge. With reorder_slack == 0 timestamps must be
  // non-decreasing (throws std::invalid_argument otherwise); with slack > 0
  // in-slack disorder is buffered and reordered, and watermark-violating
  // late arrivals are counted and dropped. Triggers synchronous batch
  // processing whenever enough edges are releasable.
  void push(VertexId src, VertexId dst, Timestamp ts);

  // Processes all buffered edges, including the reorder stage's (released in
  // canonical order); call at end of stream or whenever results must be up
  // to date with everything pushed so far. Draining the reorder buffer
  // hardens the late-edge watermark to the maximum timestamp seen: an
  // in-slack straggler older than a flush point counts as late afterwards.
  void flush();

  // Live window graph; mutated by push()/flush(), stable between calls.
  const SlidingWindowGraph& graph() const noexcept { return graph_; }

  // Window lengths served, in StreamOptions order.
  const std::vector<Timestamp>& window_lanes() const noexcept {
    return deltas_;
  }

  // Cycles closed so far, summed across lanes (cheap; only counts fully
  // processed batches).
  std::uint64_t cycles_found() const noexcept { return cycles_found_; }

  // Total push() calls so far (the stream cursor; see StreamStats).
  std::uint64_t edges_pushed() const noexcept { return edges_pushed_; }

  // Current overload-ladder level (changes only at batch boundaries). Safe
  // to read from any thread (e.g. a /healthz handler): the level is a
  // relaxed atomic, so the read is always race-free and lag-free.
  OverloadLevel overload_level() const noexcept {
    return overload_level_.load(std::memory_order_relaxed);
  }

  // Merged statistics snapshot. Call between push()/flush() calls — or, once
  // enable_concurrent_stats() armed the engine, from any thread at any time.
  StreamStats stats() const;

  // Arms the engine for concurrent observation: push()/flush()/stats() and
  // the snapshot calls then serialise on an internal mutex, so a sampler
  // thread (obs/timeseries.hpp) may call stats() while the owning thread is
  // feeding. Call BEFORE the first push and before starting the sampler; the
  // flag is one-way. Unarmed engines pay a single predictable branch per
  // public call and no lock.
  void enable_concurrent_stats() { concurrent_stats_ = true; }

  // Live wall-ns hint for the degraded search budget, set by the adaptive
  // sampler from the rolling p99 search latency (k×p99). While the overload
  // ladder sits at kTightenBudgets or above, the effective degraded wall
  // budget is max(options.degraded_budget.wall_ns, hint) — the static value
  // stays a floor. 0 (the default) disables the hint entirely. Safe to call
  // from any thread.
  void set_degraded_wall_hint_ns(std::uint64_t hint_ns) noexcept {
    degraded_wall_hint_ns_.store(hint_ns, std::memory_order_relaxed);
  }
  std::uint64_t degraded_wall_hint_ns() const noexcept {
    return degraded_wall_hint_ns_.load(std::memory_order_relaxed);
  }

  // -- Snapshot / restore ---------------------------------------------------
  //
  // save_snapshot persists the complete mutable state (graph, reorder
  // buffer, pending batch, counters) without flushing; restore_snapshot
  // loads it into a FRESHLY CONSTRUCTED engine whose StreamOptions carry the
  // same window lanes (validated; other tuning knobs are free to differ,
  // except that buffered reorder edges need reorder_slack > 0). Corrupt,
  // truncated or mismatching snapshots, and ones whose buffered edges could
  // not be ingested in timestamp order, throw std::runtime_error and
  // leave the engine UNTOUCHED (still fresh): the whole payload is parsed
  // and validated before any member is committed, so a failed restore can be
  // retried against another snapshot — the contract generation rotation
  // (robust/snapshot_rotation.hpp) relies on. See stream/snapshot.cpp for
  // the on-disk format.
  void save_snapshot(std::ostream& out) const;
  void save_snapshot_file(const std::string& path) const;
  void restore_snapshot(std::istream& in);
  void restore_snapshot_file(const std::string& path);

 private:
  friend struct StreamEngineBatchAccess;

  // Per-lane mutable state of one worker: counters and the latency
  // histogram. The search scratches live in a pool instead — a worker
  // blocked in a search's TaskGroup::wait can execute another chunk task,
  // so worker-keyed scratch would be re-entered. Stolen branches of
  // escalated searches draw their path copies from the same pool.
  struct LaneCounters {
    WorkCounters work;
    std::uint64_t cycles = 0;
    std::uint64_t escalated = 0;
    // Search latency per edge: wall ns of its search, 0 when it settled
    // without one (log2 buckets, bit_width(ns) indexing).
    Log2Histogram latency;
  };

  struct alignas(64) WorkerSink {
    std::vector<LaneCounters> lanes;
  };

  // Locked only when enable_concurrent_stats() armed the engine; returned
  // unlocked (and free of atomic ops) otherwise.
  std::unique_lock<std::mutex> observer_lock() const;

  void enqueue(const TemporalEdge& edge);
  void process_batch();
  // Arrivals buffered in the reorder stage, including one whose push is
  // releasing edges into the batch right now (it is inserted after).
  std::size_t reorder_buffered() const noexcept {
    return reorder_.size() + reorder_arrival_;
  }
  // Searches pending_[begin, end) on the calling worker.
  void search_edges(std::size_t begin, std::size_t end);
  // Ladder decision points: both run on worker 0 at batch boundaries, so
  // overload_level_ is stable for the whole search phase of a batch.
  void overload_step_up();
  void overload_step_down();
  void set_overload_level(OverloadLevel level);

  StreamOptions options_;
  Scheduler& sched_;
  std::vector<CycleSink*> lane_sinks_;
  // guard_sinks: per-lane isolation wrappers (null entry = lane unguarded);
  // effective_sinks_ is what search tasks actually report to.
  std::vector<std::unique_ptr<GuardedSink>> sink_guards_;
  std::vector<CycleSink*> effective_sinks_;
  std::vector<Timestamp> deltas_;  // windows, StreamOptions order
  Timestamp retention_ = 0;        // max delta: sliding-graph horizon
  SlidingWindowGraph graph_;
  ScratchPool<StreamSearchScratch> scratch_pool_;
  std::vector<std::unique_ptr<WorkerSink>> sinks_;
  std::vector<TemporalEdge> pending_;
  // Reorder stage (reorder_slack > 0): buffered arrivals in [floor,
  // max_seen], released in (ts, src, dst) order once below the floor.
  ReorderBuffer reorder_;
  std::size_t reorder_arrival_ = 0;  // 1 while push() releases (see above)
  Timestamp reorder_max_seen_;  // max ts ever accepted
  Timestamp reorder_floor_;     // arrivals with ts < floor are late
  std::uint64_t reorder_peak_buffered_ = 0;
  std::uint64_t late_rejected_ = 0;
  Timestamp last_pushed_ts_;  // last edge handed to the batch buffer
  std::uint64_t edges_pushed_ = 0;
  std::uint64_t cycles_found_ = 0;
  std::uint64_t batches_ = 0;
  double busy_seconds_ = 0.0;
  // Overload ladder state: written on worker 0 between batches, read by
  // search tasks (ordered by the task spawn, like graph_) and — hence the
  // relaxed atomic — by /healthz handlers on other threads.
  std::atomic<OverloadLevel> overload_level_{OverloadLevel::kNormal};
  std::uint64_t overload_shifts_ = 0;
  std::uint64_t calm_batches_ = 0;  // consecutive batches at/below low
  std::uint64_t edges_shed_ = 0;
  std::uint64_t search_errors_ = 0;
  // Adaptive degraded-budget hint (see set_degraded_wall_hint_ns).
  std::atomic<std::uint64_t> degraded_wall_hint_ns_{0};
  // Concurrent-observation gate (see enable_concurrent_stats): when set, the
  // public entry points take stats_mutex_; worker-side counter writes are
  // already ordered before the owning thread releases it (TaskGroup::wait),
  // so a sampler holding the mutex reads a consistent quiescent snapshot.
  bool concurrent_stats_ = false;
  mutable std::mutex stats_mutex_;
};

}  // namespace parcycle
