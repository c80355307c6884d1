// StreamEngine snapshot / restore — the .pcg discipline applied to the
// engine's mutable state.
//
// Layout: a fixed header (magic, version, payload size, FNV-1a-64 checksum)
// followed by one little-endian payload blob:
//
//   [lanes]    u64 count, i64 delta per lane       (validated on restore)
//   [engine]   push cursor, late/reorder counters, watermarks, batch totals
//   [robust]   overload-ladder state (level, shifts, calm streak, shed and
//              error totals) + per-lane sink-guard counters — zeros when the
//              features are idle, so the layout never varies
//   [counters] per lane: WorkCounters + cycles/escalated + log2 latency
//              histogram, merged across workers at save time
//   [graph]    SlidingWindowGraph::RestoreState — live edges with their
//              original stream ids, watermark, ingest/expiry totals.
//              Retention-compacted at save: edges the NEXT batch's expiry
//              phase is already guaranteed to discard are omitted and
//              accounted as expired, so a snapshot of a stale window does
//              not serialise dead weight.
//   [pending]  the unprocessed micro-batch (src, dst, ts)
//   [reorder]  the in-slack reorder buffer (src, dst, ts), written in
//              canonical (ts, src, dst) order so that save -> restore ->
//              save is byte-identical; restore accepts any order
//
// The payload is serialised to memory first so the checksum covers every
// byte; restore reads the whole payload, verifies the checksum, then parses.
// Restore is parse-then-commit: every field is staged in locals and nothing
// is written into the engine until the whole payload has validated, so any
// truncation, corruption, or lane mismatch throws std::runtime_error and
// leaves the engine UNTOUCHED — still fresh, still restorable from another
// snapshot generation (robust/snapshot_rotation.cpp relies on this).

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "stream/engine.hpp"
#include "support/fnv1a.hpp"

namespace parcycle {

namespace {

static_assert(std::endian::native == std::endian::little,
              "stream snapshot IO assumes a little-endian target");

constexpr char kMagic[4] = {'P', 'S', 'E', '1'};
// v2: lane latency histograms gained a raw-value sum (obs/histogram.hpp's
// Log2Histogram replaced the inline bucket array).
// v3: the [robust] section (overload ladder + sink-guard counters) and two
// new WorkCounters fields (searches_truncated, edges_shed). Older snapshots
// are rejected: carrying their counters forward with silently-zeroed
// robustness state would make the resumed totals lie.
// v4: WorkCounters::adaptive_budget_applications (live-p99 degraded-budget
// seeding; obs/timeseries.hpp).
constexpr std::uint32_t kVersion = 4;
// Upper bound on a plausible payload: rejects absurd sizes from a corrupt
// header before we try to allocate them.
constexpr std::uint64_t kMaxPayloadBytes = std::uint64_t{1} << 33;

[[noreturn]] void corrupt(const std::string& what) {
  throw std::runtime_error("stream snapshot: " + what);
}

// Serialises scalars into a growing byte buffer (the checksummed payload).
class BufWriter {
 public:
  template <typename T>
  void scalar(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* bytes = reinterpret_cast<const char*>(&value);
    buf_.insert(buf_.end(), bytes, bytes + sizeof(value));
  }

  void edge_site(const TemporalEdge& e) {
    scalar<VertexId>(e.src);
    scalar<VertexId>(e.dst);
    scalar<Timestamp>(e.ts);
  }

  const std::vector<char>& bytes() const noexcept { return buf_; }

 private:
  std::vector<char> buf_;
};

class BufReader {
 public:
  explicit BufReader(const std::vector<char>& buf) : buf_(buf) {}

  template <typename T>
  T scalar(const char* what) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (buf_.size() - pos_ < sizeof(T)) {
      corrupt(std::string("payload too short for ") + what);
    }
    T value{};
    std::memcpy(&value, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  TemporalEdge edge_site(const char* what) {
    TemporalEdge e{};
    e.src = scalar<VertexId>(what);
    e.dst = scalar<VertexId>(what);
    e.ts = scalar<Timestamp>(what);
    e.id = kInvalidEdge;
    return e;
  }

  // A count that must plausibly fit in the remaining payload.
  std::uint64_t count(std::size_t item_bytes, const char* what) {
    const auto n = scalar<std::uint64_t>(what);
    if (n > (buf_.size() - pos_) / item_bytes) {
      corrupt(std::string("implausible count for ") + what);
    }
    return n;
  }

  bool exhausted() const noexcept { return pos_ == buf_.size(); }

 private:
  const std::vector<char>& buf_;
  std::size_t pos_ = 0;
};

void write_work_counters(BufWriter& w, const WorkCounters& c) {
  w.scalar(c.edges_visited);
  w.scalar(c.vertices_visited);
  w.scalar(c.cycles_found);
  w.scalar(c.tasks_spawned);
  w.scalar(c.state_copies);
  w.scalar(c.state_reuses);
  w.scalar(c.unblock_operations);
  w.scalar(c.late_edges_rejected);
  w.scalar(c.graph_compactions);
  w.scalar(c.searches_truncated);
  w.scalar(c.edges_shed);
  w.scalar(c.adaptive_budget_applications);
}

WorkCounters read_work_counters(BufReader& r) {
  WorkCounters c;
  c.edges_visited = r.scalar<std::uint64_t>("work counters");
  c.vertices_visited = r.scalar<std::uint64_t>("work counters");
  c.cycles_found = r.scalar<std::uint64_t>("work counters");
  c.tasks_spawned = r.scalar<std::uint64_t>("work counters");
  c.state_copies = r.scalar<std::uint64_t>("work counters");
  c.state_reuses = r.scalar<std::uint64_t>("work counters");
  c.unblock_operations = r.scalar<std::uint64_t>("work counters");
  c.late_edges_rejected = r.scalar<std::uint64_t>("work counters");
  c.graph_compactions = r.scalar<std::uint64_t>("work counters");
  c.searches_truncated = r.scalar<std::uint64_t>("work counters");
  c.edges_shed = r.scalar<std::uint64_t>("work counters");
  c.adaptive_budget_applications = r.scalar<std::uint64_t>("work counters");
  return c;
}

}  // namespace

void StreamEngine::save_snapshot(std::ostream& out) const {
  const std::unique_lock<std::mutex> lock = observer_lock();
  BufWriter w;

  // [lanes]
  w.scalar<std::uint64_t>(deltas_.size());
  for (const Timestamp delta : deltas_) {
    w.scalar(delta);
  }

  // [engine]
  w.scalar(edges_pushed_);
  w.scalar(late_rejected_);
  w.scalar(reorder_peak_buffered_);
  w.scalar(last_pushed_ts_);
  w.scalar(reorder_max_seen_);
  w.scalar(reorder_floor_);
  w.scalar(cycles_found_);
  w.scalar(batches_);
  w.scalar(busy_seconds_);

  // [robust] the overload ladder resumes exactly where it was (including the
  // calm-batch streak, so hysteresis does not reset across a restart), and
  // guarded-sink counters survive even though the guards themselves are
  // rebuilt. Lanes without a guard serialise zeros.
  w.scalar<std::uint32_t>(static_cast<std::uint32_t>(
      overload_level_.load(std::memory_order_relaxed)));
  w.scalar(overload_shifts_);
  w.scalar(calm_batches_);
  w.scalar(edges_shed_);
  w.scalar(search_errors_);
  for (std::size_t lane = 0; lane < deltas_.size(); ++lane) {
    SinkGuardStats gs;
    if (sink_guards_[lane] != nullptr) {
      gs = sink_guards_[lane]->stats();
    }
    w.scalar(gs.delivered);
    w.scalar(gs.errors);
    w.scalar(gs.dropped);
    w.scalar<std::uint8_t>(gs.quarantined ? 1 : 0);
  }

  // [counters] merged across workers: the restored engine does not need to
  // know how the work was spread, only the totals each lane accumulated.
  for (std::size_t lane = 0; lane < deltas_.size(); ++lane) {
    LaneCounters merged;
    for (const auto& sink : sinks_) {
      const LaneCounters& c = sink->lanes[lane];
      merged.work += c.work;
      merged.cycles += c.cycles;
      merged.escalated += c.escalated;
      merged.latency.merge(c.latency);
    }
    write_work_counters(w, merged.work);
    w.scalar(merged.cycles);
    w.scalar(merged.escalated);
    for (int b = 0; b < Log2Histogram::kBuckets; ++b) {
      w.scalar(merged.latency.buckets[b]);
    }
    w.scalar(merged.latency.sum);
    w.scalar(merged.latency.max);
  }

  // [graph] with retention compaction. The window only expires lazily — at
  // the START of the next batch, with cutoff `front.ts - retention` — so
  // between batches the live log can hold edges no future search will ever
  // visit. Compute the lowest timestamp the next batch front can possibly
  // carry (the pending front if one exists, otherwise the reorder minimum /
  // the floor below which push() rejects arrivals as late) and drop the log
  // prefix that cutoff is guaranteed to expire, accounting it as expired so
  // the restored graph's totals and arrival-rank ids stay exact.
  const std::vector<TemporalEdge> reorder = reorder_.sorted();
  Timestamp next_front =
      options_.reorder_slack == 0 ? last_pushed_ts_ : reorder_floor_;
  if (!reorder.empty()) {
    next_front = std::min(next_front, reorder.front().ts);
  }
  if (!pending_.empty()) {
    next_front = std::min(next_front, pending_.front().ts);
  }
  const Timestamp cutoff = saturating_sub(next_front, retention_);
  const auto live = graph_.live_log();
  std::size_t drop = 0;  // the log is ts-ascending: expired edges are a prefix
  while (drop < live.size() && live[drop].ts < cutoff) {
    drop += 1;
  }
  w.scalar<std::uint64_t>(graph_.num_vertices());
  w.scalar(drop > 0 ? std::max(graph_.watermark(), cutoff)
                    : graph_.watermark());
  w.scalar(graph_.last_timestamp());
  w.scalar(graph_.next_edge_id());
  w.scalar(graph_.total_ingested());
  w.scalar(graph_.total_expired() + drop);
  w.scalar(graph_.expiry_epochs());
  w.scalar(graph_.compactions());
  w.scalar(graph_.compacted_slots());
  w.scalar<std::uint64_t>(live.size() - drop);
  for (const TemporalEdge& e : live.subspan(drop)) {
    w.edge_site(e);
    w.scalar(e.id);
  }

  // [pending] and [reorder]: not yet ingested, so no ids.
  w.scalar<std::uint64_t>(pending_.size());
  for (const TemporalEdge& e : pending_) {
    w.edge_site(e);
  }
  w.scalar<std::uint64_t>(reorder.size());
  for (const TemporalEdge& e : reorder) {
    w.edge_site(e);
  }

  const std::vector<char>& payload = w.bytes();
  const std::uint64_t checksum = fnv1a(payload.data(), payload.size());
  out.write(kMagic, sizeof(kMagic));
  const std::uint32_t version = kVersion;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  const std::uint64_t payload_size = payload.size();
  out.write(reinterpret_cast<const char*>(&payload_size),
            sizeof(payload_size));
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!out) {
    corrupt("write failed");
  }
}

void StreamEngine::restore_snapshot(std::istream& in) {
  const std::unique_lock<std::mutex> lock = observer_lock();
  if (edges_pushed_ != 0 || graph_.total_ingested() != 0 ||
      !pending_.empty() || !reorder_.empty()) {
    throw std::runtime_error(
        "stream snapshot: restore requires a freshly constructed engine");
  }

  char magic[4] = {};
  in.read(magic, sizeof(magic));
  if (static_cast<std::size_t>(in.gcount()) != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    corrupt("bad magic (not a stream snapshot)");
  }
  std::uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (static_cast<std::size_t>(in.gcount()) != sizeof(version) ||
      version != kVersion) {
    corrupt("unsupported snapshot version");
  }
  std::uint64_t payload_size = 0;
  in.read(reinterpret_cast<char*>(&payload_size), sizeof(payload_size));
  if (static_cast<std::size_t>(in.gcount()) != sizeof(payload_size) ||
      payload_size > kMaxPayloadBytes) {
    corrupt("implausible payload size");
  }
  std::uint64_t checksum = 0;
  in.read(reinterpret_cast<char*>(&checksum), sizeof(checksum));
  if (static_cast<std::size_t>(in.gcount()) != sizeof(checksum)) {
    corrupt("truncated header");
  }
  std::vector<char> payload(payload_size);
  if (payload_size > 0) {
    in.read(payload.data(), static_cast<std::streamsize>(payload_size));
    if (static_cast<std::size_t>(in.gcount()) != payload_size) {
      corrupt("truncated payload");
    }
  }
  if (fnv1a(payload.data(), payload.size()) != checksum) {
    corrupt("checksum mismatch");
  }

  BufReader r(payload);

  // ---- Parse phase: everything lands in locals; the engine is not touched
  // until the whole payload (including the trailing-bytes check) validates.

  // [lanes] must match this engine's configuration: a snapshot's counters
  // and retention horizon are meaningless under different window lanes.
  const auto lane_count = r.count(sizeof(Timestamp), "window lanes");
  if (lane_count != deltas_.size()) {
    corrupt("window lane count differs from the engine's configuration");
  }
  for (std::size_t i = 0; i < lane_count; ++i) {
    if (r.scalar<Timestamp>("window lane") != deltas_[i]) {
      corrupt("window lanes differ from the engine's configuration");
    }
  }

  // [engine]
  const auto s_edges_pushed = r.scalar<std::uint64_t>("engine state");
  const auto s_late_rejected = r.scalar<std::uint64_t>("engine state");
  const auto s_reorder_peak = r.scalar<std::uint64_t>("engine state");
  const auto s_last_pushed_ts = r.scalar<Timestamp>("engine state");
  const auto s_reorder_max_seen = r.scalar<Timestamp>("engine state");
  const auto s_reorder_floor = r.scalar<Timestamp>("engine state");
  const auto s_cycles_found = r.scalar<std::uint64_t>("engine state");
  const auto s_batches = r.scalar<std::uint64_t>("engine state");
  const auto s_busy_seconds = r.scalar<double>("engine state");

  // [robust]
  const auto s_overload_raw = r.scalar<std::uint32_t>("overload state");
  if (s_overload_raw >= static_cast<std::uint32_t>(kOverloadLevels)) {
    corrupt("overload level out of range");
  }
  const auto s_overload_shifts = r.scalar<std::uint64_t>("overload state");
  const auto s_calm_batches = r.scalar<std::uint64_t>("overload state");
  const auto s_edges_shed = r.scalar<std::uint64_t>("overload state");
  const auto s_search_errors = r.scalar<std::uint64_t>("overload state");
  std::vector<SinkGuardStats> s_guard_stats(deltas_.size());
  for (std::size_t lane = 0; lane < deltas_.size(); ++lane) {
    SinkGuardStats& gs = s_guard_stats[lane];
    gs.delivered = r.scalar<std::uint64_t>("sink guard stats");
    gs.errors = r.scalar<std::uint64_t>("sink guard stats");
    gs.dropped = r.scalar<std::uint64_t>("sink guard stats");
    gs.quarantined = r.scalar<std::uint8_t>("sink guard stats") != 0;
  }

  // [counters]
  std::vector<LaneCounters> s_lanes(deltas_.size());
  for (LaneCounters& c : s_lanes) {
    c.work = read_work_counters(r);
    c.cycles = r.scalar<std::uint64_t>("lane counters");
    c.escalated = r.scalar<std::uint64_t>("lane counters");
    for (int b = 0; b < Log2Histogram::kBuckets; ++b) {
      c.latency.buckets[b] = r.scalar<std::uint64_t>("lane counters");
    }
    c.latency.sum = r.scalar<std::uint64_t>("lane counters");
    c.latency.max = r.scalar<std::uint64_t>("lane counters");
  }

  // [graph]
  SlidingWindowGraph::RestoreState state;
  const auto num_vertices = r.scalar<std::uint64_t>("graph state");
  if (num_vertices > std::numeric_limits<VertexId>::max()) {
    corrupt("implausible vertex count");
  }
  state.num_vertices = static_cast<VertexId>(num_vertices);
  state.watermark = r.scalar<Timestamp>("graph state");
  state.last_ts = r.scalar<Timestamp>("graph state");
  state.next_id = r.scalar<EdgeId>("graph state");
  state.total_ingested = r.scalar<std::uint64_t>("graph state");
  state.total_expired = r.scalar<std::uint64_t>("graph state");
  state.expiry_epochs = r.scalar<std::uint64_t>("graph state");
  state.compactions = r.scalar<std::uint64_t>("graph state");
  state.compacted_slots = r.scalar<std::uint64_t>("graph state");
  const auto live_count =
      r.count(3 * sizeof(VertexId) + sizeof(Timestamp), "live edges");
  state.live_edges.reserve(live_count);
  for (std::uint64_t i = 0; i < live_count; ++i) {
    TemporalEdge e = r.edge_site("live edge");
    e.id = r.scalar<EdgeId>("live edge id");
    state.live_edges.push_back(e);
  }

  // [pending] and [reorder]
  const std::size_t site_bytes = 2 * sizeof(VertexId) + sizeof(Timestamp);
  const auto pending_count = r.count(site_bytes, "pending batch");
  std::vector<TemporalEdge> s_pending;
  s_pending.reserve(std::max<std::size_t>(pending_count, options_.batch_size));
  for (std::uint64_t i = 0; i < pending_count; ++i) {
    s_pending.push_back(r.edge_site("pending edge"));
  }
  const auto reorder_count = r.count(site_bytes, "reorder buffer");
  std::vector<TemporalEdge> s_reorder;
  s_reorder.reserve(reorder_count);
  for (std::uint64_t i = 0; i < reorder_count; ++i) {
    s_reorder.push_back(r.edge_site("reorder edge"));
  }
  if (!r.exhausted()) {
    corrupt("trailing bytes after payload");
  }

  // The buffered edges must reach the graph in non-decreasing timestamp
  // order once released, or the first batch after the restore would throw
  // out of ingest. A valid engine keeps graph <= pending <= last pushed and,
  // with a slack, last pushed <= floor <= every reorder edge <= max_seen.
  if (s_reorder_floor > s_reorder_max_seen) {
    corrupt("reorder floor above the newest accepted timestamp");
  }
  Timestamp prev_ts = state.total_ingested > 0
                          ? state.last_ts
                          : std::numeric_limits<Timestamp>::min();
  for (const TemporalEdge& e : s_pending) {
    if (e.ts < prev_ts) {
      corrupt("pending edges precede the graph or each other");
    }
    prev_ts = e.ts;
  }
  if (s_last_pushed_ts < prev_ts) {
    corrupt("last pushed timestamp precedes the pending batch or the graph");
  }
  if (!s_reorder.empty() && options_.reorder_slack == 0) {
    corrupt("reorder buffer restored into an engine with reorder_slack 0");
  }
  // A slack-0 engine keeps no floor. Resumed under a slack, its newest
  // pushed edge becomes the floor, so an older arrival counts as late
  // instead of reaching the graph out of order.
  Timestamp floor = s_reorder_floor;
  Timestamp max_seen = s_reorder_max_seen;
  if (options_.reorder_slack > 0) {
    floor = std::max(floor, s_last_pushed_ts);
    max_seen = std::max(max_seen, floor);
  }
  for (const TemporalEdge& e : s_reorder) {
    if (e.ts < floor || e.ts > max_seen) {
      corrupt("reorder edge outside [floor, max_seen]");
    }
  }

  // ---- Commit phase. graph_.restore still performs semantic validation and
  // is the first commit step: on failure it leaves the graph empty (still a
  // fresh engine), and no other member has been written yet.
  try {
    graph_.restore(state);
  } catch (const std::invalid_argument& err) {
    // Checksum-valid but semantically inconsistent: same contract as any
    // other corruption.
    corrupt(err.what());
  }
  edges_pushed_ = s_edges_pushed;
  late_rejected_ = s_late_rejected;
  reorder_peak_buffered_ = s_reorder_peak;
  last_pushed_ts_ = s_last_pushed_ts;
  reorder_max_seen_ = max_seen;
  reorder_floor_ = floor;
  cycles_found_ = s_cycles_found;
  batches_ = s_batches;
  busy_seconds_ = s_busy_seconds;
  overload_level_ = static_cast<OverloadLevel>(s_overload_raw);
  overload_shifts_ = s_overload_shifts;
  calm_batches_ = s_calm_batches;
  edges_shed_ = s_edges_shed;
  search_errors_ = s_search_errors;
  for (std::size_t lane = 0; lane < deltas_.size(); ++lane) {
    // Counters land merged on worker 0; stats() only ever sums across
    // workers, so the split is unobservable.
    sinks_[0]->lanes[lane] = s_lanes[lane];
    // Guard counters re-seed a live guard; on an unguarded engine the saved
    // totals still exist in the snapshot but have no runtime object to live
    // in, so they are dropped.
    if (sink_guards_[lane] != nullptr) {
      sink_guards_[lane]->restore_stats(s_guard_stats[lane]);
    }
  }
  pending_ = std::move(s_pending);
  // The ring covers the restored span too, so a snapshot taken under a
  // larger slack restores into a smaller one.
  reorder_.reset(std::max(static_cast<std::uint64_t>(options_.reorder_slack),
                          static_cast<std::uint64_t>(max_seen) -
                              static_cast<std::uint64_t>(floor)),
                 floor);
  for (const TemporalEdge& e : s_reorder) {
    reorder_.insert(e.src, e.dst, e.ts);
  }
}

void StreamEngine::save_snapshot_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    corrupt("cannot open '" + path + "' for writing");
  }
  save_snapshot(out);
  out.flush();
  if (!out) {
    corrupt("write to '" + path + "' failed");
  }
}

void StreamEngine::restore_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    corrupt("cannot open '" + path + "' for reading");
  }
  restore_snapshot(in);
}

}  // namespace parcycle
