#include "stream/sliding_window_graph.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace parcycle {

namespace {

// Erase a dead prefix only once it outweighs the live suffix (and is big
// enough that the memmove is amortised over many expiries).
constexpr std::size_t kMinCompactPrefix = 32;

template <typename Vec, typename Head>
bool should_compact(const Vec& vec, Head head) {
  const std::size_t dead = head;
  return dead >= kMinCompactPrefix && dead * 2 >= vec.size();
}

}  // namespace

SlidingWindowGraph::SlidingWindowGraph(VertexId num_vertices)
    : adj_(num_vertices),
      last_ts_(std::numeric_limits<Timestamp>::min()),
      watermark_(std::numeric_limits<Timestamp>::min()) {}

void SlidingWindowGraph::ensure_vertex(VertexId v) {
  if (v >= adj_.size()) {
    adj_.resize(static_cast<std::size_t>(v) + 1);
  }
}

EdgeId SlidingWindowGraph::ingest(VertexId src, VertexId dst, Timestamp ts) {
  if (total_ingested_ > 0 && ts < last_ts_) {
    throw std::invalid_argument(
        "SlidingWindowGraph::ingest: timestamps must be non-decreasing");
  }
  if (next_id_ == kInvalidEdge) {
    // EdgeId is 32-bit; wrapping would alias ids of still-live edges and
    // silently corrupt reported cycles. Fail loudly instead — re-basing ids
    // across an id-space epoch is a documented streaming follow-on.
    throw std::overflow_error(
        "SlidingWindowGraph::ingest: edge id space exhausted (2^32-1 edges)");
  }
  ensure_vertex(std::max(src, dst));
  const EdgeId id = next_id_++;
  adj_[src].out.push_back(OutEdge{.ts = ts, .dst = dst, .id = id});
  adj_[dst].in.push_back(InEdge{.ts = ts, .src = src, .id = id});
  log_.push_back(TemporalEdge{src, dst, ts, id});
  last_ts_ = ts;
  total_ingested_ += 1;
  return id;
}

void SlidingWindowGraph::expire_before(Timestamp cutoff) {
  if (cutoff <= watermark_) {
    return;  // the watermark never moves backwards
  }
  watermark_ = cutoff;
  expiry_epochs_ += 1;
  while (log_head_ < log_.size() && log_[log_head_].ts < cutoff) {
    const TemporalEdge& e = log_[log_head_];
    // The globally-oldest live edge is by construction the head of both its
    // endpoint lists (per-vertex order is arrival order), so expiring it is
    // one cursor bump per side.
    VertexAdj& src_adj = adj_[e.src];
    VertexAdj& dst_adj = adj_[e.dst];
    src_adj.out_head += 1;
    dst_adj.in_head += 1;
    if (should_compact(src_adj.out, src_adj.out_head)) {
      compactions_ += 1;
      compacted_slots_ += src_adj.out_head;
      src_adj.out.erase(src_adj.out.begin(),
                        src_adj.out.begin() +
                            static_cast<std::ptrdiff_t>(src_adj.out_head));
      src_adj.out_head = 0;
    }
    if (should_compact(dst_adj.in, dst_adj.in_head)) {
      compactions_ += 1;
      compacted_slots_ += dst_adj.in_head;
      dst_adj.in.erase(dst_adj.in.begin(),
                       dst_adj.in.begin() +
                           static_cast<std::ptrdiff_t>(dst_adj.in_head));
      dst_adj.in_head = 0;
    }
    log_head_ += 1;
    total_expired_ += 1;
  }
  if (should_compact(log_, log_head_)) {
    compactions_ += 1;
    compacted_slots_ += log_head_;
    log_.erase(log_.begin(), log_.begin() + static_cast<std::ptrdiff_t>(log_head_));
    log_head_ = 0;
  }
}

std::span<const SlidingWindowGraph::OutEdge> SlidingWindowGraph::out_edges(
    VertexId v) const noexcept {
  const VertexAdj& a = adj_[v];
  return {a.out.data() + a.out_head, a.out.data() + a.out.size()};
}

std::span<const SlidingWindowGraph::InEdge> SlidingWindowGraph::in_edges(
    VertexId v) const noexcept {
  const VertexAdj& a = adj_[v];
  return {a.in.data() + a.in_head, a.in.data() + a.in.size()};
}

std::span<const SlidingWindowGraph::OutEdge>
SlidingWindowGraph::out_edges_in_window(VertexId v, Timestamp lo,
                                        Timestamp hi) const noexcept {
  const auto all = out_edges(v);
  const auto first = std::lower_bound(
      all.begin(), all.end(), lo,
      [](const OutEdge& e, Timestamp t) { return e.ts < t; });
  const auto last = std::upper_bound(
      first, all.end(), hi,
      [](Timestamp t, const OutEdge& e) { return t < e.ts; });
  return {first, last};
}

std::span<const SlidingWindowGraph::InEdge>
SlidingWindowGraph::in_edges_in_window(VertexId v, Timestamp lo,
                                       Timestamp hi) const noexcept {
  const auto all = in_edges(v);
  const auto first = std::lower_bound(
      all.begin(), all.end(), lo,
      [](const InEdge& e, Timestamp t) { return e.ts < t; });
  const auto last = std::upper_bound(
      first, all.end(), hi,
      [](Timestamp t, const InEdge& e) { return t < e.ts; });
  return {first, last};
}

void SlidingWindowGraph::restore(const RestoreState& state) {
  // Reset to empty first so a validation failure cannot leave a
  // half-restored window behind.
  *this = SlidingWindowGraph(state.num_vertices);

  const auto fail = [](const char* what) {
    throw std::invalid_argument(
        std::string("SlidingWindowGraph::restore: ") + what);
  };
  if (state.total_ingested - state.total_expired != state.live_edges.size()) {
    fail("ingest/expiry totals disagree with the live edge count");
  }
  if (state.next_id != state.total_ingested ||
      state.next_id == kInvalidEdge) {
    fail("next edge id disagrees with the ingest total");
  }
  // Live edges must be exactly the arrival ranks [total_expired, next_id),
  // in order, with non-decreasing timestamps at or above the watermark.
  EdgeId expect_id = static_cast<EdgeId>(state.total_expired);
  Timestamp prev_ts = std::numeric_limits<Timestamp>::min();
  for (const TemporalEdge& e : state.live_edges) {
    if (e.id != expect_id) {
      fail("live edge ids are not the contiguous arrival-rank suffix");
    }
    if (e.ts < prev_ts) {
      fail("live edge timestamps regress");
    }
    if (e.ts < state.watermark) {
      fail("live edge precedes the watermark");
    }
    expect_id += 1;
    prev_ts = e.ts;
  }
  if (!state.live_edges.empty() && state.live_edges.back().ts > state.last_ts) {
    fail("last-timestamp field precedes the newest live edge");
  }

  for (const TemporalEdge& e : state.live_edges) {
    ensure_vertex(std::max(e.src, e.dst));
    adj_[e.src].out.push_back(OutEdge{.ts = e.ts, .dst = e.dst, .id = e.id});
    adj_[e.dst].in.push_back(InEdge{.ts = e.ts, .src = e.src, .id = e.id});
    log_.push_back(e);
  }
  watermark_ = state.watermark;
  last_ts_ = state.last_ts;
  next_id_ = state.next_id;
  total_ingested_ = state.total_ingested;
  total_expired_ = state.total_expired;
  expiry_epochs_ = state.expiry_epochs;
  compactions_ = state.compactions;
  compacted_slots_ = state.compacted_slots;
}

TemporalGraph SlidingWindowGraph::snapshot() const {
  std::vector<TemporalEdge> edges(log_.begin() + static_cast<std::ptrdiff_t>(log_head_),
                                  log_.end());
  return TemporalGraph(num_vertices(), std::move(edges));
}

}  // namespace parcycle
