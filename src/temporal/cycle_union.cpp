#include "temporal/cycle_union.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

namespace parcycle {

namespace {

constexpr Timestamp kNever = std::numeric_limits<Timestamp>::max();
constexpr Timestamp kNegInf = std::numeric_limits<Timestamp>::min();

// Index of the first edge at or after `from` with ts > bound.
std::size_t first_after(std::span<const TemporalEdge> edges, std::size_t from,
                        Timestamp bound) {
  return static_cast<std::size_t>(
      std::upper_bound(edges.begin() + static_cast<std::ptrdiff_t>(from),
                       edges.end(), bound,
                       [](Timestamp t, const TemporalEdge& e) {
                         return t < e.ts;
                       }) -
      edges.begin());
}

// Bits 0 .. k-1.
constexpr std::uint64_t low_bits(std::size_t k) {
  return k >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << k) - 1;
}

// Index of the highest bit of `lanes` below `limit`, or kNone.
constexpr std::size_t kNone = static_cast<std::size_t>(-1);
std::size_t highest_below(const CycleUnionLanes& lanes, std::size_t limit) {
  for (std::size_t k = (limit + 63) / 64; k-- > 0;) {
    const std::uint64_t word = lanes.words[k] & low_bits(limit - 64 * k);
    if (word != 0) {
      return 64 * k + 63 - static_cast<std::size_t>(std::countl_zero(word));
    }
  }
  return kNone;
}

}  // namespace

void CycleUnionBlock::serve(std::span<const EdgeId> starts) {
  listed_ = true;
  list_ = starts;
  block_ = static_cast<std::size_t>(-1);
}

CycleUnionView CycleUnionBlock::view(EdgeId start) {
  if (!enabled_) {
    return {};
  }
  std::size_t p = start;
  if (listed_) {
    // The held block first: the drivers view its starts in list order.
    auto first = list_.begin();
    auto last = list_.end();
    const std::size_t held = block_ * kStarts;
    if (held < list_.size() && list_[held] <= start &&
        start <= list_[std::min(list_.size(), held + kStarts) - 1]) {
      first += static_cast<std::ptrdiff_t>(held);
      last = first + static_cast<std::ptrdiff_t>(
                         std::min(kStarts, list_.size() - held));
    }
    p = static_cast<std::size_t>(std::lower_bound(first, last, start) -
                                 list_.begin());
    assert(p < list_.size() && list_[p] == start);
  }
  if (block_ != p / kStarts) {
    compute(p / kStarts);
  }
  const std::size_t j = p % kStarts;
  return {union_.data(), j / 64, std::uint64_t{1} << (j % 64)};
}

// Lists v for the next reset the first time `bits` lands in its coreach.
inline void CycleUnionBlock::touch(VertexId v,
                                   const CycleUnionLanes& bits) noexcept {
  touched_[num_touched_] = v;
  num_touched_ +=
      static_cast<std::size_t>(bits.any() && !coreach_[v].any());
}

inline void CycleUnionBlock::reserve_log(std::size_t size) {
  if (log_.size() < size) {
    log_.resize(std::max(size, 2 * log_.size()));
  }
}

void CycleUnionBlock::allocate() {
  if (union_.empty()) {
    const VertexId n = graph_->num_vertices();
    reached_.assign(n, Lanes{});
    coreach_.assign(n, Lanes{});
    union_.assign(n, Lanes{});
    touched_.resize(std::size_t{n} + kStarts + 1);
  }
}

CycleUnionLanes CycleUnionBlock::closable(std::size_t block) {
  assert(enabled_);
  allocate();
  const auto edges = graph_->edges_by_time();
  const std::size_t first = block * kStarts;
  const std::size_t count = std::min(kStarts, edges.size() - first);
  const TemporalEdge* starts = edges.data() + first;
  Lanes open;  // non-self-loop starts
  Lanes loops;
  for (std::size_t j = 0; j < count; ++j) {
    if (starts[j].src == starts[j].dst) {
      loops.set(j);
    } else {
      open.set(j);
    }
  }
  const Scan scan = forward(starts, count, open);
  loops |= tails_reached(starts, count, open);
  for (std::size_t k = 0; k < scan.logged; ++k) {
    reached_[log_[k].v] = Lanes{};
  }
  return loops;
}

void CycleUnionBlock::compute(std::size_t block) {
  allocate();
  for (std::size_t k = 0; k < num_touched_; ++k) {
    coreach_[touched_[k]] = Lanes{};
    union_[touched_[k]] = Lanes{};
  }
  num_touched_ = 0;
  block_ = block;
  const auto edges = graph_->edges_by_time();
  const std::size_t first = block * kStarts;
  const TemporalEdge* starts = edges.data() + first;
  std::size_t count = std::min(kStarts, edges.size() - first);
  if (listed_) {
    count = std::min(kStarts, list_.size() - first);
    starts_.resize(count);
    for (std::size_t j = 0; j < count; ++j) {
      starts_[j] = edges[list_[first + j]];
    }
    starts = starts_.data();
  }
  Lanes open;  // non-self-loop starts
  for (std::size_t j = 0; j < count; ++j) {
    Lanes bit;
    bit.set(j);
    touch(starts[j].src, bit);
    if (starts[j].src == starts[j].dst) {
      union_[starts[j].src].set(j);  // a self-loop is its own cycle
    } else {
      open.set(j);
      coreach_[starts[j].src].set(j);  // the tail needs no further hop
    }
  }
  const Scan scan = forward(starts, count, open);
  // Only starts whose tail was reached have a cycle.
  const Lanes closable = tails_reached(starts, count, open);
  backward(starts, count, closable, scan);
  // A reached tail closes its own cycle.
  for (std::size_t j = 0; j < count; ++j) {
    if (closable.test(j)) {
      union_[starts[j].src].set(j);
    }
  }
  for (std::size_t k = 0; k < scan.logged; ++k) {
    reached_[log_[k].v] = Lanes{};
  }
}

// Forward: start j is seeded at its head once the scan passes t0_j and
// dies once it passes t0_j + window; an edge (u -> v, t) carries the live
// bits of u to v. Arrivals are logged in ascending time.
CycleUnionBlock::Scan CycleUnionBlock::forward(const TemporalEdge* starts,
                                               std::size_t count,
                                               const Lanes& open) {
  const auto edges = graph_->edges_by_time();
  const Timestamp end_ts = saturating_add(starts[count - 1].ts, window_);
  const std::size_t begin = first_after(edges, starts[0].id, starts[0].ts);
  std::size_t num_log = 0;
  Lanes live;
  std::size_t seeded = 0;
  std::size_t dead = 0;
  std::size_t i = begin;
  while (i < edges.size() && edges[i].ts <= end_ts) {
    const Timestamp t = edges[i].ts;
    reserve_log(num_log + kStarts + 1);
    for (; seeded < count && starts[seeded].ts < t; ++seeded) {
      if (open.test(seeded)) {
        Lanes bit;
        bit.set(seeded);
        reached_[starts[seeded].dst] |= bit;
        log_[num_log++] = {starts[seeded].ts, starts[seeded].dst, bit};
        live.set(seeded);
      }
    }
    for (; dead < seeded && saturating_add(starts[dead].ts, window_) < t;
         ++dead) {
      live.reset(dead);
    }
    if (!live.any()) {
      if (seeded == count) {
        break;
      }
      // Nothing in flight: resume just after the next start's timestamp.
      i = first_after(edges, i, starts[seeded].ts);
      continue;
    }
    if (i + 1 == edges.size() || edges[i + 1].ts != t) {
      // A group of one edge has nothing to defer.
      const TemporalEdge& e = edges[i++];
      const Lanes bits = reached_[e.src] & live & ~reached_[e.dst];
      reached_[e.dst] |= bits;
      log_[num_log] = {t, e.dst, bits};
      num_log += static_cast<std::size_t>(bits.any());
      continue;
    }
    group_.clear();
    for (; i < edges.size() && edges[i].ts == t; ++i) {
      const Lanes bits =
          reached_[edges[i].src] & live & ~reached_[edges[i].dst];
      if (bits.any()) {
        group_.emplace_back(edges[i].dst, bits);
      }
    }
    reserve_log(num_log + group_.size());
    for (const auto& [v, bits] : group_) {
      const Lanes fresh = bits & ~reached_[v];
      reached_[v] |= fresh;
      log_[num_log] = {t, v, fresh};
      num_log += static_cast<std::size_t>(fresh.any());
    }
  }
  return {begin, i, num_log};
}

// The open starts whose tail the forward scan reached.
CycleUnionLanes CycleUnionBlock::tails_reached(
    const TemporalEdge* starts, std::size_t count,
    const Lanes& open) const noexcept {
  Lanes reached;
  for (std::size_t j = 0; j < count; ++j) {
    if (open.test(j) && reached_[starts[j].src].test(j)) {
      reached.set(j);
    }
  }
  return reached;
}

// Backward: bit j is live while t0_j < t <= t0_j + window. Log entries at
// or after t are undone first, so reached_ holds the arrivals before t.
// Below t0_j no arrival of j is left, so ending j there only lets the scan
// skip ahead sooner.
void CycleUnionBlock::backward(const TemporalEdge* starts, std::size_t count,
                               const Lanes& closable, const Scan& scan) {
  const auto edges = graph_->edges_by_time();
  const std::size_t begin = scan.begin;
  std::size_t num_log = scan.logged;
  std::size_t born = count;   // starts [born, count) have t <= t0 + window
  std::size_t dying = count;  // starts [dying, count) have t <= t0
  Lanes live;
  std::size_t i = scan.end;
  while (i > begin) {
    const Timestamp t = edges[i - 1].ts;
    for (; born > 0 && t <= saturating_add(starts[born - 1].ts, window_);
         --born) {
      if (closable.test(born - 1)) {
        live.set(born - 1);
      }
    }
    for (; dying > 0 && starts[dying - 1].ts >= t; --dying) {
      live.reset(dying - 1);
    }
    if (!live.any()) {
      const std::size_t next = highest_below(closable, born);
      if (next == kNone) {
        break;
      }
      // Nothing in flight: resume at the last edge of the next window.
      i = first_after(edges.first(i), begin,
                      saturating_add(starts[next].ts, window_));
      continue;
    }
    for (; num_log > 0 && log_[num_log - 1].ts >= t; --num_log) {
      reached_[log_[num_log - 1].v] &= ~log_[num_log - 1].bits;
    }
    if (i - 1 == begin || edges[i - 2].ts != t) {
      const TemporalEdge& e = edges[--i];
      const Lanes valid = coreach_[e.dst] & live;
      touch(e.src, valid);
      union_[e.src] |= valid & reached_[e.src];
      coreach_[e.src] |= valid;
      continue;
    }
    group_.clear();
    for (; i > begin && edges[i - 1].ts == t; --i) {
      const TemporalEdge& e = edges[i - 1];
      const Lanes valid = coreach_[e.dst] & live;
      if (valid.any()) {
        union_[e.src] |= valid & reached_[e.src];
        group_.emplace_back(e.src, valid);
      }
    }
    for (const auto& [v, bits] : group_) {
      touch(v, bits);
      coreach_[v] |= bits;
    }
  }
}

void TemporalReachScratch::init(VertexId n) {
  earliest_arrival_.assign(n, kNever);
  latest_departure_.assign(n, kNegInf);
  touched_.clear();
}

bool TemporalReachScratch::compute(const TemporalGraph& graph,
                                   const TemporalEdge& e0, Timestamp hi) {
  for (const VertexId v : touched_) {
    earliest_arrival_[v] = kNever;
    latest_departure_[v] = kNegInf;
  }
  touched_.clear();
  const VertexId head = e0.dst;
  const VertexId tail = e0.src;
  if (head == tail) {
    earliest_arrival_[head] = e0.ts;
    latest_departure_[head] = kNever;
    touched_.push_back(head);
    return true;
  }
  // The searchable slice: strictly after t0 (time-increasing cycles), within
  // the window, and — since ids are time ranks — from the head's first
  // departure to the tail's last arrival. Edges before the slice can only
  // leave a vertex no later than any arrival from the head; edges after it
  // can only arrive no earlier than any departure that still reaches the
  // tail; so neither changes contains() for any vertex.
  const auto departures = graph.out_edges_after(head, e0.ts, hi);
  const auto arrivals = graph.in_edges_after(tail, e0.ts, hi);
  if (departures.empty() || arrivals.empty() ||
      departures.front().id > arrivals.back().id) {
    return false;
  }
  const auto edges = graph.edges_by_time();
  const std::size_t begin = departures.front().id;
  const std::size_t end = std::size_t{arrivals.back().id} + 1;

  // Forward pass (ascending time): earliest strictly-increasing arrival.
  // Arriving at the head via e0 at t0: the next hop must be > t0.
  earliest_arrival_[head] = e0.ts;
  touched_.push_back(head);
  for (std::size_t i = begin; i < end; ++i) {
    const TemporalEdge& e = edges[i];
    if (e.ts > earliest_arrival_[e.src] && earliest_arrival_[e.dst] == kNever) {
      earliest_arrival_[e.dst] = e.ts;  // first hit is earliest: ascending
      touched_.push_back(e.dst);
    }
  }
  if (earliest_arrival_[tail] == kNever) {
    return false;  // the tail is not temporally reachable: no cycle
  }

  // Backward pass (descending time): latest departure that still reaches the
  // tail. An edge u -> tail is itself a valid departure at its timestamp.
  // Vertices the forward pass missed get a departure too, so intermediate
  // hops chain; contains() rules them out by their arrival.
  latest_departure_[tail] = kNever;  // closing the cycle needs no further hop
  for (std::size_t i = end; i-- > begin;) {
    const TemporalEdge& e = edges[i];
    if (latest_departure_[e.dst] > e.ts &&
        latest_departure_[e.src] == kNegInf) {
      latest_departure_[e.src] = e.ts;  // first hit is latest: descending
      touched_.push_back(e.src);
    }
  }
  // The head's own arrival is t0; contains(head) holds iff some departure
  // > t0 exists, which is exactly the condition for any cycle.
  return contains(head);
}

}  // namespace parcycle
