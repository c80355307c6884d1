#include "temporal/cycle_union.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "support/scheduler.hpp"

namespace parcycle {

namespace {

constexpr Timestamp kNever = std::numeric_limits<Timestamp>::max();
constexpr Timestamp kNegInf = std::numeric_limits<Timestamp>::min();
constexpr std::size_t kBlock = 64;

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

// Per-vertex words of one block's forward pass, all zero between blocks.
// Cache-line aligned: workers push to their own scratch's vectors, and
// neighbouring headers in one line would ping-pong between cores.
struct alignas(64) BlockScratch {
  std::vector<std::uint64_t> reached;  // bit j: start j has arrived here
  std::vector<std::uint64_t> tail_of;  // bit j: this vertex is start j's tail
  std::vector<VertexId> touched;       // vertices with reached != 0
  std::vector<VertexId> tails;         // vertices with tail_of != 0
  std::vector<std::pair<VertexId, std::uint64_t>> group;  // deferred arrivals

  void reach(VertexId v, std::uint64_t bits) {
    if (reached[v] == 0) {
      touched.push_back(v);
    }
    reached[v] |= bits;
  }
};

// Closable bits of the starts [first, first + 64) ∩ edges: one ascending scan
// over (t0_first, t0_last + window] carrying every start at once. Start j is
// seeded at its head once the scan passes t0_j and goes dead once it passes
// t0_j + window; an edge (u -> v, t) carries the live bits of u to v. Edges
// sharing a timestamp all read the state from before their group, so equal
// timestamps never chain.
std::uint64_t closable_block(std::span<const TemporalEdge> edges,
                             Timestamp window, std::size_t first,
                             BlockScratch& s) {
  const std::size_t count = std::min(kBlock, edges.size() - first);
  const TemporalEdge* starts = edges.data() + first;
  std::uint64_t closable = 0;
  std::uint64_t open = 0;  // non-self-loop starts, undecided until resolved
  for (std::size_t j = 0; j < count; ++j) {
    const std::uint64_t bit = std::uint64_t{1} << j;
    if (starts[j].src == starts[j].dst) {
      closable |= bit;  // a self-loop is its own cycle
      continue;
    }
    open |= bit;
    if (s.tail_of[starts[j].src] == 0) {
      s.tails.push_back(starts[j].src);
    }
    s.tail_of[starts[j].src] |= bit;
  }

  const Timestamp end_ts = starts[count - 1].ts + window;
  std::uint64_t live = 0;  // seeded, not yet dead, not yet resolved
  std::size_t seeded = 0;
  std::size_t dead = 0;
  std::size_t i = first_after(edges, first, starts[0].ts);
  while (i < edges.size() && edges[i].ts <= end_ts) {
    const Timestamp t = edges[i].ts;
    for (; seeded < count && starts[seeded].ts < t; ++seeded) {
      const std::uint64_t bit = std::uint64_t{1} << seeded;
      if ((open & bit) != 0) {
        s.reach(starts[seeded].dst, bit);
        live |= bit;
      }
    }
    for (; dead < seeded && starts[dead].ts + window < t; ++dead) {
      live &= ~(std::uint64_t{1} << dead);
    }
    if (live == 0) {
      if (seeded == count) {
        break;
      }
      // Nothing in flight: resume just after the next start's timestamp.
      i = first_after(edges, i, starts[seeded].ts);
      continue;
    }
    s.group.clear();
    for (; i < edges.size() && edges[i].ts == t; ++i) {
      const std::uint64_t bits = s.reached[edges[i].src] & live;
      if ((bits & ~s.reached[edges[i].dst]) != 0) {
        s.group.emplace_back(edges[i].dst, bits);
      }
    }
    for (const auto& [v, bits] : s.group) {
      s.reach(v, bits);
      const std::uint64_t resolved = bits & s.tail_of[v];
      closable |= resolved;
      live &= ~resolved;
    }
  }

  for (const VertexId v : s.touched) {
    s.reached[v] = 0;
  }
  for (const VertexId v : s.tails) {
    s.tail_of[v] = 0;
  }
  s.touched.clear();
  s.tails.clear();
  return closable;
}

}  // namespace

ClosableStarts::ClosableStarts(const TemporalGraph& graph, Timestamp window,
                               const EnumOptions& options, Scheduler* sched) {
  if (!options.use_cycle_union) {
    return;
  }
  const auto edges = graph.edges_by_time();
  const std::size_t num_blocks = (edges.size() + kBlock - 1) / kBlock;
  words_.assign(num_blocks, 0);
  const VertexId n = graph.num_vertices();
  const auto fill = [&](BlockScratch& s, std::size_t block) {
    if (s.reached.empty()) {
      s.reached.assign(n, 0);
      s.tail_of.assign(n, 0);
    }
    words_[block] = closable_block(edges, window, block * kBlock, s);
  };
  if (sched == nullptr) {
    BlockScratch scratch;
    for (std::size_t block = 0; block < num_blocks; ++block) {
      fill(scratch, block);
    }
    return;
  }
  // A block body never waits on other tasks, so a worker runs one block at a
  // time and a per-worker scratch is never shared.
  std::vector<BlockScratch> per_worker(sched->num_workers());
  const std::size_t num_chunks =
      std::max<std::size_t>(std::size_t{32} * sched->num_workers(), 1);
  parallel_for_chunked(*sched, 0, num_blocks, num_chunks,
                       [&](std::size_t block) {
                         fill(per_worker[static_cast<std::size_t>(
                                  Scheduler::current_worker_id())],
                              block);
                       });
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
  const auto departures = graph.out_edges_in_window(head, e0.ts + 1, hi);
  const auto arrivals = graph.in_edges_in_window(tail, e0.ts + 1, hi);
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
