// Mutable search state of the Read-Tarjan algorithm, for every flavour:
// static and windowed simple cycles mark dead ends by remaining hop budget,
// temporal cycles by arrival time (BudgetMarks / ArrivalMarks below).
//
// Unlike Johnson's state, all blocking here is call-local and evolves
// monotonically along a root-to-leaf chain of the recursion tree, so it is
// kept as an undo log: every write to a vertex's dead-end mark appends
// (vertex, old, new). Rewinding a task switch is `truncate_log`, and a stolen
// task reconstructs the spawn-time state by replaying the log prefix onto a
// fresh state.
//
// Copy-on-steal needs no locking at all for this state: a thief only ever
// reads path/log entries below its task's spawn-time prefix. Those entries
// were written before the task was pushed into the deque (release) and read
// after a successful steal (acquire), and the per-call TaskGroup wait
// guarantees the victim cannot rewind below a live task's prefix. This is the
// mechanical reason the paper's fine-grained Read-Tarjan has "much shorter
// critical sections" than fine-grained Johnson — here they are empty.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/types.hpp"
#include "support/dynamic_bitset.hpp"
#include "support/spinlock.hpp"
#include "support/stats.hpp"

namespace parcycle {

// Marks keyed by remaining hop budget: mark m on v means reaching v with a
// budget of m or less cannot close the cycle.
struct BudgetMarks {
  using Key = std::int32_t;
  static constexpr Key kUnmarked = -1;
  static bool passes(Key key, Key mark) noexcept { return key > mark; }
};

// Marks keyed by arrival time: mark t on v means arriving at v at any time
// >= t cannot close the cycle (later arrivals only ever see fewer usable
// out-edges).
struct ArrivalMarks {
  using Key = Timestamp;
  static constexpr Key kUnmarked = std::numeric_limits<Timestamp>::max();
  static bool passes(Key key, Key mark) noexcept { return key < mark; }
};

// One hop of a path or path extension: the vertex reached, the edge taken
// to it and that edge's timestamp (the arrival). Static graphs have no edge
// ids or timestamps and leave them kInvalidEdge and 0. Laid out as
// TemporalGraph::OutEdge, so reading an out-edge as a hop is one copy.
struct RTHop {
  Timestamp ts;
  VertexId v;
  EdgeId edge;
};

template <typename Marks>
class ReadTarjanState {
 public:
  using Key = typename Marks::Key;
  static constexpr Key kUnmarked = Marks::kUnmarked;

  struct LogEntry {
    VertexId v;
    Key old_mark;
    Key new_mark;
  };

  ReadTarjanState() = default;
  explicit ReadTarjanState(VertexId capacity) { init(capacity); }

  void init(VertexId capacity) {
    capacity_ = capacity;
    path_.assign(capacity + 1, RTHop{0, kInvalidVertex, kInvalidEdge});
    path_len_ = 0;
    on_path_.resize(capacity);
    marks_.assign(capacity, kUnmarked);
    log_.clear();
  }

  void reset() {
    truncate_log(0);
    truncate_path(0);
    counters = WorkCounters{};
  }

  VertexId capacity() const noexcept { return capacity_; }

  // ---- path ------------------------------------------------------------

  std::size_t path_length() const noexcept { return path_len_; }
  VertexId path_vertex(std::size_t i) const noexcept { return path_[i].v; }
  EdgeId path_edge(std::size_t i) const noexcept { return path_[i].edge; }
  Timestamp path_arrival(std::size_t i) const noexcept { return path_[i].ts; }
  VertexId frontier() const noexcept { return path_[path_len_ - 1].v; }
  Timestamp frontier_arrival() const noexcept {
    return path_[path_len_ - 1].ts;
  }
  bool on_path(VertexId v) const noexcept { return on_path_.test(v); }

  void push(VertexId v, EdgeId via_edge, Timestamp arrival = 0) {
    assert(path_len_ <= capacity_);
    path_[path_len_] = RTHop{arrival, v, via_edge};
    path_len_ += 1;
    on_path_.set(v);
  }

  void truncate_path(std::size_t len) {
    while (path_len_ > len) {
      path_len_ -= 1;
      on_path_.reset(path_[path_len_].v);
    }
  }

  // ---- blocking --------------------------------------------------------

  Key mark(VertexId v) const noexcept { return marks_[v]; }

  bool can_visit(VertexId v, Key key) const noexcept {
    return !on_path_.test(v) && Marks::passes(key, marks_[v]);
  }

  // Logged write of a mark (both block and restore go through here so the
  // log stays linear). Buffer growth is the one mutation that can invalidate
  // a concurrent thief's lock-free prefix read, so it alone takes the lock;
  // ordinary appends land beyond every live prefix and are safe.
  void logged_set(VertexId v, Key value) {
    if (log_.size() == log_.capacity()) {
      LockGuard<Spinlock> guard(realloc_lock_);
      log_.reserve(log_.empty() ? 256 : 2 * log_.capacity());
    }
    log_.push_back(LogEntry{v, marks_[v], value});
    marks_[v] = value;
  }

  std::size_t log_length() const noexcept { return log_.size(); }

  void truncate_log(std::size_t len) {
    while (log_.size() > len) {
      const LogEntry entry = log_.back();
      log_.pop_back();
      marks_[entry.v] = entry.old_mark;
    }
  }

  // ---- copy-on-steal -----------------------------------------------------

  // Reconstructs the spawn-time snapshot (path_prefix, log_prefix) of
  // `victim` into *this, which must be reset and of equal capacity.
  void copy_prefix_from(ReadTarjanState& victim, std::size_t path_prefix,
                        std::size_t log_prefix) {
    assert(capacity_ == victim.capacity_);
    assert(path_len_ == 0 && log_.empty());
    // Holding the victim's realloc lock pins its log buffer; the entries
    // below the prefix are immutable while the stolen task is live.
    LockGuard<Spinlock> guard(victim.realloc_lock_);
    std::copy_n(victim.path_.begin(), path_prefix, path_.begin());
    path_len_ = path_prefix;
    for (std::size_t i = 0; i < path_prefix; ++i) {
      on_path_.set(path_[i].v);
    }
    log_.assign(victim.log_.begin(),
                victim.log_.begin() + static_cast<std::ptrdiff_t>(log_prefix));
    for (const LogEntry& entry : log_) {
      marks_[entry.v] = entry.new_mark;
    }
    counters.state_copies += 1;
  }

  // ---- same-thread reuse guard -------------------------------------------
  //
  // While a call executes inline on this state, tasks with a spawn-time path
  // prefix shallower than the innermost active frame must not rewind the
  // state in place (they would clobber live frames). The "floor" tracks that
  // bound; it is only ever touched by the owning thread.
  std::size_t floor() const noexcept { return floor_; }
  void set_floor(std::size_t f) noexcept { floor_ = f; }

  WorkCounters counters;

 private:
  VertexId capacity_ = 0;
  std::size_t floor_ = 0;
  std::vector<RTHop> path_;
  std::size_t path_len_ = 0;
  DynamicBitset on_path_;
  std::vector<Key> marks_;
  std::vector<LogEntry> log_;
  Spinlock realloc_lock_;
};

}  // namespace parcycle
