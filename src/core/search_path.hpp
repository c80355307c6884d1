// The path of a prefix-repair search (fine::RepairTask in core/driver.hpp):
// the vertices from the root, the edge that entered each of them, and their
// on-path bits, with the lock a fine run holds while it changes them, the
// search's counters, and the copy a stolen task makes under that lock.
//
// JohnsonState (B-lists), HcState (the barrier trail) and StreamSearchScratch
// (no blocking state) derive from it. A state whose blocking follows the
// path redefines push(), copy_from(), reset() and the two repairs, and calls
// the versions here for the path itself.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "graph/types.hpp"
#include "support/dynamic_bitset.hpp"
#include "support/spinlock.hpp"
#include "support/stats.hpp"

namespace parcycle {

class SearchPath {
 public:
  SearchPath() = default;
  explicit SearchPath(VertexId capacity) { ensure(capacity); }

  // Grows the path to hold vertex ids < capacity; a no-op when it already
  // does. Only an empty path grows.
  void ensure(VertexId capacity) {
    if (capacity <= capacity_) {
      return;
    }
    assert(len_ == 0);
    capacity_ = capacity;
    vertices_.resize(capacity + 1, kInvalidVertex);
    edges_.resize(capacity + 1, kInvalidEdge);
    on_path_.resize(capacity);
  }

  VertexId capacity() const noexcept { return capacity_; }

  std::size_t path_length() const noexcept { return len_; }
  VertexId path_vertex(std::size_t i) const noexcept { return vertices_[i]; }
  // The edge into path_vertex(i); the root's is whatever it was pushed with.
  EdgeId path_edge(std::size_t i) const noexcept { return edges_[i]; }
  const VertexId* path_data() const noexcept { return vertices_.data(); }
  VertexId frontier() const noexcept { return vertices_[len_ - 1]; }
  bool on_path(VertexId v) const noexcept { return on_path_.test(v); }

  void push(VertexId v, EdgeId via_edge) {
    assert(len_ <= capacity_);
    vertices_[len_] = v;
    edges_[len_] = via_edge;
    len_ += 1;
    on_path_.set(v);
  }

  void pop() {
    assert(len_ > 0);
    len_ -= 1;
    on_path_.reset(vertices_[len_]);
  }

  // Keeps the first `len` vertices.
  void truncate(std::size_t len) {
    while (len_ > len) {
      pop();
    }
  }

  // An empty path and zeroed counters.
  void reset() {
    truncate(0);
    counters = WorkCounters{};
  }

  // ---- copy-on-steal ---------------------------------------------------

  Spinlock& lock() noexcept { return lock_; }

  // Copies `victim`'s path into this empty path and counts one state copy.
  // Caller holds victim.lock().
  void copy_from(const SearchPath& victim) {
    assert(len_ == 0);
    ensure(victim.capacity_);
    len_ = victim.len_;
    for (std::size_t i = 0; i < len_; ++i) {
      vertices_[i] = victim.vertices_[i];
      edges_[i] = victim.edges_[i];
      on_path_.set(vertices_[i]);
    }
    counters.state_copies += 1;
  }

  // A task's position at its spawn: what a stolen copy is repaired back to.
  struct Mark {
    std::size_t path_len;
  };
  Mark mark() const noexcept { return {len_}; }
  // With no blocking state, both repairs only truncate the path.
  void repair_to_prefix(const Mark& mark) { truncate(mark.path_len); }
  void naive_restore_to_prefix(std::size_t prefix_len) { truncate(prefix_len); }

  WorkCounters counters;

 private:
  VertexId capacity_ = 0;
  std::vector<VertexId> vertices_;
  std::vector<EdgeId> edges_;
  std::size_t len_ = 0;
  DynamicBitset on_path_;
  Spinlock lock_;
};

}  // namespace parcycle
