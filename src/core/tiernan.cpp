#include "core/tiernan.hpp"

#include <vector>

#include "core/johnson_impl.hpp"
#include "core/window_context.hpp"
#include "support/dynamic_bitset.hpp"

namespace parcycle {

namespace {

// ---- static ----------------------------------------------------------------

class StaticTiernan {
 public:
  StaticTiernan(const Digraph& graph, const EnumOptions& options,
                CycleSink* sink)
      : graph_(graph),
        options_(options),
        sink_(sink),
        on_path_(graph.num_vertices()) {
    path_.reserve(graph.num_vertices());
  }

  EnumResult run() {
    const std::int32_t rem0 = options_.max_cycle_length > 0
                                  ? options_.max_cycle_length
                                  : detail::kUnboundedRem;
    for (VertexId s = 0; s < graph_.num_vertices(); ++s) {
      start_ = s;
      extend(s, rem0);
    }
    return result_;
  }

 private:
  void extend(VertexId v, std::int32_t rem) {
    path_.push_back(v);
    on_path_.set(v);
    result_.work.vertices_visited += 1;
    for (const VertexId w : graph_.out_neighbors(v)) {
      // Smallest-vertex rooting: only vertices >= start may participate, so
      // each cycle is found exactly once.
      if (w < start_) {
        continue;
      }
      result_.work.edges_visited += 1;
      if (w == start_) {
        if (rem >= 1) {
          result_.num_cycles += 1;
          result_.work.cycles_found += 1;
          if (sink_ != nullptr) {
            sink_->on_cycle({path_.data(), path_.size()}, {});
          }
        }
      } else if (rem > 1 && !on_path_.test(w)) {
        extend(w, options_.max_cycle_length > 0 ? rem - 1
                                                : detail::kUnboundedRem);
      }
    }
    on_path_.reset(v);
    path_.pop_back();
  }

  const Digraph& graph_;
  const EnumOptions& options_;
  CycleSink* sink_;
  DynamicBitset on_path_;
  std::vector<VertexId> path_;
  VertexId start_ = 0;
  EnumResult result_;
};

// ---- windowed ----------------------------------------------------------------

class WindowedTiernan {
 public:
  WindowedTiernan(const TemporalGraph& graph, Timestamp window,
                  const EnumOptions& options, CycleSink* sink)
      : graph_(graph),
        window_(window),
        options_(options),
        sink_(sink),
        on_path_(graph.num_vertices()) {
    path_.reserve(graph.num_vertices());
    path_edges_.reserve(graph.num_vertices());
  }

  EnumResult run() {
    for (const auto& e0 : graph_.edges_by_time()) {
      if (e0.src == e0.dst) {
        result_.num_cycles += 1;
        result_.work.cycles_found += 1;
        if (sink_ != nullptr) {
          sink_->on_cycle({&e0.src, 1}, {&e0.id, 1});
        }
        continue;
      }
      ctx_.e0 = e0.id;
      ctx_.tail = e0.src;
      ctx_.head = e0.dst;
      ctx_.t0 = e0.ts;
      ctx_.hi = saturating_add(e0.ts, window_);
      ctx_.cycle_union = nullptr;  // brute force: no pruning of any kind
      const bool bounded = options_.max_cycle_length > 0;
      const std::int32_t rem0 =
          bounded ? options_.max_cycle_length - 1 : detail::kUnboundedRem;
      if (bounded && rem0 < 1) {
        continue;
      }
      path_.assign(1, ctx_.tail);
      path_edges_.assign(1, kInvalidEdge);
      on_path_.set(ctx_.tail);
      extend(ctx_.head, e0.id, rem0);
      on_path_.reset(ctx_.tail);
    }
    return result_;
  }

 private:
  void extend(VertexId v, EdgeId via, std::int32_t rem) {
    path_.push_back(v);
    path_edges_.push_back(via);
    on_path_.set(v);
    result_.work.vertices_visited += 1;
    for (const auto& e : graph_.out_edges_in_window(v, ctx_.t0, ctx_.hi)) {
      if (e.id <= ctx_.e0) {
        continue;
      }
      result_.work.edges_visited += 1;
      if (e.dst == ctx_.tail) {
        if (rem >= 1) {
          result_.num_cycles += 1;
          result_.work.cycles_found += 1;
          report(e.id);
        }
      } else if (rem > 1 && !on_path_.test(e.dst)) {
        extend(e.dst, e.id,
               options_.max_cycle_length > 0 ? rem - 1 : detail::kUnboundedRem);
      }
    }
    on_path_.reset(v);
    path_.pop_back();
    path_edges_.pop_back();
  }

  void report(EdgeId closing_edge) {
    if (sink_ == nullptr) {
      return;
    }
    edge_scratch_.assign(path_edges_.begin() + 1, path_edges_.end());
    edge_scratch_.push_back(closing_edge);
    sink_->on_cycle({path_.data(), path_.size()},
                    {edge_scratch_.data(), edge_scratch_.size()});
  }

  const TemporalGraph& graph_;
  Timestamp window_;
  const EnumOptions& options_;
  CycleSink* sink_;
  DynamicBitset on_path_;
  std::vector<VertexId> path_;
  std::vector<EdgeId> path_edges_;
  std::vector<EdgeId> edge_scratch_;
  StartContext ctx_;
  EnumResult result_;
};

// Maximal-path counting.
class MaximalPathCounter {
 public:
  explicit MaximalPathCounter(const Digraph& graph)
      : graph_(graph), on_path_(graph.num_vertices()) {}

  std::uint64_t count_from(VertexId start) {
    count_ = 0;
    extend(start);
    return count_;
  }

 private:
  void extend(VertexId v) {
    on_path_.set(v);
    bool extended = false;
    for (const VertexId w : graph_.out_neighbors(v)) {
      if (!on_path_.test(w)) {
        extended = true;
        extend(w);
      }
    }
    if (!extended) {
      count_ += 1;  // no admissible continuation: the path is maximal
    }
    on_path_.reset(v);
  }

  const Digraph& graph_;
  DynamicBitset on_path_;
  std::uint64_t count_ = 0;
};

}  // namespace

EnumResult tiernan_simple_cycles(const Digraph& graph,
                                 const EnumOptions& options, CycleSink* sink) {
  if (graph.num_vertices() == 0) {
    return {};
  }
  return StaticTiernan(graph, options, sink).run();
}

EnumResult tiernan_windowed_cycles(const TemporalGraph& graph,
                                   Timestamp window,
                                   const EnumOptions& options,
                                   CycleSink* sink) {
  if (graph.num_vertices() == 0) {
    return {};
  }
  return WindowedTiernan(graph, window, options, sink).run();
}

std::uint64_t count_maximal_simple_paths_from(const Digraph& graph,
                                              VertexId start) {
  return MaximalPathCounter(graph).count_from(start);
}

}  // namespace parcycle
