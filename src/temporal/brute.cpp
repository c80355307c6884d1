#include "temporal/brute.hpp"

#include <vector>

#include "core/johnson_impl.hpp"
#include "support/dynamic_bitset.hpp"

namespace parcycle {

namespace {

class BruteTemporal {
 public:
  BruteTemporal(const TemporalGraph& graph, Timestamp window,
                const EnumOptions& options, CycleSink* sink)
      : graph_(graph),
        window_(window),
        options_(options),
        sink_(sink),
        on_path_(graph.num_vertices()) {}

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
      tail_ = e0.src;
      hi_ = saturating_add(e0.ts, window_);
      const bool bounded = options_.max_cycle_length > 0;
      const std::int32_t rem0 =
          bounded ? options_.max_cycle_length - 1 : detail::kUnboundedRem;
      if (rem0 < 1) {
        continue;
      }
      path_.assign(1, tail_);
      path_edges_.assign(1, kInvalidEdge);
      on_path_.set(tail_);
      extend(e0.dst, e0.id, e0.ts, rem0);
      on_path_.reset(tail_);
    }
    return result_;
  }

 private:
  void extend(VertexId v, EdgeId via, Timestamp arrival, std::int32_t rem) {
    path_.push_back(v);
    path_edges_.push_back(via);
    on_path_.set(v);
    result_.work.vertices_visited += 1;
    // Strictly increasing timestamps within the window.
    for (const auto& e : graph_.out_edges_after(v, arrival, hi_)) {
      result_.work.edges_visited += 1;
      if (e.dst == tail_) {
        if (rem >= 1) {
          result_.num_cycles += 1;
          result_.work.cycles_found += 1;
          report(e.id);
        }
      } else if (rem > 1 && !on_path_.test(e.dst)) {
        extend(e.dst, e.id, e.ts,
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
  VertexId tail_ = 0;
  Timestamp hi_ = 0;
  EnumResult result_;
};

}  // namespace

EnumResult brute_temporal_cycles(const TemporalGraph& graph, Timestamp window,
                                 const EnumOptions& options, CycleSink* sink) {
  if (graph.num_vertices() == 0) {
    return {};
  }
  return BruteTemporal(graph, window, options, sink).run();
}

}  // namespace parcycle
