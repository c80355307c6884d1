// Internal search cores of the Read-Tarjan algorithm, shared by the serial
// and coarse-grained drivers (read_tarjan.cpp) and the fine-grained driver
// (fine_read_tarjan.cpp).
//
// Formulation (Sections 3.4 and 6 of the paper): a recursive
// call owns a current path Pi and a path extension E (a known way to close Pi
// into a cycle). The call reports Pi + E, then walks along E; before each hop
// it searches for an alternate extension that deviates from E at the current
// frontier. Every alternate spawns a child call. Cycles are partitioned by
// the first edge at which they deviate, so each cycle is reported by exactly
// one call — the call count is exactly the cycle count, which is what makes
// the fine-grained version work-efficient.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/cycle_types.hpp"
#include "core/johnson_impl.hpp"  // kUnboundedRem, prepare_start
#include "core/options.hpp"
#include "core/rt_state.hpp"
#include "core/window_context.hpp"
#include "graph/digraph.hpp"
#include "graph/scc.hpp"
#include "graph/temporal_graph.hpp"

namespace parcycle::detail {

// One hop of a path extension: the edge taken and the vertex it reaches.
struct ExtStep {
  VertexId dst;
  EdgeId edge;
};

using ExtPath = std::vector<ExtStep>;

// A deferred child call: rewind the state to (path_len, log_len), then walk
// `ext` with `excluded` forbidden as first hops at the entry frontier.
struct RTChild {
  std::size_t path_len;
  std::size_t log_len;
  ExtPath ext;
  std::vector<EdgeId> excluded_edges;      // windowed mode
  std::vector<VertexId> excluded_targets;  // static mode
};

using ChildFn = std::function<void(RTChild&&)>;

// ---------------------------------------------------------------------------
// Windowed (temporal graph) core.
// ---------------------------------------------------------------------------
class WindowedRTCore {
 public:
  WindowedRTCore(const TemporalGraph& graph, const EnumOptions& options,
                 CycleSink* sink)
      : graph_(graph),
        options_(options),
        sink_(sink),
        bounded_(options.max_cycle_length > 0) {}

  void bind(ReadTarjanState& state, const StartContext& ctx) {
    state_ = &state;
    ctx_ = ctx;
  }

  const StartContext& ctx() const noexcept { return ctx_; }

  // Sets up the root of starting edge e0 on a reset state: binds the core
  // to it and pushes [tail, head]. Returns false, with the state untouched,
  // when no cycle of two or more edges can pass through e0.
  bool prepare_root(const TemporalEdge& e0, Timestamp window,
                    CycleUnionScratch& cycle_union, ReadTarjanState& state);

  // Finds the initial extension from the head of the starting edge; the path
  // must already be [tail, head]. Returns false when no cycle exists.
  bool find_root_extension(ExtPath& out) {
    static const std::vector<EdgeId> kNone;
    return find_alternate(kNone, out);
  }

  // Executes one Read-Tarjan call: reports path+ext, walks ext, emits one
  // RTChild per alternate extension found. Returns cycles reported (1).
  std::uint64_t walk(const ExtPath& ext,
                     const std::vector<EdgeId>& excluded_first,
                     const ChildFn& on_child);

  // Searches for a path extension frontier -> tail whose first edge is
  // admissible and not in `excluded`. Marks dead ends in the state log.
  bool find_alternate(const std::vector<EdgeId>& excluded, ExtPath& out);

 private:
  bool dfs_to_tail(VertexId u, std::int32_t budget, ExtPath& out);
  std::int32_t frontier_budget() const noexcept {
    if (!bounded_) {
      return kUnboundedRem;
    }
    const auto used = static_cast<std::int32_t>(state_->path_length() - 1);
    return options_.max_cycle_length - used;
  }
  void report(const ExtPath& ext);

  const TemporalGraph& graph_;
  const EnumOptions& options_;
  CycleSink* sink_;
  bool bounded_;
  ReadTarjanState* state_ = nullptr;
  StartContext ctx_;
  std::vector<VertexId> vertex_scratch_;
  std::vector<EdgeId> edge_scratch_;
};

// ---------------------------------------------------------------------------
// Static (digraph) core: cycles rooted at their smallest vertex; the search
// from root s is confined to the SCC of s within the subgraph {v >= s}.
// ---------------------------------------------------------------------------
class StaticRTCore {
 public:
  StaticRTCore(const Digraph& graph, const EnumOptions& options,
               CycleSink* sink)
      : graph_(graph),
        options_(options),
        sink_(sink),
        bounded_(options.max_cycle_length > 0) {}

  void bind(ReadTarjanState& state, VertexId root, const SccResult& scc) {
    state_ = &state;
    root_ = root;
    scc_ = &scc;
    root_component_ = scc.component[root];
  }

  bool find_root_extension(ExtPath& out) {
    static const std::vector<VertexId> kNone;
    return find_alternate(kNone, out);
  }

  std::uint64_t walk(const ExtPath& ext,
                     const std::vector<VertexId>& excluded_first,
                     const ChildFn& on_child);

  bool find_alternate(const std::vector<VertexId>& excluded, ExtPath& out);

 private:
  bool in_subgraph(VertexId w) const noexcept {
    return w >= root_ && scc_->component[w] == root_component_;
  }
  bool dfs_to_root(VertexId u, std::int32_t budget, ExtPath& out);
  std::int32_t frontier_budget() const noexcept {
    if (!bounded_) {
      return kUnboundedRem;
    }
    const auto used = static_cast<std::int32_t>(state_->path_length() - 1);
    return options_.max_cycle_length - used;
  }
  void report(const ExtPath& ext);

  const Digraph& graph_;
  const EnumOptions& options_;
  CycleSink* sink_;
  bool bounded_;
  ReadTarjanState* state_ = nullptr;
  VertexId root_ = 0;
  const SccResult* scc_ = nullptr;
  VertexId root_component_ = 0;
  std::vector<VertexId> vertex_scratch_;
};

}  // namespace parcycle::detail
