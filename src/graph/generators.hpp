// Graph generators: deterministic synthetic inputs for tests, examples and
// benchmarks.
//
// Three families:
//  1. Structured graphs with closed-form cycle counts (complete digraphs,
//     directed rings, DAGs) for correctness tests.
//  2. The adversarial constructions from the paper's figures (3a, 4a, 5a, 6a)
//     that separate Tiernan / Johnson / Read-Tarjan behaviour.
//  3. Random graphs: Erdos-Renyi digraphs, and a scale-free temporal
//     multigraph generator that substitutes for the SNAP/Konect datasets the
//     paper uses (see "Real datasets" in the README).
#pragma once

#include <cstdint>

#include "graph/digraph.hpp"
#include "graph/temporal_graph.hpp"

namespace parcycle {

// -- Structured ------------------------------------------------------------

// Complete digraph on n vertices: every ordered pair (u, v), u != v.
// Number of simple cycles: sum_{k=2..n} C(n, k) * (k-1)!.
Digraph complete_digraph(VertexId n);

// Directed ring 0 -> 1 -> ... -> n-1 -> 0 (exactly one simple cycle).
Digraph directed_ring(VertexId n);

// Random DAG: edges only from lower to higher ids, each present with
// probability p. Contains no cycles by construction.
Digraph random_dag(VertexId n, double p, std::uint64_t seed);

// -- Paper figures -----------------------------------------------------------

// Figure 3a spirit: two vertex-disjoint chains (w and u, length m) from v1 to
// v2 closing through v2 -> v0 -> v1, plus a dead-end chain b1..bk reachable
// from every chain vertex. Tiernan explores the dead-end chain 2m times;
// Johnson blocks it after one visit. Exactly 2 simple cycles.
Digraph johnson_adversarial_graph(VertexId m, VertexId k);

// Figure 4a: v0 -> v1; for i >= 1: v_i -> v0 and v_i -> v_j for all j > i.
// All 2^(n-2) simple cycles pass through edge v0 -> v1, so any coarse-grained
// parallelisation degenerates to a single thread.
Digraph figure4a_graph(VertexId n);

// Figure 5a spirit: v0 -> v1, v1 -> u_i (i = 1..4), u_i -> v2, v2 -> v0 gives
// c = 4 cycles; v2 additionally feeds a diamond chain of `m` stages (an
// infeasible region with 2^m maximal simple paths), so s grows exponentially
// while c stays 4.
Digraph figure5a_graph(VertexId m);

// Figure 6a: the fixed 13-vertex graph used to illustrate copy-on-steal.
Digraph figure6a_graph();

// -- Random ------------------------------------------------------------------

// G(n, m) directed multigraph-free random graph: m distinct edges sampled
// uniformly among ordered pairs (u != v).
Digraph erdos_renyi(VertexId n, std::size_t m, std::uint64_t seed);

// Parameters of the scale-free temporal generator.
struct ScaleFreeTemporalParams {
  VertexId num_vertices = 1000;
  std::size_t num_edges = 10000;
  // Timestamps are integers in [0, time_span).
  Timestamp time_span = 1000000;
  // Preferential-attachment strength; 0 = uniform endpoints, 1 = linear
  // preferential attachment. Controls the degree skew that drives the
  // paper's load-imbalance story.
  double attachment = 0.8;
  // Fraction of edges whose timestamp is drawn near a recent edge of the same
  // source (temporal burstiness); the rest are uniform over the span.
  double burstiness = 0.5;
  // Width of a burst relative to the whole span.
  double burst_width = 0.01;
  bool allow_self_loops = false;
  std::uint64_t seed = 42;
};

TemporalGraph scale_free_temporal(const ScaleFreeTemporalParams& params);

// Uniform-random temporal graph: endpoints uniform, timestamps uniform in
// [0, time_span).
TemporalGraph uniform_temporal(VertexId n, std::size_t m, Timestamp time_span,
                               std::uint64_t seed);

// Assigns fresh uniform timestamps in [0, time_span) to every edge of a
// static digraph.
TemporalGraph with_uniform_timestamps(const Digraph& graph,
                                      Timestamp time_span, std::uint64_t seed);

}  // namespace parcycle
