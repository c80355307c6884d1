// SNAP-style edge-list ingestion: one edge per line, "src dst [timestamp]",
// '#' comments, CRLF tolerated. This is the format of the public datasets the
// paper evaluates on (wiki-talk, bitcoin, stackoverflow, ...), so fetched
// graphs drop in without conversion.
//
// Two parsing paths share one line tokenizer:
//  * the istream path (`load_temporal_edge_list`) kept for small inputs and
//    API compatibility, and
//  * a chunked buffer path where the file is split at newline boundaries and
//    the chunks are parsed concurrently as tasks on the Scheduler
//    (`load_temporal_edge_list_parallel`) — the multi-gigabyte hot path.
// Both report the same errors (with 1-based line numbers) and the same
// LoadStats, and produce identical graphs. Both parse in place: a line count
// sizes one edge array up front, every chunk parses into its own slice of
// it, and the slices are packed together in input order. That array moves
// into the TemporalGraph, which skips its sort when the input is already in
// time order, as saved edge lists are.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "graph/temporal_graph.hpp"

namespace parcycle {

class Scheduler;

struct EdgeListOptions {
  bool drop_self_loops = false;
  // Treat a missing third column as timestamp 0.
  bool allow_missing_timestamps = true;
  // Drop exact (src, dst, ts) duplicates. Off by default: the datasets are
  // multigraphs and repeated interactions are real edges.
  bool drop_duplicate_edges = false;
  // Parallel path only: target bytes per parse task. 0 picks a size that
  // gives every worker several chunks to steal. Tests shrink it to force
  // multi-chunk parses on small inputs.
  std::size_t parallel_chunk_bytes = 0;
};

// What the parser saw, beyond the graph itself. Counts cover the whole
// input regardless of which parsing path produced them.
struct LoadStats {
  std::uint64_t bytes = 0;            // input size consumed
  std::uint64_t lines = 0;            // physical lines, including blanks
  std::uint64_t comment_lines = 0;    // blank or comment-only lines
  std::uint64_t edges_loaded = 0;     // edges handed to the graph
  std::uint64_t self_loops_dropped = 0;
  std::uint64_t duplicate_edges_dropped = 0;
  std::uint64_t parse_chunks = 1;     // parse tasks (1 for the serial paths)
  // Wall time of graph finalisation (the (ts, src, dst) order check, the
  // sort when the input is not already in that order, and the CSR fill in
  // the TemporalGraph constructor — parallelised on the same scheduler as
  // the parse in the parallel path). Time-ordered input skips the sort.
  // bench_loader reports it as its own phase column.
  double finalise_seconds = 0.0;
};

// -- Serial paths ------------------------------------------------------------

// Throws std::runtime_error on malformed input ("... at line N") or
// unreadable files.
TemporalGraph load_temporal_edge_list(std::istream& in,
                                      const EdgeListOptions& options = {},
                                      LoadStats* stats = nullptr);

// Parses an in-memory buffer (the serial single-chunk path).
TemporalGraph parse_temporal_edge_list(std::string_view text,
                                       const EdgeListOptions& options = {},
                                       LoadStats* stats = nullptr);

// Reads the file into memory and parses it serially. Far faster than the
// istream path (no per-line stream machinery) but still one thread.
TemporalGraph load_temporal_edge_list_file(const std::string& path,
                                           const EdgeListOptions& options = {},
                                           LoadStats* stats = nullptr);

// -- Parallel path -----------------------------------------------------------

// Splits `text` at newline boundaries into chunks parsed concurrently as
// tasks on `sched` (call from the thread that owns the scheduler, i.e.
// worker 0). Each chunk parses into its own slice of the one edge array.
// Errors still name the 1-based line of the offending input.
TemporalGraph parse_temporal_edge_list_parallel(
    std::string_view text, Scheduler& sched,
    const EdgeListOptions& options = {}, LoadStats* stats = nullptr);

// mmap()s (or, failing that, reads) the file and runs the parallel parse.
TemporalGraph load_temporal_edge_list_file_parallel(
    const std::string& path, Scheduler& sched,
    const EdgeListOptions& options = {}, LoadStats* stats = nullptr);

// -- Writing -----------------------------------------------------------------

void save_temporal_edge_list(const TemporalGraph& graph, std::ostream& out);
void save_temporal_edge_list_file(const TemporalGraph& graph,
                                  const std::string& path);

}  // namespace parcycle
