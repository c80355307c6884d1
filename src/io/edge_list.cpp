#include "io/edge_list.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "support/scheduler.hpp"
#include "support/stats.hpp"

namespace parcycle {

namespace {

// Horizontal whitespace: everything isspace() matches except '\n', which is
// the line separator and must never be skipped inside a line. '\r' lands
// here, which is what makes CRLF input parse identically to LF input.
inline bool is_hspace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

inline const char* skip_hspace(const char* p, const char* end) {
  while (p != end && is_hspace(*p)) {
    ++p;
  }
  return p;
}

// Parse failures inside a line, turned into runtime_errors with absolute
// line numbers by the chunk driver.
enum class LineError {
  kNone,
  kMalformed,
  kVertexOutOfRange,
  kMissingTimestamp,
};

const char* line_error_message(LineError error) {
  switch (error) {
    case LineError::kMalformed:
      return "malformed edge list";
    case LineError::kVertexOutOfRange:
      return "vertex id out of range";
    case LineError::kMissingTimestamp:
      return "missing timestamp";
    case LineError::kNone:
      break;
  }
  return "edge list parse error";
}

// One chunk of the input and its parse product. A chunk owns the slice of
// the shared edge array that starts at `first_line`, one slot per physical
// line, so chunks parse concurrently with no allocation and no merge copy.
// Error line numbers are chunk-relative; `first_line` makes them absolute.
struct Chunk {
  std::string_view text;
  std::uint64_t first_line = 0;  // lines (= edge slots) in earlier chunks
  std::uint64_t lines = 0;       // physical lines, counted before the parse
  std::uint64_t kept = 0;        // edges written at the front of the slice
  std::uint64_t comment_lines = 0;
  std::uint64_t self_loops_dropped = 0;
  std::uint64_t max_vertex_plus_1 = 0;  // over kept edges only
  LineError error = LineError::kNone;
  std::uint64_t error_line = 0;  // 1-based within the chunk
};

// Parses "src dst [ts]" from a comment-stripped line. Returns kNone and sets
// `edge` when the line holds an edge; `blank` when it holds nothing.
LineError parse_edge_line(const char* p, const char* end,
                          const EdgeListOptions& options, TemporalEdge& edge,
                          bool& blank) {
  blank = false;
  p = skip_hspace(p, end);
  if (p == end) {
    blank = true;
    return LineError::kNone;
  }

  const auto parse_vertex = [&](VertexId& out) -> LineError {
    std::uint64_t value = 0;
    const auto [next, ec] = std::from_chars(p, end, value);
    if (ec == std::errc::result_out_of_range) {
      return LineError::kVertexOutOfRange;
    }
    if (ec != std::errc() || (next != end && !is_hspace(*next))) {
      return LineError::kMalformed;
    }
    if (value >= kInvalidVertex) {
      return LineError::kVertexOutOfRange;
    }
    out = static_cast<VertexId>(value);
    p = next;
    return LineError::kNone;
  };

  if (const LineError err = parse_vertex(edge.src); err != LineError::kNone) {
    return err;
  }
  p = skip_hspace(p, end);
  if (p == end) {
    return LineError::kMalformed;  // destination column missing
  }
  if (const LineError err = parse_vertex(edge.dst); err != LineError::kNone) {
    return err;
  }

  p = skip_hspace(p, end);
  if (p == end) {
    if (!options.allow_missing_timestamps) {
      return LineError::kMissingTimestamp;
    }
    edge.ts = 0;
    return LineError::kNone;
  }
  std::int64_t ts = 0;
  const auto [next, ec] = std::from_chars(p, end, ts);
  if (ec != std::errc() || (next != end && !is_hspace(*next))) {
    return LineError::kMalformed;
  }
  edge.ts = static_cast<Timestamp>(ts);
  // Columns beyond the third are ignored: several SNAP files (e.g.
  // higgs-activity) carry a fourth annotation column.
  return LineError::kNone;
}

// Physical lines in `text`: one per newline, plus an unterminated last line.
// Equals the number of lines parse_chunk walks, which is what lets the
// caller size the edge array and place every chunk's slice before parsing.
std::uint64_t count_lines(std::string_view text) {
  std::uint64_t lines = 0;
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p != end) {
    lines += 1;
    const char* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    if (nl == nullptr) {
      break;
    }
    p = nl + 1;
  }
  return lines;
}

// Parses every line of `chunk.text` into `out`, kept edges packed at the
// front (at most chunk.lines of them). Stops at, and records, the first
// error.
//
// Counters accumulate in locals and are stored once at the end: neighbouring
// Chunk elements share cache lines, and per-line writes through them would
// put false sharing in the middle of the tokenizer loop.
void parse_chunk(Chunk& chunk, const EdgeListOptions& options,
                 TemporalEdge* out) {
  const char* p = chunk.text.data();
  const char* const end = p + chunk.text.size();
  std::uint64_t line = 0;
  std::uint64_t kept = 0;
  std::uint64_t comment_lines = 0;
  std::uint64_t self_loops_dropped = 0;
  std::uint64_t max_vertex_plus_1 = 0;
  while (p != end) {
    const char* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    const char* line_end = nl != nullptr ? nl : end;
    line += 1;
    // Strip a trailing comment; everything from '#' on is commentary.
    if (const char* hash = static_cast<const char*>(std::memchr(
            p, '#', static_cast<std::size_t>(line_end - p)));
        hash != nullptr) {
      line_end = hash;
    }
    TemporalEdge edge;
    bool blank = false;
    const LineError err = parse_edge_line(p, line_end, options, edge, blank);
    if (err != LineError::kNone) {
      chunk.error = err;
      chunk.error_line = line;
      break;
    }
    if (blank) {
      comment_lines += 1;
    } else if (options.drop_self_loops && edge.src == edge.dst) {
      self_loops_dropped += 1;
    } else {
      max_vertex_plus_1 = std::max<std::uint64_t>(
          max_vertex_plus_1, std::uint64_t{std::max(edge.src, edge.dst)} + 1);
      out[kept++] = edge;
    }
    if (nl == nullptr) {
      break;
    }
    p = nl + 1;
  }
  chunk.kept = kept;
  chunk.comment_lines = comment_lines;
  chunk.self_loops_dropped = self_loops_dropped;
  chunk.max_vertex_plus_1 = max_vertex_plus_1;
}

std::string_view strip_bom(std::string_view text) {
  if (text.size() >= 3 && text.substr(0, 3) == "\xEF\xBB\xBF") {
    text.remove_prefix(3);  // UTF-8 BOM from Windows-saved files
  }
  return text;
}

// Chunk boundaries always land just after a newline, so no line straddles
// two chunks and every chunk parses independently.
std::vector<Chunk> split_at_newlines(std::string_view text,
                                     std::size_t target_bytes) {
  std::vector<Chunk> chunks;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = begin + target_bytes;
    if (end >= text.size()) {
      end = text.size();
    } else {
      const std::size_t nl = text.find('\n', end);
      end = nl == std::string_view::npos ? text.size() : nl + 1;
    }
    chunks.push_back(Chunk{.text = text.substr(begin, end - begin)});
    begin = end;
  }
  return chunks;
}

// Runs fn(chunk) for every chunk: as tasks on `sched` when given and there
// is more than one chunk, else inline.
template <typename Fn>
void for_each_chunk(std::vector<Chunk>& chunks, Scheduler* sched,
                    const Fn& fn) {
  if (sched == nullptr || chunks.size() <= 1) {
    for (Chunk& chunk : chunks) {
      fn(chunk);
    }
    return;
  }
  TaskGroup group(*sched);
  for (Chunk& chunk : chunks) {
    auto task = [&chunk, &fn] { fn(chunk); };
    // Chunk tasks must ride the zero-allocation slab spawn path; a closure
    // outgrowing the slab block would silently fall back to the heap.
    static_assert(spawn_uses_slab_v<decltype(task)>);
    group.spawn(std::move(task));
  }
  group.wait();
}

// Parses `chunks` (consecutive pieces of one input) into a single edge
// array and finalises the graph, in parallel on `sched` when given. The
// array is allocated once, one slot per line: a parallel line count places
// every chunk's slice, each chunk parses into its own slice, and the holes
// that blank lines, comments and dropped self-loops leave at the slice ends
// are closed in chunk order. Throws on the earliest parse error.
TemporalGraph parse_chunks(std::vector<Chunk>& chunks,
                           const EdgeListOptions& options, LoadStats* stats,
                           std::uint64_t input_bytes, Scheduler* sched) {
  for_each_chunk(chunks, sched,
                 [](Chunk& chunk) { chunk.lines = count_lines(chunk.text); });
  std::uint64_t total_lines = 0;
  for (Chunk& chunk : chunks) {
    chunk.first_line = total_lines;
    total_lines += chunk.lines;
  }

  std::vector<TemporalEdge> edges(total_lines);
  TemporalEdge* const slots = edges.data();
  for_each_chunk(chunks, sched, [slots, &options](Chunk& chunk) {
    parse_chunk(chunk, options, slots + chunk.first_line);
  });

  std::uint64_t kept = 0;
  std::uint64_t max_vertex_plus_1 = 0;
  LoadStats local;
  local.bytes = input_bytes;
  local.parse_chunks = std::max<std::uint64_t>(chunks.size(), 1);
  local.lines = total_lines;
  for (const Chunk& chunk : chunks) {
    if (chunk.error != LineError::kNone) {
      throw std::runtime_error(
          std::string(line_error_message(chunk.error)) + " at line " +
          std::to_string(chunk.first_line + chunk.error_line));
    }
    // Slices only move towards the front, so each move reads slots no
    // earlier chunk's move has written.
    if (kept != chunk.first_line) {
      std::memmove(slots + kept, slots + chunk.first_line,
                   chunk.kept * sizeof(TemporalEdge));
    }
    kept += chunk.kept;
    local.comment_lines += chunk.comment_lines;
    local.self_loops_dropped += chunk.self_loops_dropped;
    max_vertex_plus_1 = std::max(max_vertex_plus_1, chunk.max_vertex_plus_1);
  }
  edges.resize(kept);
  if (edges.capacity() / 2 > edges.size()) {
    edges.shrink_to_fit();  // mostly comments: do not keep the slack
  }

  if (options.drop_duplicate_edges && !edges.empty()) {
    std::sort(edges.begin(), edges.end(),
              [](const TemporalEdge& a, const TemporalEdge& b) {
                if (a.ts != b.ts) return a.ts < b.ts;
                if (a.src != b.src) return a.src < b.src;
                return a.dst < b.dst;
              });
    const auto last = std::unique(edges.begin(), edges.end(),
                                  [](const TemporalEdge& a,
                                     const TemporalEdge& b) {
                                    return a.ts == b.ts && a.src == b.src &&
                                           a.dst == b.dst;
                                  });
    local.duplicate_edges_dropped =
        static_cast<std::uint64_t>(edges.end() - last);
    edges.erase(last, edges.end());
  }
  local.edges_loaded = edges.size();
  const WallTimer finalise_timer;
  TemporalGraph graph(static_cast<VertexId>(max_vertex_plus_1),
                      std::move(edges), sched);
  local.finalise_seconds = finalise_timer.elapsed_seconds();
  if (stats != nullptr) {
    *stats = local;
  }
  return graph;
}

// Whole input, read or mapped. mmap is the multi-gigabyte path (no copy, the
// page cache streams); the read fallback covers filesystems without mmap.
class InputBuffer {
 public:
  InputBuffer() = default;
  InputBuffer(const InputBuffer&) = delete;
  InputBuffer& operator=(const InputBuffer&) = delete;
  ~InputBuffer() {
    if (map_ != nullptr) {
      ::munmap(map_, map_size_);
    }
  }

  static InputBuffer open(const std::string& path) {
    InputBuffer buffer;
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      throw std::runtime_error("cannot open edge list file: " + path);
    }
    struct ::stat st = {};
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
      ::close(fd);
      throw std::runtime_error("cannot stat edge list file: " + path);
    }
    const std::size_t size = static_cast<std::size_t>(st.st_size);
    if (size > 0) {
      void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      if (map != MAP_FAILED) {
        buffer.map_ = map;
        buffer.map_size_ = size;
      } else {
        buffer.owned_.resize(size);
        std::size_t done = 0;
        while (done < size) {
          const ::ssize_t n =
              ::read(fd, buffer.owned_.data() + done, size - done);
          if (n <= 0) {
            ::close(fd);
            throw std::runtime_error("cannot read edge list file: " + path);
          }
          done += static_cast<std::size_t>(n);
        }
      }
    }
    ::close(fd);
    return buffer;
  }

  std::string_view view() const noexcept {
    if (map_ != nullptr) {
      return {static_cast<const char*>(map_), map_size_};
    }
    return owned_;
  }

 private:
  // Moves must null the source's mapping: a defaulted move would leave two
  // owners and the moved-from destructor would munmap the live region
  // whenever the compiler declines NRVO for open()'s return.
  InputBuffer(InputBuffer&& other) noexcept
      : owned_(std::move(other.owned_)),
        map_(std::exchange(other.map_, nullptr)),
        map_size_(std::exchange(other.map_size_, 0)) {}

  std::string owned_;
  void* map_ = nullptr;
  std::size_t map_size_ = 0;
};

std::size_t pick_chunk_bytes(std::size_t input_size,
                             const EdgeListOptions& options,
                             unsigned num_workers) {
  if (options.parallel_chunk_bytes > 0) {
    return options.parallel_chunk_bytes;
  }
  // Several chunks per worker so the scheduler can balance skewed chunk
  // costs, but never so small that task overhead dominates the tokenizer.
  constexpr std::size_t kMinChunk = std::size_t{1} << 20;
  constexpr std::size_t kMaxChunk = std::size_t{64} << 20;
  const std::size_t per_worker =
      input_size / (std::max(num_workers, 1u) * std::size_t{8}) + 1;
  return std::clamp(per_worker, kMinChunk, kMaxChunk);
}

}  // namespace

TemporalGraph parse_temporal_edge_list(std::string_view text,
                                       const EdgeListOptions& options,
                                       LoadStats* stats) {
  text = strip_bom(text);
  std::vector<Chunk> chunks;
  if (!text.empty()) {
    chunks.push_back(Chunk{.text = text});
  }
  return parse_chunks(chunks, options, stats, text.size(), nullptr);
}

TemporalGraph parse_temporal_edge_list_parallel(std::string_view text,
                                                Scheduler& sched,
                                                const EdgeListOptions& options,
                                                LoadStats* stats) {
  text = strip_bom(text);
  std::vector<Chunk> chunks = split_at_newlines(
      text, pick_chunk_bytes(text.size(), options, sched.num_workers()));
  return parse_chunks(chunks, options, stats, text.size(), &sched);
}

TemporalGraph load_temporal_edge_list(std::istream& in,
                                      const EdgeListOptions& options,
                                      LoadStats* stats) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    throw std::runtime_error("cannot read edge list stream");
  }
  return parse_temporal_edge_list(buffer.str(), options, stats);
}

TemporalGraph load_temporal_edge_list_file(const std::string& path,
                                           const EdgeListOptions& options,
                                           LoadStats* stats) {
  const InputBuffer buffer = InputBuffer::open(path);
  return parse_temporal_edge_list(buffer.view(), options, stats);
}

TemporalGraph load_temporal_edge_list_file_parallel(
    const std::string& path, Scheduler& sched, const EdgeListOptions& options,
    LoadStats* stats) {
  const InputBuffer buffer = InputBuffer::open(path);
  return parse_temporal_edge_list_parallel(buffer.view(), sched, options,
                                           stats);
}

void save_temporal_edge_list(const TemporalGraph& graph, std::ostream& out) {
  out << "# parcycle temporal edge list: src dst ts\n";
  for (const auto& e : graph.edges_by_time()) {
    out << e.src << ' ' << e.dst << ' ' << e.ts << '\n';
  }
}

void save_temporal_edge_list_file(const TemporalGraph& graph,
                                  const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open output file: " + path);
  }
  save_temporal_edge_list(graph, out);
}

}  // namespace parcycle
