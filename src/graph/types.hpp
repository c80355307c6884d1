// Fundamental graph value types shared by every subsystem.
#pragma once

#include <cstdint>
#include <limits>

namespace parcycle {

using VertexId = std::uint32_t;
using EdgeId = std::uint32_t;
using Timestamp = std::int64_t;

inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);
inline constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);

// a - b, clamped to the Timestamp range instead of overflowing: the lower
// end of a window [a - b, ...] near the Timestamp minimum.
constexpr Timestamp saturating_sub(Timestamp a, Timestamp b) noexcept {
  Timestamp out = 0;
  if (__builtin_sub_overflow(a, b, &out)) {
    return b > 0 ? std::numeric_limits<Timestamp>::min()
                 : std::numeric_limits<Timestamp>::max();
  }
  return out;
}

// a + b, clamped the same way: the upper end of a window [..., a + b] near
// the Timestamp maximum.
constexpr Timestamp saturating_add(Timestamp a, Timestamp b) noexcept {
  Timestamp out = 0;
  if (__builtin_add_overflow(a, b, &out)) {
    return b > 0 ? std::numeric_limits<Timestamp>::max()
                 : std::numeric_limits<Timestamp>::min();
  }
  return out;
}

// A directed temporal edge. `id` is the edge's rank in the global
// (timestamp, source, destination) order, so comparing ids is the canonical
// tie-break the enumeration algorithms use to assign each cycle to exactly
// one starting edge.
struct TemporalEdge {
  VertexId src = 0;
  VertexId dst = 0;
  Timestamp ts = 0;
  EdgeId id = kInvalidEdge;
};

}  // namespace parcycle
