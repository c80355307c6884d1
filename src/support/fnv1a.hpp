// FNV-1a, 64-bit: the payload checksum of the .pcg graph cache and of stream
// snapshots.
#pragma once

#include <cstddef>
#include <cstdint>

namespace parcycle {

inline constexpr std::uint64_t kFnv1aOffset = 14695981039346656037ULL;

// Folds `size` bytes into the running hash `state`; a hash starts from
// kFnv1aOffset, and consecutive calls hash the concatenation.
inline std::uint64_t fnv1a(const void* data, std::size_t size,
                           std::uint64_t state = kFnv1aOffset) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state ^= bytes[i];
    state *= 1099511628211ULL;
  }
  return state;
}

}  // namespace parcycle
