// Checksums for verifying that bytes read back are the bytes written.
//
// fnv1a64 is the byte-serial FNV-1a 64-bit hash: one multiply per byte, so
// one dependent multiply chain bounds its speed. Frame digests, campaign
// keys and journal rows store its values.
//
// wide_checksum64 is the dataset frame checksum. It runs 8 independent
// FNV-1a lanes over little-endian 64-bit words: lane k takes words k, k+8,
// k+16, ... of each full 64-byte block, so 8 multiply chains overlap. The
// tail of fewer than 64 bytes is folded byte by byte into a running FNV-1a
// state, and then the 8 lanes are folded into it in order, one word each.
//
// Every single-bit flip changes wide_checksum64. Each step has the form
// s' = (s ^ x) * P with P = 0x100000001B3, which is odd. For a fixed input
// x the map s -> s' is a bijection on 64-bit states (XOR by a constant is
// its own inverse, and multiplying by an odd number is invertible mod
// 2^64); for a fixed state s the map x -> s' is a bijection too. A flipped
// bit changes exactly one word of one lane, or one tail byte. The step
// that consumes it therefore leaves a different state, and every later
// step of that lane (or of the running state) maps distinct states to
// distinct states. The final folds are bijections of the running state and
// of each lane in turn, so the result differs. The same argument covers
// any change confined to one word or one tail byte.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace greenvis::util {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

[[nodiscard]] constexpr std::uint64_t fnv1a64(
    std::span<const std::uint8_t> data,
    std::uint64_t seed = kFnvOffsetBasis) {
  std::uint64_t h = seed;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

[[nodiscard]] inline std::uint64_t wide_checksum64(
    std::span<const std::uint8_t> data) {
  constexpr std::size_t kLanes = 8;
  constexpr std::size_t kBlock = kLanes * sizeof(std::uint64_t);
  std::array<std::uint64_t, kLanes> lanes{};
  lanes.fill(kFnvOffsetBasis);
  const std::size_t body = data.size() - data.size() % kBlock;
  for (std::size_t block = 0; block < body; block += kBlock) {
    for (std::size_t k = 0; k < kLanes; ++k) {
      std::uint64_t word = 0;
      std::memcpy(&word, data.data() + block + k * sizeof(word), sizeof(word));
      if constexpr (std::endian::native == std::endian::big) {
        word = __builtin_bswap64(word);
      }
      lanes[k] = (lanes[k] ^ word) * kFnvPrime;
    }
  }
  std::uint64_t h = fnv1a64(data.subspan(body));
  for (const std::uint64_t lane : lanes) {
    h = (h ^ lane) * kFnvPrime;
  }
  return h;
}

}  // namespace greenvis::util
