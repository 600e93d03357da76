// Block-level I/O requests.
#pragma once

#include <cstdint>

namespace greenvis::storage {

enum class IoKind { kRead, kWrite };

/// One request against a block device. Offsets/lengths are bytes from the
/// start of the device (logical block addressing).
struct IoRequest {
  IoKind kind{IoKind::kRead};
  std::uint64_t offset{0};
  std::uint32_t length{0};
};

/// Largest single request any issuer builds (kernel writeback chunking);
/// longer runs are split. Also keeps every length within IoRequest::length.
inline constexpr std::uint64_t kMaxRequestBytes = std::uint64_t{4} << 20;

}  // namespace greenvis::storage
