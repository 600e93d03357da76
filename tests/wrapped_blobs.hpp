// Raw field blobs whose claimed dimensions wrap the size check.
//
// A raw field is a header of little-endian u64 dimensions followed by one
// double per cell. With unchecked arithmetic, 16 + 2^62 * 4 * 8 wraps to 16
// and 24 + 2^61 * 4 * 2 * 8 wraps to 24, so each header-only blob below
// would pass a `size == header + cells * 8` check and yield a field that
// claims 2^62 columns but holds no cells. Every decoder must reject them.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

namespace greenvis::util {

/// The dimension header alone, each value a little-endian u64.
inline std::vector<std::uint8_t> dims_only_blob(
    std::initializer_list<std::uint64_t> dims) {
  std::vector<std::uint8_t> out;
  for (const std::uint64_t d : dims) {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<std::uint8_t>(d >> (8 * i)));
    }
  }
  return out;
}

/// 16 bytes claiming a 2^62 x 4 Field2D.
inline std::vector<std::uint8_t> wrapped_field2d_blob() {
  return dims_only_blob({std::uint64_t{1} << 62, 4});
}

/// 24 bytes claiming a 2^61 x 4 x 2 Field3D.
inline std::vector<std::uint8_t> wrapped_field3d_blob() {
  return dims_only_blob({std::uint64_t{1} << 61, 4, 2});
}

}  // namespace greenvis::util
