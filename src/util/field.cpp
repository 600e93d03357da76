#include "src/util/field.hpp"

#include <algorithm>

#include "src/util/numa.hpp"

namespace greenvis::util {

Field2D::Field2D(std::size_t nx, std::size_t ny, double fill, ThreadPool* pool)
    : nx_(nx), ny_(ny), data_(nx * ny, FieldStorage::Uninitialized{}) {
  GREENVIS_REQUIRE(nx > 0 && ny > 0);
  numa::first_touch_fill(data_.data(), data_.size(), fill, pool);
}

double Field2D::min_value() const {
  GREENVIS_REQUIRE(!data_.empty());
  return *std::min_element(data_.begin(), data_.end());
}

double Field2D::max_value() const {
  GREENVIS_REQUIRE(!data_.empty());
  return *std::max_element(data_.begin(), data_.end());
}

double Field2D::sum() const {
  double s = 0.0;
  for (double v : data_) {
    s += v;
  }
  return s;
}

std::vector<std::uint8_t> Field2D::serialize() const {
  std::vector<std::uint8_t> out(serialized_bytes());
  auto put_u64 = [&](std::size_t pos, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out[pos + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  put_u64(0, nx_);
  put_u64(8, ny_);
  std::memcpy(out.data() + 16, data_.data(), data_.size() * sizeof(double));
  return out;
}

Field2D Field2D::deserialize(std::span<const std::uint8_t> raw) {
  GREENVIS_REQUIRE(raw.size() >= 16);
  auto get_u64 = [&](std::size_t pos) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(raw[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    return v;
  };
  const auto nx = static_cast<std::size_t>(get_u64(0));
  const auto ny = static_cast<std::size_t>(get_u64(8));
  GREENVIS_REQUIRE(raw.size() == raw_field_bytes(16, {nx, ny}));
  Field2D f(nx, ny);
  std::memcpy(f.data_.data(), raw.data() + 16, nx * ny * sizeof(double));
  return f;
}

}  // namespace greenvis::util
