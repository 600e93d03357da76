// Aligned backing store for Field2D/Field3D.
//
// A thin replacement for std::vector<double> with two properties the fields
// need and the vector can't give:
//
//   * 64-byte alignment — cache-line (and vector-register) aligned rows for
//     the SIMD stencil/codec kernels, regardless of allocator whim;
//   * first-touch-friendly construction — the buffer can be allocated
//     *uninitialized* so the initial fill (which commits the pages) can be
//     routed through numa::first_touch_fill on the owning workers instead of
//     being serially touched by whichever thread ran the constructor.
//
// Semantics otherwise match vector<double> where the fields rely on them:
// element-wise operator== (so NaN-carrying fields compare like before),
// contiguous double* iterators, copy preserving bytes exactly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <new>
#include <utility>

#include "src/util/error.hpp"

namespace greenvis::util {

class FieldStorage {
 public:
  /// Tag: allocate without writing, so the caller controls first touch.
  struct Uninitialized {};

  FieldStorage() = default;
  FieldStorage(std::size_t count, Uninitialized) { allocate(count); }
  FieldStorage(std::size_t count, double fill) {
    allocate(count);
    std::fill_n(data_, count, fill);
  }

  FieldStorage(const FieldStorage& other) {
    allocate(other.size_);
    if (size_ > 0) {
      std::memcpy(data_, other.data_, size_ * sizeof(double));
    }
  }
  FieldStorage& operator=(const FieldStorage& other) {
    if (this != &other) {
      if (other.size_ > capacity_) {
        release();
        allocate(other.size_);
      } else {
        size_ = other.size_;
      }
      if (size_ > 0) {
        std::memcpy(data_, other.data_, size_ * sizeof(double));
      }
    }
    return *this;
  }

  FieldStorage(FieldStorage&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}
  FieldStorage& operator=(FieldStorage&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      capacity_ = std::exchange(other.capacity_, 0);
    }
    return *this;
  }

  ~FieldStorage() { release(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] double* data() { return data_; }
  [[nodiscard]] const double* data() const { return data_; }
  [[nodiscard]] double* begin() { return data_; }
  [[nodiscard]] double* end() { return data_ + size_; }
  [[nodiscard]] const double* begin() const { return data_; }
  [[nodiscard]] const double* end() const { return data_ + size_; }
  [[nodiscard]] double& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] double operator[](std::size_t i) const { return data_[i]; }

  friend bool operator==(const FieldStorage& a, const FieldStorage& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

  static constexpr std::size_t kAlignment = 64;

 private:
  void allocate(std::size_t count) {
    size_ = count;
    capacity_ = count;
    data_ = count == 0
                ? nullptr
                : static_cast<double*>(::operator new(
                      count * sizeof(double), std::align_val_t{kAlignment}));
  }
  void release() {
    if (data_ != nullptr) {
      ::operator delete(data_, std::align_val_t{kAlignment});
      data_ = nullptr;
    }
    size_ = 0;
    capacity_ = 0;
  }

  double* data_{nullptr};
  std::size_t size_{0};
  std::size_t capacity_{0};
};

/// Size of a raw serialized field: `header` bytes plus one double per cell
/// of the `dims` product. Throws ContractViolation when the product or the
/// byte count overflows, so a corrupt header can never wrap to a size that
/// passes a decoder's length check.
[[nodiscard]] inline std::size_t raw_field_bytes(
    std::size_t header, std::initializer_list<std::size_t> dims) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  std::size_t cells = 1;
  for (const std::size_t d : dims) {
    GREENVIS_REQUIRE_MSG(d == 0 || cells <= kMax / d,
                         "field: dimension product overflows");
    cells *= d;
  }
  GREENVIS_REQUIRE_MSG(cells <= (kMax - header) / sizeof(double),
                       "field: byte count overflows");
  return header + cells * sizeof(double);
}

}  // namespace greenvis::util
