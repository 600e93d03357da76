// RGB8 raster image with PPM/PGM output.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/vis/color.hpp"

namespace greenvis::vis {

class Image {
 public:
  Image() = default;
  Image(std::size_t width, std::size_t height, Rgb fill = Rgb{0, 0, 0});

  /// Re-shape and clear in place, reusing the pixel storage when capacity
  /// allows — the hot-loop alternative to constructing a fresh Image.
  void reset(std::size_t width, std::size_t height, Rgb fill = Rgb{0, 0, 0}) {
    width_ = width;
    height_ = height;
    pixels_.assign(width * height, fill);
  }

  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t height() const { return height_; }

  [[nodiscard]] Rgb& at(std::size_t x, std::size_t y) {
    return pixels_[y * width_ + x];
  }
  [[nodiscard]] Rgb at(std::size_t x, std::size_t y) const {
    return pixels_[y * width_ + x];
  }

  /// Set a pixel if inside bounds (no-op outside) — used by line drawing.
  void set_clipped(std::int64_t x, std::int64_t y, Rgb color);

  [[nodiscard]] const std::vector<Rgb>& pixels() const { return pixels_; }

  /// FNV-64 over the pixel bytes — the pipelines assert image equality via
  /// this digest.
  [[nodiscard]] std::uint64_t digest() const;

  /// Binary PPM (P6).
  void write_ppm(std::ostream& os) const;
  void save_ppm(const std::string& path) const;

  /// Compact binary form (16-byte dims header + RGB bytes) for storing
  /// images as dataset payloads (Cinema image databases).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;

  friend bool operator==(const Image& a, const Image& b) {
    return a.width_ == b.width_ && a.height_ == b.height_ &&
           a.pixels_ == b.pixels_;
  }

 private:
  std::size_t width_{0};
  std::size_t height_{0};
  std::vector<Rgb> pixels_;
};

}  // namespace greenvis::vis
