#include "src/vis/image.hpp"

#include <cstring>
#include <fstream>

#include "src/obs/tracer.hpp"
#include "src/util/checksum.hpp"
#include "src/util/error.hpp"

namespace greenvis::vis {

Image::Image(std::size_t width, std::size_t height, Rgb fill)
    : width_(width), height_(height), pixels_(width * height, fill) {
  GREENVIS_REQUIRE(width > 0 && height > 0);
}

void Image::set_clipped(std::int64_t x, std::int64_t y, Rgb color) {
  if (x < 0 || y < 0 || x >= static_cast<std::int64_t>(width_) ||
      y >= static_cast<std::int64_t>(height_)) {
    return;
  }
  at(static_cast<std::size_t>(x), static_cast<std::size_t>(y)) = color;
}

std::uint64_t Image::digest() const {
  static_assert(sizeof(Rgb) == 3);
  obs::ScopedSpan span("vis.digest", obs::kCatVis);
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(pixels_.data());
  return util::fnv1a64({bytes, pixels_.size() * sizeof(Rgb)});
}

void Image::write_ppm(std::ostream& os) const {
  os << "P6\n" << width_ << ' ' << height_ << "\n255\n";
  os.write(reinterpret_cast<const char*>(pixels_.data()),
           static_cast<std::streamsize>(pixels_.size() * sizeof(Rgb)));
}

std::vector<std::uint8_t> Image::serialize() const {
  std::vector<std::uint8_t> out(16 + pixels_.size() * sizeof(Rgb));
  auto put_u64 = [&](std::size_t pos, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out[pos + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  put_u64(0, width_);
  put_u64(8, height_);
  std::memcpy(out.data() + 16, pixels_.data(), pixels_.size() * sizeof(Rgb));
  return out;
}

void Image::save_ppm(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  GREENVIS_REQUIRE_MSG(f.good(), "cannot open " + path);
  write_ppm(f);
}

}  // namespace greenvis::vis
