#include "src/vis/color.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/error.hpp"

namespace greenvis::vis {

namespace {

static_assert(sizeof(ColorMap::Bin) == 4,
              "a table entry is its colour and its flag");

/// Entry k is exact when no interior stop lies in its bin and Flat::map
/// agrees at the bin's first and last doubles: the segment is then fixed
/// across the bin and every later step is monotone, so each channel is
/// constant there. Entry kBins (t == 1.0) passes the same test: both its
/// ends clamp to 1.0.
std::vector<ColorMap::Bin> build_bins(const ColorMap::Flat& flat) {
  const double n = static_cast<double>(ColorMap::kBins);
  std::vector<ColorMap::Bin> bins(ColorMap::kBins + 1);
  for (std::size_t k = 0; k < bins.size(); ++k) {
    const Rgb first = flat.map(static_cast<double>(k) / n);
    const Rgb last =
        flat.map(std::nextafter(static_cast<double>(k + 1) / n, 0.0));
    bins[k] = ColorMap::Bin{first, first == last};
  }
  for (std::size_t s = 1; s + 1 < flat.count; ++s) {
    bins[static_cast<std::size_t>(flat.pos[s] * n)].exact = false;
  }
  return bins;
}

}  // namespace

ColorMap::ColorMap(const std::vector<Stop>& stops) {
  GREENVIS_REQUIRE(stops.size() >= 2);
  GREENVIS_REQUIRE(stops.front().position == 0.0);
  GREENVIS_REQUIRE(stops.back().position == 1.0);
  for (std::size_t i = 1; i < stops.size(); ++i) {
    GREENVIS_REQUIRE(stops[i].position > stops[i - 1].position);
  }
  const std::size_t n = stops.size();
  soa_.resize(4 * n);
  for (std::size_t i = 0; i < n; ++i) {
    soa_[i] = stops[i].position;
    soa_[n + i] = stops[i].r;
    soa_[2 * n + i] = stops[i].g;
    soa_[3 * n + i] = stops[i].b;
  }
  bins_ = std::make_shared<const std::vector<Bin>>(build_bins(flat()));
}

ColorMap ColorMap::cool_warm() {
  static const ColorMap map{{
      {0.0, 0.230, 0.299, 0.754},
      {0.5, 0.865, 0.865, 0.865},
      {1.0, 0.706, 0.016, 0.150},
  }};
  return map;
}

ColorMap ColorMap::hot() {
  static const ColorMap map{{
      {0.0, 0.0, 0.0, 0.0},
      {0.375, 0.9, 0.0, 0.0},
      {0.75, 1.0, 0.9, 0.0},
      {1.0, 1.0, 1.0, 1.0},
  }};
  return map;
}

ColorMap ColorMap::grayscale() {
  static const ColorMap map{{
      {0.0, 0.0, 0.0, 0.0},
      {1.0, 1.0, 1.0, 1.0},
  }};
  return map;
}

}  // namespace greenvis::vis
