#include "src/vis/color.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/error.hpp"

namespace greenvis::vis {

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
}

ColorMap ColorMap::cool_warm() {
  return ColorMap{{
      {0.0, 0.230, 0.299, 0.754},
      {0.5, 0.865, 0.865, 0.865},
      {1.0, 0.706, 0.016, 0.150},
  }};
}

ColorMap ColorMap::hot() {
  return ColorMap{{
      {0.0, 0.0, 0.0, 0.0},
      {0.375, 0.9, 0.0, 0.0},
      {0.75, 1.0, 0.9, 0.0},
      {1.0, 1.0, 1.0, 1.0},
  }};
}

ColorMap ColorMap::grayscale() {
  return ColorMap{{
      {0.0, 0.0, 0.0, 0.0},
      {1.0, 1.0, 1.0, 1.0},
  }};
}

}  // namespace greenvis::vis
