#include "src/vis/filters.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/error.hpp"
#include "src/vis/rasterizer.hpp"

namespace greenvis::vis {

util::Field2D downsample(const util::Field2D& field, std::size_t k) {
  GREENVIS_REQUIRE(k >= 1);
  const std::size_t nx = (field.nx() + k - 1) / k;
  const std::size_t ny = (field.ny() + k - 1) / k;
  util::Field2D out(nx, ny);
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      out.at(i, j) = field.at(i * k, j * k);
    }
  }
  return out;
}

util::Field2D resample(const util::Field2D& field, std::size_t nx,
                       std::size_t ny) {
  GREENVIS_REQUIRE(nx >= 2 && ny >= 2);
  util::Field2D out(nx, ny);
  const double sx =
      static_cast<double>(field.nx() - 1) / static_cast<double>(nx - 1);
  const double sy =
      static_cast<double>(field.ny() - 1) / static_cast<double>(ny - 1);
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      out.at(i, j) = bilinear_sample(field, static_cast<double>(i) * sx,
                                     static_cast<double>(j) * sy);
    }
  }
  return out;
}

void crop_into(const util::Field2D& field, std::size_t i0, std::size_t j0,
               std::size_t nx, std::size_t ny, util::Field2D& out) {
  GREENVIS_REQUIRE(nx >= 1 && ny >= 1);
  GREENVIS_REQUIRE(i0 + nx <= field.nx() && j0 + ny <= field.ny());
  if (out.nx() != nx || out.ny() != ny) {
    out = util::Field2D(nx, ny);
  }
  const double* src = field.values().data() + j0 * field.nx() + i0;
  for (std::size_t j = 0; j < ny; ++j) {
    std::copy_n(src + j * field.nx(), nx, &out.at(0, j));
  }
}

double rms_difference(const util::Field2D& a, const util::Field2D& b) {
  GREENVIS_REQUIRE(a.nx() == b.nx() && a.ny() == b.ny());
  double sum = 0.0;
  for (std::size_t idx = 0; idx < a.size(); ++idx) {
    const double d = a.values()[idx] - b.values()[idx];
    sum += d * d;
  }
  return std::sqrt(sum / static_cast<double>(a.size()));
}

}  // namespace greenvis::vis
