#include "src/vis/contour.hpp"

#include "src/util/error.hpp"

namespace greenvis::vis {

namespace {

/// Linear interpolation parameter where the iso value crosses [a, b].
double crossing(double a, double b, double value) {
  const double d = b - a;
  if (d == 0.0) {
    return 0.5;
  }
  return (value - a) / d;
}

}  // namespace

std::vector<Segment> marching_squares(const util::Field2D& field,
                                      double value) {
  std::vector<Segment> segments;
  marching_squares_into(field, value, segments);
  return segments;
}

void marching_squares_into(const util::Field2D& field, double value,
                           std::vector<Segment>& segments) {
  segments.clear();
  const std::size_t nx = field.nx();
  const std::size_t ny = field.ny();

  for (std::size_t j = 0; j + 1 < ny; ++j) {
    for (std::size_t i = 0; i + 1 < nx; ++i) {
      const double v00 = field.at(i, j);          // bottom-left
      const double v10 = field.at(i + 1, j);      // bottom-right
      const double v11 = field.at(i + 1, j + 1);  // top-right
      const double v01 = field.at(i, j + 1);      // top-left

      int idx = 0;
      if (v00 >= value) idx |= 1;
      if (v10 >= value) idx |= 2;
      if (v11 >= value) idx |= 4;
      if (v01 >= value) idx |= 8;
      if (idx == 0 || idx == 15) {
        continue;
      }

      const double x = static_cast<double>(i);
      const double y = static_cast<double>(j);
      // Edge crossing points: bottom, right, top, left.
      const double bx = x + crossing(v00, v10, value), by = y;
      const double rx = x + 1.0, ry = y + crossing(v10, v11, value);
      const double tx = x + crossing(v01, v11, value), ty = y + 1.0;
      const double lx = x, ly = y + crossing(v00, v01, value);

      auto emit = [&](double x0, double y0, double x1, double y1) {
        segments.push_back(Segment{x0, y0, x1, y1});
      };

      switch (idx) {
        case 1:  case 14: emit(lx, ly, bx, by); break;
        case 2:  case 13: emit(bx, by, rx, ry); break;
        case 3:  case 12: emit(lx, ly, rx, ry); break;
        case 4:  case 11: emit(rx, ry, tx, ty); break;
        case 6:  case 9:  emit(bx, by, tx, ty); break;
        case 7:  case 8:  emit(lx, ly, tx, ty); break;
        case 5: {
          // Saddle: disambiguate with the cell-center average.
          const double center = 0.25 * (v00 + v10 + v11 + v01);
          if (center >= value) {
            emit(lx, ly, bx, by);
            emit(rx, ry, tx, ty);
          } else {
            emit(lx, ly, tx, ty);
            emit(bx, by, rx, ry);
          }
          break;
        }
        case 10: {
          const double center = 0.25 * (v00 + v10 + v11 + v01);
          if (center >= value) {
            emit(bx, by, rx, ry);
            emit(lx, ly, tx, ty);
          } else {
            emit(lx, ly, bx, by);
            emit(rx, ry, tx, ty);
          }
          break;
        }
        default:
          break;
      }
    }
  }
}

std::vector<double> iso_levels(const util::Field2D& field, std::size_t count) {
  GREENVIS_REQUIRE(count >= 1);
  std::vector<double> levels(count);
  iso_levels_into(field, levels);
  return levels;
}

void iso_levels_into(const util::Field2D& field, std::span<double> out) {
  GREENVIS_REQUIRE(!out.empty());
  const double lo = field.min_value();
  const double hi = field.max_value();
  const auto count = static_cast<double>(out.size());
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = lo + (hi - lo) * static_cast<double>(k + 1) / (count + 1.0);
  }
}

}  // namespace greenvis::vis
