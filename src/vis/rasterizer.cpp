#include "src/vis/rasterizer.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/util/error.hpp"

namespace greenvis::vis {

double bilinear_sample(const util::Field2D& field, double x, double y) {
  const double max_x = static_cast<double>(field.nx() - 1);
  const double max_y = static_cast<double>(field.ny() - 1);
  x = std::clamp(x, 0.0, max_x);
  y = std::clamp(y, 0.0, max_y);
  const auto i0 = static_cast<std::size_t>(x);
  const auto j0 = static_cast<std::size_t>(y);
  const std::size_t i1 = std::min(i0 + 1, field.nx() - 1);
  const std::size_t j1 = std::min(j0 + 1, field.ny() - 1);
  const double fx = x - static_cast<double>(i0);
  const double fy = y - static_cast<double>(j0);
  const double a = field.at(i0, j0) * (1.0 - fx) + field.at(i1, j0) * fx;
  const double b = field.at(i0, j1) * (1.0 - fx) + field.at(i1, j1) * fx;
  return a * (1.0 - fy) + b * fy;
}

namespace {

/// Pixel -> field-coordinate mapping `coord = pixel * scale + offset` that
/// covers the degenerate extents: a 1-pixel axis samples the field-axis
/// center (not its left edge), and a 1-cell field axis pins every pixel to
/// coordinate 0 instead of dividing by zero.
struct AxisMap {
  double scale{0.0};
  double offset{0.0};
};

AxisMap axis_map(std::size_t field_cells, std::size_t pixels) {
  const double extent = static_cast<double>(field_cells - 1);
  if (pixels <= 1) {
    return {0.0, extent / 2.0};
  }
  return {extent / static_cast<double>(pixels - 1), 0.0};
}

/// Parallel dispatch pays off only with real workers and enough rows per
/// worker to amortize the wake/claim round trip. Below that, the serial
/// path is both faster and allocation-free (pixels are identical either
/// way: rows are disjoint).
bool worth_parallel(const util::ThreadPool* pool, std::size_t rows) {
  return pool != nullptr && pool->size() > 1 && rows >= 4 * pool->size();
}

/// Everything the row loop reads, passed by value so it stays in registers
/// across the loop's byte stores (which may alias anything).
struct RowPlan {
  const double* field;
  std::size_t nx;
  std::size_t ny;
  AxisMap my;
  const ColumnTap* taps;
  std::size_t width;
  ColorMap::Lookup colors;
  double lo;
  double range;  // hi - lo; ranges with hi <= lo never reach the row loop
  Rgb* pixels;
};

/// Rows [y_begin, y_end): one row tap, then per pixel the two column taps
/// of each row and the colormap's lookup table. The interpolation is
/// bilinear_sample's expression term for term, (v - lo) / range is
/// map_range's, and the table equals Flat::map, so every pixel is
/// bit-identical to the per-pixel definition.
void raster_rows(const RowPlan p, std::size_t y_begin, std::size_t y_end) {
  const double max_y = static_cast<double>(p.ny - 1);
  for (std::size_t y = y_begin; y < y_end; ++y) {
    const double cy =
        std::clamp(static_cast<double>(y) * p.my.scale + p.my.offset, 0.0,
                   max_y);
    const auto j0 = static_cast<std::size_t>(cy);
    const std::size_t j1 = std::min(j0 + 1, p.ny - 1);
    const double fy = cy - static_cast<double>(j0);
    const double gy = 1.0 - fy;
    const double* row0 = p.field + j0 * p.nx;
    const double* row1 = p.field + j1 * p.nx;
    Rgb* out = p.pixels + y * p.width;
    for (std::size_t x = 0; x < p.width; ++x) {
      const ColumnTap t = p.taps[x];
      const double a = row0[t.i0] * t.gx + row0[t.i1] * t.fx;
      const double b = row1[t.i0] * t.gx + row1[t.i1] * t.fx;
      const double v = a * gy + b * fy;
      out[x] = p.colors.map((v - p.lo) / p.range);
    }
  }
}

}  // namespace

Image render_pseudocolor(const util::Field2D& field, const ColorMap& cmap,
                         std::size_t width, std::size_t height, double lo,
                         double hi, util::ThreadPool* pool) {
  Image image;
  render_pseudocolor_into(field, cmap, width, height, lo, hi, pool, image);
  return image;
}

void render_pseudocolor_into(const util::Field2D& field, const ColorMap& cmap,
                             std::size_t width, std::size_t height, double lo,
                             double hi, util::ThreadPool* pool, Image& image,
                             std::span<ColumnTap> taps) {
  GREENVIS_REQUIRE(width > 0 && height > 0);
  GREENVIS_REQUIRE(field.nx() > 0 && field.ny() > 0);
  if (hi <= lo) {
    // Degenerate range: map_range sends every sample to the low end.
    image.reset(width, height, cmap.map(0.0));
    return;
  }
  image.reset(width, height);

  std::vector<ColumnTap> owned;
  if (taps.size() < width) {
    owned.resize(width);
    taps = owned;
  }
  const std::size_t nx = field.nx();
  const AxisMap mx = axis_map(nx, width);
  const double max_x = static_cast<double>(nx - 1);
  for (std::size_t x = 0; x < width; ++x) {
    const double cx = std::clamp(
        static_cast<double>(x) * mx.scale + mx.offset, 0.0, max_x);
    const auto i0 = static_cast<std::size_t>(cx);
    const double fx = cx - static_cast<double>(i0);
    taps[x] = ColumnTap{i0, std::min(i0 + 1, nx - 1), fx, 1.0 - fx};
  }

  const RowPlan plan{.field = field.values().data(),
                     .nx = nx,
                     .ny = field.ny(),
                     .my = axis_map(field.ny(), height),
                     .taps = taps.data(),
                     .width = width,
                     .colors = cmap.lookup(),
                     .lo = lo,
                     .range = hi - lo,
                     .pixels = &image.at(0, 0)};
  if (worth_parallel(pool, height)) {
    pool->parallel_for(0, height, [&plan](std::size_t y0, std::size_t y1) {
      raster_rows(plan, y0, y1);
    });
  } else {
    raster_rows(plan, 0, height);
  }
}

void draw_segments(Image& image, std::span<const Segment> segments,
                   std::size_t field_nx, std::size_t field_ny, Rgb color) {
  GREENVIS_REQUIRE(field_nx >= 2 && field_ny >= 2);
  const double sx = static_cast<double>(image.width() - 1) /
                    static_cast<double>(field_nx - 1);
  const double sy = static_cast<double>(image.height() - 1) /
                    static_cast<double>(field_ny - 1);
  for (const Segment& s : segments) {
    const double x0 = s.x0 * sx, y0 = s.y0 * sy;
    const double x1 = s.x1 * sx, y1 = s.y1 * sy;
    const double steps =
        std::max(1.0, std::ceil(std::max(std::abs(x1 - x0), std::abs(y1 - y0))));
    for (double k = 0.0; k <= steps; k += 1.0) {
      const double t = k / steps;
      image.set_clipped(std::llround(x0 + (x1 - x0) * t),
                        std::llround(y0 + (y1 - y0) * t), color);
    }
  }
}

}  // namespace greenvis::vis
