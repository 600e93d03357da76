// Software rasterization: pseudocolor fields and contour overlays.
#pragma once

#include <span>
#include <vector>

#include "src/util/field.hpp"
#include "src/util/thread_pool.hpp"
#include "src/vis/contour.hpp"
#include "src/vis/image.hpp"

namespace greenvis::vis {

/// Bilinear sample of `field` at fractional cell coordinates (clamped).
[[nodiscard]] double bilinear_sample(const util::Field2D& field, double x,
                                     double y);

/// Horizontal interpolation of one output column: the two field columns it
/// blends and their weights, `fx` on i1 and `gx = 1 - fx` on i0.
struct ColumnTap {
  std::size_t i0;
  std::size_t i1;
  double fx;
  double gx;
};

/// Render `field` as a pseudocolor image of the given size using bilinear
/// resampling. `lo`/`hi` fix the transfer-function range (pass min/max for
/// auto). Row-parallel over `pool` when it has >1 worker and enough rows to
/// amortize dispatch; otherwise the serial path runs (identical pixels —
/// rows are disjoint). Every pixel equals
/// `cmap.map_range(bilinear_sample(field, x', y'), lo, hi)` bit for bit.
[[nodiscard]] Image render_pseudocolor(const util::Field2D& field,
                                       const ColorMap& cmap, std::size_t width,
                                       std::size_t height, double lo,
                                       double hi,
                                       util::ThreadPool* pool = nullptr);

/// In-place variant for the hot loop: renders into `image` (reset to the
/// given size first). `taps` is scratch for the per-frame column table;
/// when it holds at least `width` entries the render allocates nothing once
/// the image has capacity, otherwise a table is allocated for this call.
void render_pseudocolor_into(const util::Field2D& field, const ColorMap& cmap,
                             std::size_t width, std::size_t height, double lo,
                             double hi, util::ThreadPool* pool, Image& image,
                             std::span<ColumnTap> taps = {});

/// Draw contour segments (field coordinates) onto an image rendered from an
/// nx-by-ny field — coordinates scale accordingly. DDA line drawing.
void draw_segments(Image& image, std::span<const Segment> segments,
                   std::size_t field_nx, std::size_t field_ny, Rgb color);

}  // namespace greenvis::vis
