// Marching-squares isocontour extraction.
#pragma once

#include <span>
#include <vector>

#include "src/util/field.hpp"

namespace greenvis::vis {

/// A contour line segment in field coordinates (cell units).
struct Segment {
  double x0, y0, x1, y1;
};

/// Extract the iso-line `value` from `field`. Each grid cell contributes 0,
/// 1, or 2 segments in row-major cell order; saddle cells are disambiguated
/// with the cell-center average (the standard marching-squares rule).
[[nodiscard]] std::vector<Segment> marching_squares(const util::Field2D& field,
                                                    double value);

/// Hot-loop variant: clears `segments` and refills it with the same
/// segments in the same order, reusing its capacity.
void marching_squares_into(const util::Field2D& field, double value,
                           std::vector<Segment>& segments);

/// Evenly spaced iso values across [min, max] (excluding the extremes).
[[nodiscard]] std::vector<double> iso_levels(const util::Field2D& field,
                                             std::size_t count);

/// Fill `out` with `out.size()` evenly spaced iso values (same values as
/// iso_levels(field, out.size()) without allocating).
void iso_levels_into(const util::Field2D& field, std::span<double> out);

}  // namespace greenvis::vis
