// Data filters: sampling/decimation and selection.
//
// The paper's related-work section points to data sampling [21] as a
// technique that shrinks in-situ output further. These filters decimate,
// reconstruct and crop fields so the serving layer and the sampling
// ablation can explore that corner of the design space.
#pragma once

#include <cstddef>

#include "src/util/field.hpp"

namespace greenvis::vis {

/// Every k-th sample in each dimension (k >= 1). Output dims are
/// ceil(n / k).
[[nodiscard]] util::Field2D downsample(const util::Field2D& field,
                                       std::size_t k);

/// Bilinear upsample back to the given dimensions (reconstruction for
/// sampled data).
[[nodiscard]] util::Field2D resample(const util::Field2D& field,
                                     std::size_t nx, std::size_t ny);

/// Copy the sub-rectangle [i0, i0+nx) x [j0, j0+ny) into `out` — the
/// serving layer's region-of-interest selection (a steerable pan/zoom on
/// the 2-D field). `out` keeps its storage when it already has the shape
/// nx-by-ny, so a view cropping every frame allocates only once.
void crop_into(const util::Field2D& field, std::size_t i0, std::size_t j0,
               std::size_t nx, std::size_t ny, util::Field2D& out);

/// Root-mean-square difference between two equally sized fields —
/// reconstruction error metric for the sampling ablation.
[[nodiscard]] double rms_difference(const util::Field2D& a,
                                    const util::Field2D& b);

}  // namespace greenvis::vis
