// Internal glue between the dispatch shim and the per-ISA kernel TUs.
//
// `detail` holds the per-element reference operations — the single source of
// truth for the arithmetic every path must reproduce bit-for-bit. The AVX2
// TU uses them for its remainder loops, so a tail element goes through
// literally the same inline function as the scalar path.
//
// Not installed API: include only from src/util/simd/*.cpp and tests.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "src/util/simd/simd.hpp"

namespace greenvis::util::simd {

/// Scalar reference table (always available).
[[nodiscard]] const KernelTable& scalar_table();
/// AVX2 table; nullptr when the TU was compiled without AVX2.
[[nodiscard]] const KernelTable* avx2_table();

namespace detail {

inline double jacobi2d_cell(double rhs, double w, double e, double s,
                            double n, double tr, double inv_diag) {
  return (rhs + tr * ((w + e) + s + n)) * inv_diag;
}

inline double jacobi3d_cell(double rhs, double w, double e, double s,
                            double n, double d, double u, double r,
                            double inv_diag) {
  return (rhs + r * ((w + e) + s + n + d + u)) * inv_diag;
}

inline double defect2d_cell(double rhs, double c, double w, double e,
                            double s, double n, double tr) {
  return (1.0 + 4.0 * tr) * c - tr * (w + e + s + n) - rhs;
}

inline double defect3d_cell(double rhs, double c, double w, double e,
                            double s, double n, double d, double u,
                            double r) {
  return (1.0 + 6.0 * r) * c - r * (w + e + s + n + d + u) - rhs;
}

inline std::int64_t quantize_one(double v, double inv) {
  const double t = v * inv;
  return static_cast<std::int64_t>(t + std::copysign(0.5, t));
}

inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t u) {
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

/// Little-endian 64-bit load, byte-assembled (endian-correct everywhere;
/// folds to one load on LE targets).
inline std::uint64_t load_le_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b) {
    v |= static_cast<std::uint64_t>(p[b]) << (8 * b);
  }
  return v;
}

/// One bit-extracted delta at bit position `bitpos` (conditional borrow from
/// the next word, exactly as the original decode loop).
inline std::int64_t unpack_one(const std::uint8_t* packed, std::size_t bitpos,
                               unsigned bits, std::uint64_t mask) {
  const std::size_t w = bitpos >> 6;
  const unsigned off = bitpos & 63;
  std::uint64_t val = load_le_u64(packed + w * 8) >> off;
  if (off + bits > 64) {
    val |= load_le_u64(packed + (w + 1) * 8) << (64 - off);
  }
  return unzigzag(val & mask);
}

/// Exactly vis::trilinear_sample on a raw row-major (x fastest) buffer.
inline double trilinear_one(const double* f, std::size_t nx, std::size_t ny,
                            std::size_t nz, double x, double y, double z) {
  const double mx = static_cast<double>(nx - 1);
  const double my = static_cast<double>(ny - 1);
  const double mz = static_cast<double>(nz - 1);
  x = x < 0.0 ? 0.0 : (mx < x ? mx : x);
  y = y < 0.0 ? 0.0 : (my < y ? my : y);
  z = z < 0.0 ? 0.0 : (mz < z ? mz : z);
  const auto i0 = static_cast<std::size_t>(x);
  const auto j0 = static_cast<std::size_t>(y);
  const auto k0 = static_cast<std::size_t>(z);
  const std::size_t i1 = i0 + 1 < nx ? i0 + 1 : nx - 1;
  const std::size_t j1 = j0 + 1 < ny ? j0 + 1 : ny - 1;
  const std::size_t k1 = k0 + 1 < nz ? k0 + 1 : nz - 1;
  const double fx = x - static_cast<double>(i0);
  const double fy = y - static_cast<double>(j0);
  const double fz = z - static_cast<double>(k0);
  const auto at = [&](std::size_t i, std::size_t j, std::size_t k) {
    return f[(k * ny + j) * nx + i];
  };
  const auto lerp = [](double a, double b, double t) {
    return a + (b - a) * t;
  };
  const double c00 = lerp(at(i0, j0, k0), at(i1, j0, k0), fx);
  const double c10 = lerp(at(i0, j1, k0), at(i1, j1, k0), fx);
  const double c01 = lerp(at(i0, j0, k1), at(i1, j0, k1), fx);
  const double c11 = lerp(at(i0, j1, k1), at(i1, j1, k1), fx);
  return lerp(lerp(c00, c10, fy), lerp(c01, c11, fy), fz);
}

/// Exactly vis::TransferFunction::intensity: clamp((v-lo)/(hi-lo)) with a
/// degenerate range mapping to 0 (branch clamps match std::clamp for
/// non-NaN operands; NaN passes through, as in the original).
inline double composite_intensity(double v, const CompositeTf& tf) {
  if (tf.hi <= tf.lo) {
    return 0.0;
  }
  const double t = (v - tf.lo) / (tf.hi - tf.lo);
  return t < 0.0 ? 0.0 : (1.0 < t ? 1.0 : t);
}

/// Composite one sample of precomputed intensity t into acc[4] = {r,g,b,a}
/// — the exact per-sample sequence of the original ray-marcher loop:
/// opacity ramp, transparent skip, ColorMap::map's segment search + uint8
/// channel quantization, front-to-back weight. Returns true when the
/// accumulated opacity crossed `early` on this sample.
inline bool composite_one(double t, const CompositeTf& tf, double step,
                          double early, double* acc) {
  const double per_length = tf.opacity_scale * std::pow(t, tf.gamma);
  double a = per_length * step;
  a = a < 0.0 ? 0.0 : (1.0 < a ? 1.0 : a);
  if (a <= 0.0) {
    return false;
  }
  std::size_t hi = 1;
  while (hi + 1 < tf.stop_count && tf.stop_pos[hi] < t) {
    ++hi;
  }
  const double p0 = tf.stop_pos[hi - 1];
  const double f = (t - p0) / (tf.stop_pos[hi] - p0);
  const auto chan = [f](double x, double y) {
    const double c = x + f * (y - x);
    const double cl = c < 0.0 ? 0.0 : (1.0 < c ? 1.0 : c);
    // Round-trip through uint8 exactly as ColorMap::map does before the
    // accumulator promotes the channel back to double.
    return static_cast<double>(
        static_cast<std::uint8_t>(std::lround(cl * 255.0)));
  };
  const double w = (1.0 - acc[3]) * a;
  acc[0] += w * chan(tf.stop_r[hi - 1], tf.stop_r[hi]);
  acc[1] += w * chan(tf.stop_g[hi - 1], tf.stop_g[hi]);
  acc[2] += w * chan(tf.stop_b[hi - 1], tf.stop_b[hi]);
  acc[3] += w;
  return acc[3] >= early;
}

/// Per-sample opacity at zero intensity — when this is 0 the vector rows
/// may skip whole blocks of v <= lo samples without touching pow or the
/// colormap.
inline double composite_zero_opacity(const CompositeTf& tf, double step) {
  const double per_length = tf.opacity_scale * std::pow(0.0, tf.gamma);
  const double a = per_length * step;
  return a < 0.0 ? 0.0 : (1.0 < a ? 1.0 : a);
}

}  // namespace detail
}  // namespace greenvis::util::simd
