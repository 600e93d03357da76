// AVX2 kernels (4-wide doubles / 64-bit lanes). Compiled with -mavx2
// -ffp-contract=off on x86; on other targets this TU compiles to a null
// table and the dispatcher never offers the path.
//
// Bit-identity notes:
//  - Floating kernels use explicit add/mul intrinsics in the scalar
//    association order; -mfma is deliberately absent so nothing contracts.
//  - _mm256_max_pd(candidate, acc) returns acc when candidate is NaN,
//    matching std::max(acc, candidate)'s NaN-ignoring behavior; lane
//    accumulators therefore never absorb a NaN, so the horizontal max is
//    order-free.
//  - Quantize rounds with copysign(0.5) built from sign-bit masking, then
//    truncates via cvttpd_epi32 (toward zero, like the scalar int64 cast)
//    when all lanes fit int32 — the overwhelmingly common case given the
//    codec's kMaxQuantum guard — and falls back per-lane otherwise.
//  - Integer zigzag/delta/unpack lanes are exact; AVX2 implies x86 implies
//    little-endian, so the word gathers equal the byte-assembled loads.
#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "src/util/simd/kernels_impl.hpp"

#if defined(__AVX2__)
#include <immintrin.h>

namespace greenvis::util::simd {
namespace {

void jacobi2d_row_avx2(double* out, const double* rhs, const double* row,
                       const double* row_s, const double* row_n, double tr,
                       double inv_diag, std::size_t ib, std::size_t ie) {
  const __m256d vtr = _mm256_set1_pd(tr);
  const __m256d vinv = _mm256_set1_pd(inv_diag);
  // One lane group's worth of work in the scalar association order; lane
  // groups are independent, so the 2x unroll below only widens the
  // instruction window (hides load latency), it cannot reorder arithmetic.
  const auto lane4 = [&](std::size_t i) {
    const __m256d w = _mm256_loadu_pd(row + i - 1);
    const __m256d e = _mm256_loadu_pd(row + i + 1);
    const __m256d s = _mm256_loadu_pd(row_s + i);
    const __m256d n = _mm256_loadu_pd(row_n + i);
    const __m256d sum =
        _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(w, e), s), n);
    const __m256d r =
        _mm256_add_pd(_mm256_loadu_pd(rhs + i), _mm256_mul_pd(vtr, sum));
    _mm256_storeu_pd(out + i, _mm256_mul_pd(r, vinv));
  };
  std::size_t i = ib;
  for (; i + 8 <= ie; i += 8) {
    lane4(i);
    lane4(i + 4);
  }
  for (; i + 4 <= ie; i += 4) {
    lane4(i);
  }
  for (; i < ie; ++i) {
    out[i] = detail::jacobi2d_cell(rhs[i], row[i - 1], row[i + 1], row_s[i],
                                   row_n[i], tr, inv_diag);
  }
}

void jacobi3d_row_avx2(double* out, const double* rhs, const double* row,
                       const double* row_s, const double* row_n,
                       const double* row_d, const double* row_u, double r,
                       double inv_diag, std::size_t ib, std::size_t ie) {
  const __m256d vr = _mm256_set1_pd(r);
  const __m256d vinv = _mm256_set1_pd(inv_diag);
  std::size_t i = ib;
  for (; i + 4 <= ie; i += 4) {
    const __m256d w = _mm256_loadu_pd(row + i - 1);
    const __m256d e = _mm256_loadu_pd(row + i + 1);
    __m256d sum = _mm256_add_pd(w, e);
    sum = _mm256_add_pd(sum, _mm256_loadu_pd(row_s + i));
    sum = _mm256_add_pd(sum, _mm256_loadu_pd(row_n + i));
    sum = _mm256_add_pd(sum, _mm256_loadu_pd(row_d + i));
    sum = _mm256_add_pd(sum, _mm256_loadu_pd(row_u + i));
    const __m256d acc =
        _mm256_add_pd(_mm256_loadu_pd(rhs + i), _mm256_mul_pd(vr, sum));
    _mm256_storeu_pd(out + i, _mm256_mul_pd(acc, vinv));
  }
  for (; i < ie; ++i) {
    out[i] = detail::jacobi3d_cell(rhs[i], row[i - 1], row[i + 1], row_s[i],
                                   row_n[i], row_d[i], row_u[i], r, inv_diag);
  }
}

double defect2d_row_avx2(const double* rhs, const double* row,
                         const double* row_s, const double* row_n, double tr,
                         std::size_t ib, std::size_t ie, double acc) {
  const __m256d vtr = _mm256_set1_pd(tr);
  const __m256d vdiag = _mm256_set1_pd(1.0 + 4.0 * tr);
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256d vmax = _mm256_setzero_pd();
  // Second accumulator breaks the max-latency chain; max is a selection
  // (exact, order-free given the NaN handling above), so splitting the
  // reduction cannot change the result.
  __m256d vmax2 = _mm256_setzero_pd();
  const auto lane4 = [&](std::size_t i, __m256d acc4) {
    const __m256d c = _mm256_loadu_pd(row + i);
    const __m256d w = _mm256_loadu_pd(row + i - 1);
    const __m256d e = _mm256_loadu_pd(row + i + 1);
    const __m256d s = _mm256_loadu_pd(row_s + i);
    const __m256d n = _mm256_loadu_pd(row_n + i);
    const __m256d sum =
        _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(w, e), s), n);
    const __m256d defect = _mm256_sub_pd(
        _mm256_sub_pd(_mm256_mul_pd(vdiag, c), _mm256_mul_pd(vtr, sum)),
        _mm256_loadu_pd(rhs + i));
    return _mm256_max_pd(_mm256_andnot_pd(sign, defect), acc4);
  };
  std::size_t i = ib;
  for (; i + 8 <= ie; i += 8) {
    vmax = lane4(i, vmax);
    vmax2 = lane4(i + 4, vmax2);
  }
  for (; i + 4 <= ie; i += 4) {
    vmax = lane4(i, vmax);
  }
  vmax = _mm256_max_pd(vmax, vmax2);
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, vmax);
  acc = std::max(acc, lanes[0]);
  acc = std::max(acc, lanes[1]);
  acc = std::max(acc, lanes[2]);
  acc = std::max(acc, lanes[3]);
  for (; i < ie; ++i) {
    const double defect = detail::defect2d_cell(
        rhs[i], row[i], row[i - 1], row[i + 1], row_s[i], row_n[i], tr);
    acc = std::max(acc, std::abs(defect));
  }
  return acc;
}

double defect3d_row_avx2(const double* rhs, const double* row,
                         const double* row_s, const double* row_n,
                         const double* row_d, const double* row_u, double r,
                         std::size_t ib, std::size_t ie, double acc) {
  const __m256d vr = _mm256_set1_pd(r);
  const __m256d vdiag = _mm256_set1_pd(1.0 + 6.0 * r);
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256d vmax = _mm256_setzero_pd();
  std::size_t i = ib;
  for (; i + 4 <= ie; i += 4) {
    const __m256d c = _mm256_loadu_pd(row + i);
    __m256d sum = _mm256_add_pd(_mm256_loadu_pd(row + i - 1),
                                _mm256_loadu_pd(row + i + 1));
    sum = _mm256_add_pd(sum, _mm256_loadu_pd(row_s + i));
    sum = _mm256_add_pd(sum, _mm256_loadu_pd(row_n + i));
    sum = _mm256_add_pd(sum, _mm256_loadu_pd(row_d + i));
    sum = _mm256_add_pd(sum, _mm256_loadu_pd(row_u + i));
    const __m256d defect = _mm256_sub_pd(
        _mm256_sub_pd(_mm256_mul_pd(vdiag, c), _mm256_mul_pd(vr, sum)),
        _mm256_loadu_pd(rhs + i));
    vmax = _mm256_max_pd(_mm256_andnot_pd(sign, defect), vmax);
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, vmax);
  acc = std::max(acc, lanes[0]);
  acc = std::max(acc, lanes[1]);
  acc = std::max(acc, lanes[2]);
  acc = std::max(acc, lanes[3]);
  for (; i < ie; ++i) {
    const double defect =
        detail::defect3d_cell(rhs[i], row[i], row[i - 1], row[i + 1],
                              row_s[i], row_n[i], row_d[i], row_u[i], r);
    acc = std::max(acc, std::abs(defect));
  }
  return acc;
}

ScanResult scan_abs_finite_avx2(const double* v, std::size_t n) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d zero = _mm256_setzero_pd();
  __m256d vmax = zero;
  __m256d vfin = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(v + i);
    vmax = _mm256_max_pd(_mm256_andnot_pd(sign, x), vmax);
    const __m256d d = _mm256_sub_pd(x, x);
    vfin = _mm256_and_pd(vfin, _mm256_cmp_pd(d, zero, _CMP_EQ_OQ));
  }
  ScanResult r;
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, vmax);
  r.max_abs = std::max(std::max(lanes[0], lanes[1]),
                       std::max(lanes[2], lanes[3]));
  r.finite = _mm256_movemask_pd(vfin) == 0xF;
  for (; i < n; ++i) {
    r.max_abs = std::max(r.max_abs, std::fabs(v[i]));
    r.finite = r.finite && (v[i] - v[i] == 0.0);
  }
  return r;
}

void quantize_avx2(const double* v, std::int64_t* q, double inv,
                   std::size_t n) {
  const __m256d vinv = _mm256_set1_pd(inv);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d lim = _mm256_set1_pd(2147483648.0);  // 2^31
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d t = _mm256_mul_pd(_mm256_loadu_pd(v + i), vinv);
    const __m256d h = _mm256_or_pd(_mm256_and_pd(t, sign), half);
    const __m256d s = _mm256_add_pd(t, h);
    const __m256d abs_s = _mm256_andnot_pd(sign, s);
    if (_mm256_movemask_pd(_mm256_cmp_pd(abs_s, lim, _CMP_LT_OQ)) == 0xF) {
      const __m128i s32 = _mm256_cvttpd_epi32(s);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + i),
                          _mm256_cvtepi32_epi64(s32));
    } else {
      alignas(32) double tmp[4];
      _mm256_store_pd(tmp, s);
      q[i + 0] = static_cast<std::int64_t>(tmp[0]);
      q[i + 1] = static_cast<std::int64_t>(tmp[1]);
      q[i + 2] = static_cast<std::int64_t>(tmp[2]);
      q[i + 3] = static_cast<std::int64_t>(tmp[3]);
    }
  }
  for (; i < n; ++i) {
    q[i] = detail::quantize_one(v[i], inv);
  }
}

std::uint64_t delta_zigzag_avx2(const std::int64_t* q, std::uint64_t* zz,
                                std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i vall = zero;
  std::size_t i = 1;
  for (; i + 4 <= n; i += 4) {
    const __m256i cur =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i));
    const __m256i prev =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i - 1));
    const __m256i d = _mm256_sub_epi64(cur, prev);
    // cmpgt(0, d) is all-ones exactly when d < 0: the arithmetic >>63 mask.
    const __m256i mask = _mm256_cmpgt_epi64(zero, d);
    const __m256i z = _mm256_xor_si256(_mm256_slli_epi64(d, 1), mask);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(zz + i), z);
    vall = _mm256_or_si256(vall, z);
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vall);
  std::uint64_t all = lanes[0] | lanes[1] | lanes[2] | lanes[3];
  for (; i < n; ++i) {
    const std::uint64_t z = detail::zigzag(q[i] - q[i - 1]);
    zz[i] = z;
    all |= z;
  }
  return all;
}

void unpack_deltas_avx2(const std::uint8_t* packed, std::size_t nwords,
                        std::uint8_t bits, std::int64_t* deltas,
                        std::size_t n) {
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  const auto* words = reinterpret_cast<const long long*>(packed);
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i v63 = _mm256_set1_epi64x(63);
  const __m256i v64 = _mm256_set1_epi64x(64);
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i zero = _mm256_setzero_si256();
  // GCC's unmasked gather expands through _mm256_undefined_*, which trips
  // -Wmaybe-uninitialized under -Werror; the all-ones-masked form is the
  // same instruction with a defined (ignored) source.
  const __m256i ones = _mm256_set1_epi64x(-1);
  const long long b = bits;
  const __m256i lane_off = _mm256_set_epi64x(3 * b, 2 * b, b, 0);
  std::size_t i = 1;
  std::uint64_t bitpos = 0;  // bit position of element i's delta
  for (; i + 4 <= n; i += 4, bitpos += 4 * static_cast<std::uint64_t>(bits)) {
    // The unconditional w+1 gather must stay inside the word array; hand the
    // last few elements to the (conditionally borrowing) scalar tail.
    const std::uint64_t last = bitpos + 3 * static_cast<std::uint64_t>(bits);
    if ((last >> 6) + 2 > nwords) {
      break;
    }
    const __m256i vb = _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<long long>(bitpos)), lane_off);
    const __m256i w = _mm256_srli_epi64(vb, 6);
    const __m256i off = _mm256_and_si256(vb, v63);
    const __m256i lo = _mm256_srlv_epi64(
        _mm256_mask_i64gather_epi64(zero, words, w, ones, 8), off);
    // When off+bits <= 64 the borrow shift is >= bits, so the mask kills the
    // spurious high bits (and a shift count of 64 yields 0 under sllv).
    const __m256i hi = _mm256_sllv_epi64(
        _mm256_mask_i64gather_epi64(zero, words, _mm256_add_epi64(w, one),
                                    ones, 8),
        _mm256_sub_epi64(v64, off));
    const __m256i val =
        _mm256_and_si256(_mm256_or_si256(lo, hi), vmask);
    const __m256i d = _mm256_xor_si256(
        _mm256_srli_epi64(val, 1),
        _mm256_sub_epi64(zero, _mm256_and_si256(val, one)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(deltas + i), d);
  }
  for (; i < n; ++i) {
    deltas[i] =
        detail::unpack_one(packed, static_cast<std::size_t>(bitpos), bits,
                           mask);
    bitpos += bits;
  }
}

void trilinear_block_avx2(const double* field, std::size_t nx, std::size_t ny,
                          std::size_t nz, const double* xs, const double* ys,
                          const double* zs, double* out, std::size_t n) {
  // i32gather indices must fit int32; fields are bounded far below this
  // (kMaxDim = 2^20 per axis), but guard anyway.
  if (nx * ny * nz > (std::size_t{1} << 31)) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = detail::trilinear_one(field, nx, ny, nz, xs[i], ys[i], zs[i]);
    }
    return;
  }
  const __m256d zero = _mm256_setzero_pd();
  const __m256d vmx = _mm256_set1_pd(static_cast<double>(nx - 1));
  const __m256d vmy = _mm256_set1_pd(static_cast<double>(ny - 1));
  const __m256d vmz = _mm256_set1_pd(static_cast<double>(nz - 1));
  const __m128i imx = _mm_set1_epi32(static_cast<int>(nx - 1));
  const __m128i imy = _mm_set1_epi32(static_cast<int>(ny - 1));
  const __m128i imz = _mm_set1_epi32(static_cast<int>(nz - 1));
  const __m128i inx = _mm_set1_epi32(static_cast<int>(nx));
  const __m128i iny = _mm_set1_epi32(static_cast<int>(ny));
  const __m128i ione = _mm_set1_epi32(1);
  // std::clamp bit-exactly: v<lo -> lo, else hi<v -> hi, else v (keeps -0.0).
  const auto clamp = [&](__m256d v, __m256d hi) {
    v = _mm256_blendv_pd(v, zero, _mm256_cmp_pd(v, zero, _CMP_LT_OQ));
    return _mm256_blendv_pd(v, hi, _mm256_cmp_pd(hi, v, _CMP_LT_OQ));
  };
  const auto lerp = [](__m256d a, __m256d b, __m256d t) {
    return _mm256_add_pd(a, _mm256_mul_pd(_mm256_sub_pd(b, a), t));
  };
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = clamp(_mm256_loadu_pd(xs + i), vmx);
    const __m256d y = clamp(_mm256_loadu_pd(ys + i), vmy);
    const __m256d z = clamp(_mm256_loadu_pd(zs + i), vmz);
    const __m128i i0 = _mm256_cvttpd_epi32(x);
    const __m128i j0 = _mm256_cvttpd_epi32(y);
    const __m128i k0 = _mm256_cvttpd_epi32(z);
    const __m128i i1 = _mm_min_epi32(_mm_add_epi32(i0, ione), imx);
    const __m128i j1 = _mm_min_epi32(_mm_add_epi32(j0, ione), imy);
    const __m128i k1 = _mm_min_epi32(_mm_add_epi32(k0, ione), imz);
    const __m256d fx = _mm256_sub_pd(x, _mm256_cvtepi32_pd(i0));
    const __m256d fy = _mm256_sub_pd(y, _mm256_cvtepi32_pd(j0));
    const __m256d fz = _mm256_sub_pd(z, _mm256_cvtepi32_pd(k0));
    // Row bases (k*ny + j)*nx for the four (j,k) corner pairs.
    const auto base = [&](__m128i j, __m128i k) {
      return _mm_mullo_epi32(
          _mm_add_epi32(_mm_mullo_epi32(k, iny), j), inx);
    };
    const __m128i b00 = base(j0, k0);
    const __m128i b10 = base(j1, k0);
    const __m128i b01 = base(j0, k1);
    const __m128i b11 = base(j1, k1);
    // All-ones-masked gather: see unpack_deltas_avx2 for why not the
    // unmasked intrinsic.
    const __m256d gmask = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    const auto gather = [&](__m128i row_base, __m128i col) {
      return _mm256_mask_i32gather_pd(zero, field,
                                      _mm_add_epi32(row_base, col), gmask, 8);
    };
    const __m256d c00 = lerp(gather(b00, i0), gather(b00, i1), fx);
    const __m256d c10 = lerp(gather(b10, i0), gather(b10, i1), fx);
    const __m256d c01 = lerp(gather(b01, i0), gather(b01, i1), fx);
    const __m256d c11 = lerp(gather(b11, i0), gather(b11, i1), fx);
    _mm256_storeu_pd(out + i, lerp(lerp(c00, c10, fy), lerp(c01, c11, fy),
                                   fz));
  }
  for (; i < n; ++i) {
    out[i] = detail::trilinear_one(field, nx, ny, nz, xs[i], ys[i], zs[i]);
  }
}

bool composite_block_avx2(const double* vs, std::size_t n,
                          const CompositeTf* tf, double step, double early,
                          double* acc) {
  // The alpha chain stays sequential through the shared reference op; the
  // 4-wide vector lanes produce the clamped intensities and skip whole
  // transparent (all v <= lo) blocks. NaN lanes fall back to the reference
  // op — the branch clamp and min/max disagree on NaN.
  std::size_t s = 0;
  if (tf->hi > tf->lo) {
    const bool zero_transparent =
        detail::composite_zero_opacity(*tf, step) <= 0.0;
    const __m256d vlo = _mm256_set1_pd(tf->lo);
    const __m256d vrange = _mm256_set1_pd(tf->hi - tf->lo);
    const __m256d vone = _mm256_set1_pd(1.0);
    const __m256d vzero = _mm256_setzero_pd();
    alignas(32) double ts[4];
    for (; s + 4 <= n; s += 4) {
      const __m256d v = _mm256_loadu_pd(vs + s);
      if (zero_transparent &&
          _mm256_movemask_pd(_mm256_cmp_pd(v, vlo, _CMP_LE_OQ)) == 0xF) {
        continue;
      }
      if (_mm256_movemask_pd(_mm256_cmp_pd(v, v, _CMP_EQ_OQ)) != 0xF) {
        for (std::size_t k = s; k < s + 4; ++k) {
          if (detail::composite_one(detail::composite_intensity(vs[k], *tf),
                                    *tf, step, early, acc)) {
            return true;
          }
        }
        continue;
      }
      const __m256d raw = _mm256_div_pd(_mm256_sub_pd(v, vlo), vrange);
      _mm256_store_pd(ts, _mm256_max_pd(_mm256_min_pd(raw, vone), vzero));
      for (double t : ts) {
        if (detail::composite_one(t, *tf, step, early, acc)) {
          return true;
        }
      }
    }
  }
  for (; s < n; ++s) {
    if (detail::composite_one(detail::composite_intensity(vs[s], *tf), *tf,
                              step, early, acc)) {
      return true;
    }
  }
  return false;
}

}  // namespace

const KernelTable* avx2_table() {
  static const KernelTable t = [] {
    KernelTable k = scalar_table();
    k.path = IsaPath::kAvx2;
    k.jacobi2d_row = &jacobi2d_row_avx2;
    k.jacobi3d_row = &jacobi3d_row_avx2;
    k.defect2d_row = &defect2d_row_avx2;
    k.defect3d_row = &defect3d_row_avx2;
    k.scan_abs_finite = &scan_abs_finite_avx2;
    k.quantize = &quantize_avx2;
    k.delta_zigzag = &delta_zigzag_avx2;
    k.unpack_deltas = &unpack_deltas_avx2;
    k.trilinear_block = &trilinear_block_avx2;
    k.composite_block = &composite_block_avx2;
    return k;
  }();
  return &t;
}

}  // namespace greenvis::util::simd

#else  // !__AVX2__

namespace greenvis::util::simd {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace greenvis::util::simd

#endif
