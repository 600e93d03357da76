// Runtime-dispatched SIMD kernel layer for the three hottest inner loops:
// the Jacobi stencil row sweeps (2-D/3-D solvers), the delta+bitpack codec
// scan/quantize/zigzag/unpack loops, and the volume ray-marcher's trilinear
// sample blocks.
//
// Dispatch model: two paths. The CPU is probed once at first use (AVX2 on
// x86 when the CPUID feature bit is set, the scalar reference everywhere
// else) and the chosen kernel table is published through one atomic
// pointer. `GREENVIS_SIMD=scalar|avx2|auto` overrides the choice at startup;
// a path the host cannot run is rejected, never installed. `set_path()`
// swaps the table at runtime so oracles and tests can compare paths inside
// one process.
//
// Bit-identity contract: the AVX2 implementation performs exactly the
// per-element operation sequence of the scalar reference — same association,
// same rounding, no FMA contraction (the kernel TUs are compiled with
// -ffp-contract=off and without -mfma) — so both paths produce bit-identical
// results. The `simd.scalar_vs_vector` differential oracle and the per-ISA
// generative properties in src/qa enforce this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace greenvis::util::simd {

enum class IsaPath : int { kScalar = 0, kAvx2 = 1 };

/// Result of the codec's combined max-abs/finiteness prescan.
struct ScanResult {
  double max_abs{0.0};
  bool finite{true};
};

/// Flattened transfer function + piecewise-linear colormap for the volume
/// compositing kernel: plain arrays so the kernel TUs need no vis types.
/// The stop arrays are SoA views owned by the caller (positions strictly
/// increasing, front 0.0, back 1.0, stop_count >= 2 — ColorMap's own
/// invariants).
struct CompositeTf {
  double lo{0.0};
  double hi{1.0};
  double opacity_scale{0.0};
  double gamma{1.0};
  const double* stop_pos{nullptr};
  const double* stop_r{nullptr};
  const double* stop_g{nullptr};
  const double* stop_b{nullptr};
  std::size_t stop_count{0};
};

/// One function pointer per vectorized inner loop. All rows/blocks are
/// length-parameterized so callers keep their own blocking and boundary
/// handling; kernels only ever touch [ib, ie) / [0, n).
struct KernelTable {
  IsaPath path;

  /// out[i] = (rhs[i] + tr*(((row[i-1]+row[i+1]) + row_s[i]) + row_n[i]))
  ///          * inv_diag  for i in [ib, ie).
  void (*jacobi2d_row)(double* out, const double* rhs, const double* row,
                       const double* row_s, const double* row_n, double tr,
                       double inv_diag, std::size_t ib, std::size_t ie);
  /// Seven-point 3-D analog (adds row_d/row_u planes, weight r).
  void (*jacobi3d_row)(double* out, const double* rhs, const double* row,
                       const double* row_s, const double* row_n,
                       const double* row_d, const double* row_u, double r,
                       double inv_diag, std::size_t ib, std::size_t ie);
  /// Max-norm residual of one interior row:
  /// acc = max(acc, |(1+4tr)*c - tr*sum4 - rhs[i]|). NaN defects are
  /// ignored exactly as std::max(acc, NaN) ignores them.
  double (*defect2d_row)(const double* rhs, const double* row,
                         const double* row_s, const double* row_n, double tr,
                         std::size_t ib, std::size_t ie, double acc);
  double (*defect3d_row)(const double* rhs, const double* row,
                         const double* row_s, const double* row_n,
                         const double* row_d, const double* row_u, double r,
                         std::size_t ib, std::size_t ie, double acc);

  /// max|v[i]| plus all-finite flag (finite iff v[i]-v[i]==0 for all i).
  ScanResult (*scan_abs_finite)(const double* v, std::size_t n);
  /// q[i] = (int64)(t + copysign(0.5, t)) with t = v[i]*inv. Precondition:
  /// every v[i] finite and |t| bounded by the caller's kMaxQuantum check.
  void (*quantize)(const double* v, std::int64_t* q, double inv,
                   std::size_t n);
  /// zz[i] = zigzag(q[i]-q[i-1]) for i in [1, n); returns the OR of all
  /// zigzags (the codec derives the bit width from it). q is not modified.
  std::uint64_t (*delta_zigzag)(const std::int64_t* q, std::uint64_t* zz,
                                std::size_t n);
  /// Pack zz[1..n) at `bits` bits per value into 64-bit words; returns the
  /// word count. Sequential OR-chaining (shared scalar implementation; the
  /// vector win upstream is the quantize/zigzag production of zz).
  std::size_t (*pack_deltas)(const std::uint64_t* zz, std::uint8_t bits,
                             std::uint64_t* words, std::size_t n);
  /// Extract and unzigzag the n-1 deltas of width `bits` (1..63) from the
  /// little-endian packed words into deltas[1..n).
  void (*unpack_deltas)(const std::uint8_t* packed, std::size_t nwords,
                        std::uint8_t bits, std::int64_t* deltas,
                        std::size_t n);

  /// Trilinear-sample the row-major field at n (xs, ys, zs) points —
  /// exactly vis::trilinear_sample per element (clamp, truncate, 7 lerps).
  void (*trilinear_block)(const double* field, std::size_t nx, std::size_t ny,
                          std::size_t nz, const double* xs, const double* ys,
                          const double* zs, double* out, std::size_t n);

  /// Front-to-back alpha-composite the n samples in vs into acc[4] =
  /// {r, g, b, a}: per sample, intensity clamp((v-lo)/(hi-lo)), opacity
  /// clamp(scale*pow(t,gamma)*step), transparent samples skipped, colormap
  /// segment lerp quantized to uint8 channels, w = (1-acc_a)*a accumulate.
  /// Returns true when acc[3] crossed early_termination; samples after the
  /// crossing are not consumed. The alpha chain is sequential, so vector
  /// rows win on the intensity arithmetic and on skipping whole blocks of
  /// transparent (v <= lo) samples — results stay bit-identical to scalar.
  bool (*composite_block)(const double* vs, std::size_t n,
                          const CompositeTf* tf, double step,
                          double early_termination, double* acc);
};

[[nodiscard]] const char* path_name(IsaPath path);
/// Parse "scalar|avx2|auto" ("auto" = detected best); an unknown name
/// throws ContractViolation.
[[nodiscard]] IsaPath parse_path(const std::string& name);
/// Scalar is always supported; AVX2 when its TU was compiled for this target
/// AND the CPU reports the feature (i.e. it is the detected path).
[[nodiscard]] bool path_supported(IsaPath path);
[[nodiscard]] std::vector<IsaPath> supported_paths();
/// Best supported path on this host (ignores overrides).
[[nodiscard]] IsaPath detected_path();
/// Path the hot loops currently dispatch to.
[[nodiscard]] IsaPath active_path();
/// Force a path at runtime (REQUIREs it supported). Not synchronized with
/// concurrently running kernels — switch between workloads, not inside one.
void set_path(IsaPath path);
/// Table for an explicit path (REQUIREs it supported) — for tests/bench.
[[nodiscard]] const KernelTable& table_for(IsaPath path);
/// The active table: one relaxed atomic load; hoist out of inner loops.
[[nodiscard]] const KernelTable& kernels();

}  // namespace greenvis::util::simd
