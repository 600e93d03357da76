// Unit tests for the runtime-dispatched SIMD kernel layer (src/util/simd),
// the NUMA helpers and first-touch field construction. Bit-exactness across
// ISA paths is additionally enforced by the simd.scalar_vs_vector oracle and
// the simd.* generative properties; here we pin the dispatch machinery
// itself plus targeted edge cases the random sweeps are unlikely to hit
// (int32-boundary quanta, NaN defects, 64-bit-straddling bit widths).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "src/codec/field_codec.hpp"
#include "src/heat/solver.hpp"
#include "src/util/error.hpp"
#include "src/util/field.hpp"
#include "src/util/field3d.hpp"
#include "src/util/numa.hpp"
#include "src/util/simd/simd.hpp"
#include "src/util/thread_pool.hpp"

namespace greenvis {
namespace {

namespace simd = util::simd;

/// Restores the active path on scope exit so tests can't leak a forced
/// path into each other.
struct PathGuard {
  simd::IsaPath restore{simd::active_path()};
  ~PathGuard() { simd::set_path(restore); }
};

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// ---- dispatch machinery ----

TEST(SimdDispatch, ProbeSanity) {
  // The detected path must be supported, scalar must always be supported,
  // and the supported set must contain both.
  EXPECT_TRUE(simd::path_supported(simd::detected_path()));
  EXPECT_TRUE(simd::path_supported(simd::IsaPath::kScalar));
  const auto paths = simd::supported_paths();
  EXPECT_NE(std::find(paths.begin(), paths.end(), simd::IsaPath::kScalar),
            paths.end());
  EXPECT_NE(std::find(paths.begin(), paths.end(), simd::detected_path()),
            paths.end());
  for (const simd::IsaPath p : paths) {
    EXPECT_TRUE(simd::path_supported(p));
    EXPECT_EQ(simd::table_for(p).path, p);
  }
#if defined(__AVX2__)
  // Compiled for AVX2 ⇒ the host runs AVX2 ⇒ the probe must find it.
  EXPECT_EQ(simd::detected_path(), simd::IsaPath::kAvx2);
#endif
}

TEST(SimdDispatch, SupportedPathsAreScalarPlusDetected) {
  // Two paths exist: the scalar reference, plus AVX2 exactly when the probe
  // found it.
  const bool avx2 = simd::detected_path() == simd::IsaPath::kAvx2;
  const std::vector<simd::IsaPath> want =
      avx2 ? std::vector<simd::IsaPath>{simd::IsaPath::kScalar,
                                        simd::IsaPath::kAvx2}
           : std::vector<simd::IsaPath>{simd::IsaPath::kScalar};
  EXPECT_EQ(simd::supported_paths(), want);
  EXPECT_EQ(simd::path_supported(simd::IsaPath::kAvx2), avx2);
}

TEST(SimdDispatch, ParsePathNames) {
  EXPECT_EQ(simd::parse_path("scalar"), simd::IsaPath::kScalar);
  EXPECT_EQ(simd::parse_path("avx2"), simd::IsaPath::kAvx2);
  EXPECT_EQ(simd::parse_path("auto"), simd::detected_path());
  EXPECT_THROW((void)simd::parse_path("sse2"), util::ContractViolation);
  EXPECT_THROW((void)simd::parse_path("neon"), util::ContractViolation);
  EXPECT_THROW((void)simd::parse_path("avx512"), util::ContractViolation);
  EXPECT_THROW((void)simd::parse_path(""), util::ContractViolation);
  for (const simd::IsaPath p : simd::supported_paths()) {
    EXPECT_EQ(simd::parse_path(simd::path_name(p)), p);
  }
}

TEST(SimdDispatch, SetPathSwitchesActiveTable) {
  PathGuard guard;
  for (const simd::IsaPath p : simd::supported_paths()) {
    simd::set_path(p);
    EXPECT_EQ(simd::active_path(), p);
    EXPECT_EQ(simd::kernels().path, p);
  }
  simd::set_path(simd::IsaPath::kScalar);
  EXPECT_EQ(simd::kernels().path, simd::IsaPath::kScalar);
}

TEST(SimdDispatch, UnsupportedPathIsRejected) {
  // On a host without AVX2 the path must be rejected by set_path/table_for
  // rather than dispatched.
  if (!simd::path_supported(simd::IsaPath::kAvx2)) {
    EXPECT_THROW(simd::set_path(simd::IsaPath::kAvx2),
                 util::ContractViolation);
    EXPECT_THROW((void)simd::table_for(simd::IsaPath::kAvx2),
                 util::ContractViolation);
  }
}

// ---- targeted kernel edge cases (per supported path) ----

TEST(SimdKernels, QuantizeHalfwayAndLargeValues) {
  // copysign(0.5) rounding at exact halves, values straddling the int32
  // fast-path boundary, and negative extremes — all must match scalar.
  const std::vector<double> v = {
      0.5,     -0.5,  1.5,     -1.5,  2.5,          -2.5,
      2.147e9, -2.2e9, 4.0e9,  -4.0e9, 2147483647.0, -2147483648.0,
      2147483648.5, -2147483649.5, 0.0, -0.0,
      1e-12,   -1e-12, 123456789.123, -987654321.987};
  const simd::KernelTable& ref = simd::table_for(simd::IsaPath::kScalar);
  std::vector<std::int64_t> want(v.size());
  ref.quantize(v.data(), want.data(), 1.0, v.size());
  for (const simd::IsaPath p : simd::supported_paths()) {
    std::vector<std::int64_t> got(v.size());
    simd::table_for(p).quantize(v.data(), got.data(), 1.0, v.size());
    EXPECT_EQ(got, want) << simd::path_name(p);
  }
}

TEST(SimdKernels, ScanFlagsNonFinite) {
  std::vector<double> v(37, 1.0);
  for (const simd::IsaPath p : simd::supported_paths()) {
    const simd::KernelTable& tbl = simd::table_for(p);
    simd::ScanResult r = tbl.scan_abs_finite(v.data(), v.size());
    EXPECT_TRUE(r.finite) << simd::path_name(p);
    EXPECT_EQ(r.max_abs, 1.0) << simd::path_name(p);

    v[35] = std::numeric_limits<double>::quiet_NaN();
    r = tbl.scan_abs_finite(v.data(), v.size());
    EXPECT_FALSE(r.finite) << simd::path_name(p);
    v[35] = std::numeric_limits<double>::infinity();
    r = tbl.scan_abs_finite(v.data(), v.size());
    EXPECT_FALSE(r.finite) << simd::path_name(p);
    v[35] = 1.0;
  }
}

TEST(SimdKernels, PackUnpackWideWidthsStraddleWords) {
  // 61-bit deltas force nearly every value to straddle a word boundary —
  // the borrow path of unpack_deltas.
  const std::size_t n = 23;
  std::vector<std::uint64_t> zz(n, 0);
  for (std::size_t i = 1; i < n; ++i) {
    zz[i] = (0x1234567890ABCDEFULL * i) & ((1ULL << 61) - 1);
  }
  const std::uint8_t bits = 61;
  const simd::KernelTable& ref = simd::table_for(simd::IsaPath::kScalar);
  std::vector<std::uint64_t> words(n + 2, 0);
  const std::size_t nw = ref.pack_deltas(zz.data(), bits, words.data(), n);
  std::vector<std::uint8_t> packed(nw * 8);
  for (std::size_t i = 0; i < nw; ++i) {
    for (int b = 0; b < 8; ++b) {
      packed[i * 8 + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(words[i] >> (8 * b));
    }
  }
  std::vector<std::int64_t> want(n, 0);
  ref.unpack_deltas(packed.data(), nw, bits, want.data(), n);
  for (const simd::IsaPath p : simd::supported_paths()) {
    std::vector<std::int64_t> got(n, 0);
    simd::table_for(p).unpack_deltas(packed.data(), nw, bits, got.data(), n);
    EXPECT_EQ(got, want) << simd::path_name(p);
  }
}

TEST(SimdKernels, DefectIgnoresNanLikeStdMax) {
  // std::max(acc, NaN) keeps acc; the vector defect kernels must do the
  // same so a NaN defect cannot silently poison the residual max.
  const std::size_t n = 11;
  std::vector<double> rhs(n, 0.0), row(n, 1.0), row_s(n, 1.0), row_n(n, 1.0);
  row[4] = std::numeric_limits<double>::quiet_NaN();
  const simd::KernelTable& ref = simd::table_for(simd::IsaPath::kScalar);
  const double want = ref.defect2d_row(rhs.data(), row.data(), row_s.data(),
                                       row_n.data(), 0.25, 1, n - 1, 0.75);
  EXPECT_FALSE(std::isnan(want));
  for (const simd::IsaPath p : simd::supported_paths()) {
    const double got = simd::table_for(p).defect2d_row(
        rhs.data(), row.data(), row_s.data(), row_n.data(), 0.25, 1, n - 1,
        0.75);
    EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
        << simd::path_name(p);
  }
}

// ---- end-to-end path equality ----

TEST(SimdEndToEnd, SolverAndCodecMatchScalarOnEveryPath) {
  PathGuard guard;
  const auto run = [] {
    heat::HeatProblem problem;
    problem.nx = 53;  // odd: exercises vector tails every row
    problem.ny = 47;
    problem.executed_sweeps = 6;
    heat::HeatSolver solver(problem, nullptr);
    solver.set_eigenmode(2, 3, 10.0);
    solver.step();
    solver.step();
    std::vector<double> field(solver.temperature().values().begin(),
                              solver.temperature().values().end());

    util::Field2D f(41, 33);
    for (std::size_t j = 0; j < f.ny(); ++j) {
      for (std::size_t i = 0; i < f.nx(); ++i) {
        f.at(i, j) = std::sin(0.3 * static_cast<double>(i)) *
                     static_cast<double>(j + 1);
      }
    }
    codec::FieldCodec delta{codec::CodecConfig{codec::Kind::kDelta, 1e-5, 16}};
    const auto blob = delta.encode(f);
    return std::pair<std::vector<double>, std::vector<std::uint8_t>>{
        std::move(field), blob};
  };
  simd::set_path(simd::IsaPath::kScalar);
  const auto [field_ref, blob_ref] = run();
  for (const simd::IsaPath p : simd::supported_paths()) {
    simd::set_path(p);
    const auto [field, blob] = run();
    EXPECT_TRUE(bits_equal(field, field_ref)) << simd::path_name(p);
    EXPECT_EQ(blob, blob_ref) << simd::path_name(p);
  }
}

// ---- NUMA helpers ----

TEST(Numa, TopologyIsSane) {
  const util::numa::Topology& topo = util::numa::topology();
  ASSERT_GE(topo.node_count(), 1u);
  std::size_t cpus = 0;
  for (const auto& node : topo.node_cpus) {
    cpus += node.size();
  }
  EXPECT_GE(cpus, 1u);
}

TEST(Numa, PinToNodeIsBenign) {
  // Pinning must never throw; on single-node hosts it's effectively a
  // no-op (the mask is "all CPUs"), and out-of-range nodes wrap.
  const std::size_t nodes = util::numa::topology().node_count();
  (void)util::numa::pin_to_node(0);
  (void)util::numa::pin_to_node(nodes);      // wraps modulo node count
  (void)util::numa::pin_to_node(nodes + 7);  // still fine
}

TEST(Numa, FirstTouchFillMatchesSerialFill) {
  util::ThreadPool pool(4);
  const std::size_t n = (1 << 16) + 37;  // past the parallel gate, odd tail
  std::vector<double> serial(n);
  std::fill(serial.begin(), serial.end(), 3.25);
  std::vector<double> touched(n, 0.0);
  util::numa::first_touch_fill(touched.data(), n, 3.25, &pool);
  EXPECT_TRUE(bits_equal(serial, touched));
  // Small ranges and null pools take the serial path and still fill.
  std::vector<double> small(100, 0.0);
  util::numa::first_touch_fill(small.data(), small.size(), -1.5, &pool);
  util::numa::first_touch_fill(touched.data(), n, -1.5, nullptr);
  for (const double v : small) {
    EXPECT_EQ(v, -1.5);
  }
  EXPECT_EQ(touched.front(), -1.5);
  EXPECT_EQ(touched.back(), -1.5);
}

TEST(Numa, FirstTouchFieldsEqualPlainFields) {
  util::ThreadPool pool(3);
  const util::Field2D plain2(300, 250, 1.5);
  const util::Field2D touched2(300, 250, 1.5, &pool);
  EXPECT_TRUE(plain2 == touched2);
  const util::Field3D plain3(40, 45, 42, -2.0);
  const util::Field3D touched3(40, 45, 42, -2.0, &pool);
  EXPECT_TRUE(plain3 == touched3);
  // Null pool degrades to the serial fill.
  const util::Field2D null_pool(17, 13, 4.0, nullptr);
  EXPECT_TRUE(null_pool == util::Field2D(17, 13, 4.0));
}

// ---- FieldStorage semantics the fields rely on ----

TEST(FieldStorage, CopyAndCompareSemantics) {
  util::Field2D a(9, 7, 0.0);
  a.at(3, 2) = std::numeric_limits<double>::quiet_NaN();
  const util::Field2D b = a;  // copies bits, including the NaN
  // NaN != NaN, so like vector<double>, a NaN-carrying field never equals
  // anything — including its own copy. The solvers rely on this to surface
  // poisoned fields in differential checks.
  EXPECT_FALSE(a == b);
  a.at(3, 2) = 1.0;
  util::Field2D c = a;
  EXPECT_TRUE(a == c);
  c = util::Field2D(2, 2, 5.0);  // move-assign smaller
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.at(1, 1), 5.0);
  // Alignment: the SIMD kernels assume nothing, but the storage promises
  // cache-line alignment for predictable vector loads.
  const auto addr = reinterpret_cast<std::uintptr_t>(c.values().data());
  EXPECT_EQ(addr % util::FieldStorage::kAlignment, 0u);
}

}  // namespace
}  // namespace greenvis
