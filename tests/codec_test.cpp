// Field-codec subsystem tests: container round-trips and error bounds,
// bit-exact non-finite passthrough, raw-kind byte identity with the legacy
// serialization, corrupt/truncated-input rejection, scratch sized by the
// field rather than the header, the zero-allocation steady-state guarantee
// of the timestep hot loop, and the post-processing pipeline's byte
// accounting under an active codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <optional>
#include <random>
#include <vector>

#include "src/codec/field_codec.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/testbed.hpp"
#include "src/core/workload.hpp"
#include "src/heat/solver.hpp"
#include "src/io/dataset.hpp"
#include "src/obs/registry.hpp"
#include "src/serve/viewer.hpp"
#include "src/storage/hdd.hpp"
#include "src/trace/clock.hpp"
#include "src/util/error.hpp"
#include "src/util/field.hpp"
#include "src/vis/pipeline.hpp"
#include "tests/wrapped_blobs.hpp"

// ---------- global allocation counter (for the zero-alloc test) ----------

namespace {
std::atomic<std::uint64_t> g_allocations{0};
// Largest single request since the last reset (for the scratch-size test).
std::atomic<std::size_t> g_largest_request{0};

void count_request(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t seen = g_largest_request.load(std::memory_order_relaxed);
  while (n > seen && !g_largest_request.compare_exchange_weak(
                         seen, n, std::memory_order_relaxed)) {
  }
}
}  // namespace

namespace {
void* counted_alloc(std::size_t n) {
  count_request(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  count_request(n);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return operator new(n, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
// Over-aligned allocations too: Field2D storage is 64-byte aligned.
void* operator new(std::size_t n, std::align_val_t al) {
  count_request(n);
  const auto align = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(align, (n + align - 1) / align * align)) {
    return p;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return operator new(n, al);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace greenvis::codec {
namespace {

using util::ContractViolation;
using util::Field2D;

Field2D random_field2d(std::size_t nx, std::size_t ny, unsigned seed,
                       double lo = -10.0, double hi = 10.0) {
  Field2D f(nx, ny);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(lo, hi);
  for (double& v : f.values()) {
    v = dist(rng);
  }
  return f;
}

Field2D smooth_field2d(std::size_t n) {
  Field2D f(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const double x = static_cast<double>(i) / static_cast<double>(n);
      const double y = static_cast<double>(j) / static_cast<double>(n);
      f.at(i, j) = 40.0 * std::sin(6.0 * x) * std::cos(4.0 * y) + 25.0 * x;
    }
  }
  return f;
}

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

bool bit_identical(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Kind, ParseAndNameRoundTrip) {
  EXPECT_EQ(parse_kind("raw"), Kind::kRaw);
  EXPECT_EQ(parse_kind("delta"), Kind::kDelta);
  EXPECT_EQ(parse_kind("rle"), Kind::kRle);
  EXPECT_STREQ(kind_name(Kind::kRaw), "raw");
  EXPECT_STREQ(kind_name(Kind::kDelta), "delta");
  EXPECT_STREQ(kind_name(Kind::kRle), "rle");
  EXPECT_STREQ(kind_name(Kind::kLorenzo), "lorenzo");
  // The predictive transform selects kLorenzo; --codec stays raw|delta|rle.
  EXPECT_EQ(parse_kind("lorenzo"), std::nullopt);
  EXPECT_EQ(parse_kind("zstd"), std::nullopt);
  EXPECT_EQ(parse_kind(""), std::nullopt);
}

TEST(Config, RejectsInvalid) {
  CodecConfig bad_edge;
  bad_edge.chunk_edge = 0;
  EXPECT_THROW(FieldCodec{bad_edge}, ContractViolation);
  bad_edge.chunk_edge = 4096;
  EXPECT_THROW(FieldCodec{bad_edge}, ContractViolation);
  CodecConfig bad_tol;
  bad_tol.kind = Kind::kDelta;
  bad_tol.tolerance = 0.0;
  EXPECT_THROW(FieldCodec{bad_tol}, ContractViolation);
  bad_tol.tolerance = std::numeric_limits<double>::infinity();
  EXPECT_THROW(FieldCodec{bad_tol}, ContractViolation);
  bad_tol.kind = Kind::kLorenzo;  // 0 is lossless; negative or inf is not
  EXPECT_THROW(FieldCodec{bad_tol}, ContractViolation);
  bad_tol.tolerance = -1e-3;
  EXPECT_THROW(FieldCodec{bad_tol}, ContractViolation);
  bad_tol.tolerance = 0.0;
  EXPECT_NO_THROW(FieldCodec{bad_tol});
}

// --- raw kind: identity codec, byte-for-byte the legacy serialization ---

TEST(RawKind, ByteIdenticalToLegacySerialize2D) {
  const Field2D f = random_field2d(37, 53, 1);
  FieldCodec codec;  // default = raw
  EXPECT_FALSE(codec.active());
  EXPECT_EQ(codec.encode(f), f.serialize());
}

TEST(RawKind, PreservesNonFiniteBitsExactly) {
  Field2D f = random_field2d(16, 16, 3);
  f.at(0, 0) = std::numeric_limits<double>::quiet_NaN();
  f.at(1, 0) = std::numeric_limits<double>::infinity();
  f.at(2, 0) = -std::numeric_limits<double>::infinity();
  f.at(3, 0) = -0.0;
  FieldCodec codec;
  const Field2D back = FieldCodec::decode2d(codec.encode(f));
  EXPECT_TRUE(bit_identical(f.values(), back.values()));
}

// --- delta kind: error bound, fallbacks, compression ---

TEST(DeltaKind, RoundTripWithinTolerance2D) {
  for (const double tol : {1e-2, 1e-4, 1e-6}) {
    const Field2D f = random_field2d(37, 53, 4);  // non-chunk-multiple dims
    CodecConfig cfg;
    cfg.kind = Kind::kDelta;
    cfg.tolerance = tol;
    cfg.chunk_edge = 16;
    FieldCodec codec(cfg);
    EXPECT_TRUE(codec.active());
    const auto blob = codec.encode(f);
    EXPECT_TRUE(FieldCodec::is_container(blob));
    const Field2D back = FieldCodec::decode2d(blob);
    ASSERT_EQ(back.nx(), f.nx());
    ASSERT_EQ(back.ny(), f.ny());
    EXPECT_LE(max_abs_diff(f.values(), back.values()), tol);
  }
}

TEST(DeltaKind, NonFiniteChunkFallsBackBitExact) {
  Field2D f = random_field2d(32, 32, 6);
  // Poison one 8x8 chunk with non-finite values; the rest stay quantizable.
  f.at(2, 2) = std::numeric_limits<double>::quiet_NaN();
  f.at(3, 2) = std::numeric_limits<double>::infinity();
  CodecConfig cfg;
  cfg.kind = Kind::kDelta;
  cfg.tolerance = 1e-3;
  cfg.chunk_edge = 8;
  FieldCodec codec(cfg);
  const Field2D back = FieldCodec::decode2d(codec.encode(f));
  // Poisoned chunk is passed through with its exact bits...
  for (std::size_t j = 0; j < 8; ++j) {
    for (std::size_t i = 0; i < 8; ++i) {
      const double want = f.at(i, j);
      const double got = back.at(i, j);
      EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0);
    }
  }
  // ...and the finite chunks still honor the tolerance.
  EXPECT_LE(std::fabs(f.at(20, 20) - back.at(20, 20)), 1e-3);
  EXPECT_GT(codec.last_stats().chunks_delta, 0u);
}

TEST(DeltaKind, HugeMagnitudesFallBackBitExact) {
  Field2D f(8, 8, 0.0);
  for (double& v : f.values()) {
    v = 1.0e300;  // quantum would overflow int64 at tol 1e-3
  }
  f.at(0, 0) = -1.0e300;
  CodecConfig cfg;
  cfg.kind = Kind::kDelta;
  cfg.tolerance = 1e-3;
  FieldCodec codec(cfg);
  const Field2D back = FieldCodec::decode2d(codec.encode(f));
  EXPECT_TRUE(bit_identical(f.values(), back.values()));
  EXPECT_EQ(codec.last_stats().chunks_delta, 0u);
}

TEST(DeltaKind, CompressesSmoothFields) {
  const Field2D f = smooth_field2d(128);
  CodecConfig cfg;
  cfg.kind = Kind::kDelta;
  cfg.tolerance = 1e-3;
  FieldCodec codec(cfg);
  const auto blob = codec.encode(f);
  const EncodeStats& s = codec.last_stats();
  EXPECT_EQ(s.raw_bytes, f.serialized_bytes());
  EXPECT_EQ(s.encoded_bytes, blob.size());
  EXPECT_GE(s.ratio(), 3.0);
  // 128/32 = 4 chunks per side.
  EXPECT_EQ(s.chunks_raw + s.chunks_delta + s.chunks_rle, 16u);
}

TEST(DeltaKind, ConstantFieldCollapsesToRuns) {
  const Field2D f(64, 64, 42.5);
  CodecConfig cfg;
  cfg.kind = Kind::kDelta;
  cfg.tolerance = 1e-3;
  FieldCodec codec(cfg);
  const auto blob = codec.encode(f);
  const Field2D back = FieldCodec::decode2d(blob);
  EXPECT_LE(max_abs_diff(f.values(), back.values()), 1e-3);
  EXPECT_GE(codec.last_stats().ratio(), 50.0);
}

TEST(DeltaKind, EncodeIsDeterministic) {
  const Field2D f = random_field2d(40, 24, 7);
  CodecConfig cfg;
  cfg.kind = Kind::kDelta;
  FieldCodec codec(cfg);
  std::vector<std::uint8_t> a;
  std::vector<std::uint8_t> b;
  codec.encode(f, a);
  codec.encode(f, b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, codec.encode(f));  // by-value overload agrees
}

// --- rle kind: lossless run coding ---

TEST(RleKind, LosslessRoundTripOnRunData) {
  Field2D f(48, 48, 0.0);
  for (std::size_t j = 0; j < 48; ++j) {
    for (std::size_t i = 0; i < 48; ++i) {
      f.at(i, j) = i < 24 ? 1.0 : 2.0;  // long runs inside each chunk row
    }
  }
  CodecConfig cfg;
  cfg.kind = Kind::kRle;
  FieldCodec codec(cfg);
  const auto blob = codec.encode(f);
  EXPECT_LT(blob.size(), f.serialized_bytes());
  const Field2D back = FieldCodec::decode2d(blob);
  EXPECT_TRUE(bit_identical(f.values(), back.values()));
  EXPECT_GT(codec.last_stats().chunks_rle, 0u);
}

TEST(RleKind, IncompressibleDataFallsBackToRawChunks) {
  const Field2D f = random_field2d(32, 32, 8);  // no runs at all
  CodecConfig cfg;
  cfg.kind = Kind::kRle;
  FieldCodec codec(cfg);
  const Field2D back = FieldCodec::decode2d(codec.encode(f));
  EXPECT_TRUE(bit_identical(f.values(), back.values()));
  EXPECT_EQ(codec.last_stats().chunks_rle, 0u);
  EXPECT_GT(codec.last_stats().chunks_raw, 0u);
}

// --- lorenzo kind: the predictive "GVZ1" stream ---

FieldCodec lorenzo_codec(double tolerance) {
  return FieldCodec{CodecConfig{Kind::kLorenzo, tolerance}};
}

TEST(LorenzoKind, VarintExtremesRoundTripBitExact) {
  // A 1x1 field predicts 0, so its one varint is the value's raw bits:
  // LEB128 lengths of 1, 2, 3 and 10 bytes, including all 64 bits set.
  struct Case {
    std::uint64_t bits;
    std::size_t varint_bytes;
  };
  const Case cases[] = {{0, 1},        {1, 1},        {127, 1},
                        {128, 2},      {300, 2},      {1u << 20, 3},
                        {~0ULL, 10},   {0x8000000000000000ULL, 10}};
  FieldCodec codec = lorenzo_codec(0.0);
  for (const Case& c : cases) {
    const Field2D f(1, 1, std::bit_cast<double>(c.bits));
    const auto blob = codec.encode(f);
    // magic + mode + nx + ny + bound, then the cell.
    EXPECT_EQ(blob.size(), 15 + c.varint_bytes) << c.bits;
    const Field2D back = FieldCodec::decode2d(blob);
    EXPECT_TRUE(bit_identical(f.values(), back.values())) << c.bits;
  }
}

TEST(LorenzoKind, ZigzagQuantaRoundTripAtExtremes) {
  // With step 1, a 1x1 field's one quantum is its value, zigzag-coded. The
  // widest quanta the stream admits (|q| < 9e18) take all 10 varint bytes;
  // small magnitudes of either sign take one.
  struct Case {
    double value;
    std::size_t varint_bytes;
  };
  const Case cases[] = {{0.0, 1},       {1.0, 1},       {-1.0, 1},
                        {-3.0, 1},      {123456.0, 3},  {-123456.0, 3},
                        {8.5e18, 10},   {-8.5e18, 10}};
  FieldCodec codec = lorenzo_codec(1.0);
  for (const Case& c : cases) {
    const Field2D f(1, 1, c.value);
    const auto blob = codec.encode(f);
    EXPECT_EQ(blob.size(), 15 + c.varint_bytes) << c.value;
    EXPECT_EQ(FieldCodec::decode2d(blob).at(0, 0), c.value) << c.value;
  }
  // Quanta that would overflow int64 are refused, not wrapped.
  EXPECT_THROW((void)codec.encode(Field2D(1, 1, 9.5e18)), ContractViolation);
}

TEST(LorenzoKind, LosslessBitExactOnSmoothAndNoise) {
  FieldCodec codec = lorenzo_codec(0.0);
  for (const Field2D& f :
       {smooth_field2d(64), random_field2d(32, 32, 5, -100.0, 100.0)}) {
    const Field2D back = FieldCodec::decode2d(codec.encode(f));
    EXPECT_TRUE(bit_identical(f.values(), back.values()));
  }
}

TEST(LorenzoKind, BoundedErrorWithinHalfTolerance) {
  const Field2D f = smooth_field2d(64);
  for (double bound : {1e-6, 1e-3, 0.1, 5.0}) {
    FieldCodec codec = lorenzo_codec(2.0 * bound);
    const Field2D g = FieldCodec::decode2d(codec.encode(f));
    EXPECT_LE(max_abs_diff(f.values(), g.values()), bound * (1.0 + 1e-9))
        << "bound=" << bound;
  }
}

TEST(LorenzoKind, BoundHoldsOnAdversarialNoise) {
  // Error feedback through the predictor must not compound.
  const Field2D f = random_field2d(48, 48, 99, -100.0, 100.0);
  const double bound = 0.5;
  FieldCodec codec = lorenzo_codec(2.0 * bound);
  const Field2D g = FieldCodec::decode2d(codec.encode(f));
  for (std::size_t k = 0; k < f.size(); ++k) {
    ASSERT_LE(std::fabs(f.values()[k] - g.values()[k]), bound * (1.0 + 1e-9));
  }
}

TEST(LorenzoKind, SmoothFieldsCompressWell) {
  const Field2D f = smooth_field2d(128);
  FieldCodec lossy = lorenzo_codec(0.02);
  const auto blob = lossy.encode(f);
  EXPECT_GT(lossy.last_stats().ratio(), 3.0);
  EXPECT_EQ(lossy.last_stats().encoded_bytes, blob.size());
  // Tighter bounds cost more bits.
  FieldCodec tighter = lorenzo_codec(2e-6);
  EXPECT_LT(blob.size(), tighter.encode(f).size());
}

TEST(LorenzoKind, StepsFlowThroughDataset) {
  trace::VirtualClock clock;
  storage::HddModel hdd{storage::HddParams{}};
  storage::Filesystem fs(hdd, clock, storage::FsParams{});
  const io::DatasetConfig config;
  const Field2D field = smooth_field2d(64);
  FieldCodec codec = lorenzo_codec(0.02);
  io::TimestepWriter writer(fs, config);
  writer.write_step(0, codec.encode(field));
  fs.drop_caches();
  io::TimestepReader reader(fs, config);
  Field2D back;
  codec.decode_into(reader.read_step(0), back);
  EXPECT_EQ(back.nx(), field.nx());
  EXPECT_LE(max_abs_diff(field.values(), back.values()), 0.01 * (1.0 + 1e-9));
}

// --- container detection, legacy auto-detect, decode_into reuse ---

TEST(Container, DetectsMagicButNotLegacyBytes) {
  const Field2D f = random_field2d(16, 16, 9);
  CodecConfig cfg;
  cfg.kind = Kind::kDelta;
  FieldCodec codec(cfg);
  EXPECT_TRUE(FieldCodec::is_container(codec.encode(f)));
  EXPECT_FALSE(FieldCodec::is_container(f.serialize()));
  const std::vector<std::uint8_t> tiny(4, 0);
  EXPECT_FALSE(FieldCodec::is_container(tiny));
  // A lorenzo stream is no container, but decode finds it by its own magic
  // rather than misreading it as a legacy blob.
  FieldCodec lorenzo = lorenzo_codec(0.0);
  const auto stream = lorenzo.encode(f);
  EXPECT_FALSE(FieldCodec::is_container(stream));
  EXPECT_EQ(FieldCodec::decode2d(stream), f);
}

TEST(Container, LegacyBlobsAutoDetectOnDecode) {
  const Field2D f2 = random_field2d(19, 31, 10);
  FieldCodec codec;
  Field2D out2;
  codec.decode_into(f2.serialize(), out2);
  EXPECT_EQ(out2, f2);
  // Static helpers take the same path.
  EXPECT_EQ(FieldCodec::decode2d(f2.serialize()), f2);
}

TEST(Container, DecodeIntoResizesOnDimensionMismatch) {
  const Field2D f = random_field2d(24, 24, 12);
  CodecConfig cfg;
  cfg.kind = Kind::kDelta;
  FieldCodec codec(cfg);
  const auto blob = codec.encode(f);
  Field2D out(8, 8);  // wrong dims: must be replaced, not corrupted
  codec.decode_into(blob, out);
  ASSERT_EQ(out.nx(), 24u);
  ASSERT_EQ(out.ny(), 24u);
  EXPECT_LE(max_abs_diff(f.values(), out.values()), cfg.tolerance);
}

// --- corrupt and truncated input must fail loudly, never crash ---

TEST(Robustness, EveryTruncationLengthThrows) {
  const Field2D f = random_field2d(16, 16, 13);
  CodecConfig cfg;
  cfg.kind = Kind::kDelta;
  cfg.chunk_edge = 8;
  FieldCodec codec(cfg);
  FieldCodec lossless = lorenzo_codec(0.0);
  FieldCodec bounded = lorenzo_codec(0.02);
  for (const auto& blob :
       {codec.encode(f), lossless.encode(f), bounded.encode(f)}) {
    for (std::size_t len = 0; len < blob.size(); ++len) {
      EXPECT_THROW((void)FieldCodec::decode2d({blob.data(), len}),
                   ContractViolation)
          << "truncation to " << len << " bytes was accepted";
    }
  }
}

TEST(Robustness, CorruptHeaderFieldsThrow) {
  const Field2D f = random_field2d(16, 16, 14);
  CodecConfig cfg;
  cfg.kind = Kind::kDelta;
  FieldCodec codec(cfg);
  const auto good = codec.encode(f);

  auto corrupted = [&](std::size_t offset, std::uint8_t value) {
    std::vector<std::uint8_t> bad = good;
    bad[offset] = value;
    return bad;
  };
  // version, rank, kind, chunk edge (low byte -> 0).
  EXPECT_THROW((void)FieldCodec::decode2d(corrupted(8, 2)),
               ContractViolation);
  EXPECT_THROW((void)FieldCodec::decode2d(corrupted(9, 4)),
               ContractViolation);
  EXPECT_THROW((void)FieldCodec::decode2d(corrupted(10, 7)),
               ContractViolation);
  EXPECT_THROW((void)FieldCodec::decode2d(corrupted(12, 0)),
               ContractViolation);
  // Implausible nx (set the top byte of the u64 at offset 16).
  EXPECT_THROW((void)FieldCodec::decode2d(corrupted(23, 0xFF)),
               ContractViolation);
  // Non-finite tolerance (exponent bytes of the f64 at offset 40).
  {
    std::vector<std::uint8_t> bad = good;
    bad[46] = 0xF0;
    bad[47] = 0x7F;  // +inf
    EXPECT_THROW((void)FieldCodec::decode2d(bad), ContractViolation);
  }
  // Corrupt first chunk's payload length.
  EXPECT_THROW((void)FieldCodec::decode2d(corrupted(52, 0xFF)),
               ContractViolation);
  // Trailing garbage after the last chunk.
  {
    std::vector<std::uint8_t> bad = good;
    bad.push_back(0);
    EXPECT_THROW((void)FieldCodec::decode2d(bad), ContractViolation);
  }
}

TEST(Robustness, LorenzoCorruptHeaderFieldsThrow) {
  const Field2D f = random_field2d(16, 16, 14);
  FieldCodec codec = lorenzo_codec(0.02);
  const auto good = codec.encode(f);
  auto corrupted = [&](std::size_t offset, std::uint8_t value) {
    std::vector<std::uint8_t> bad = good;
    bad[offset] = value;
    return bad;
  };
  // Bad mode byte; zero nx; the bound of a bounded stream zeroed.
  EXPECT_THROW((void)FieldCodec::decode2d(corrupted(4, 2)), ContractViolation);
  EXPECT_THROW((void)FieldCodec::decode2d(corrupted(5, 0)), ContractViolation);
  {
    std::vector<std::uint8_t> bad = good;
    std::fill(bad.begin() + 7, bad.begin() + 15, 0);
    EXPECT_THROW((void)FieldCodec::decode2d(bad), ContractViolation);
  }
  // 19 bytes claiming 1048575 x 1048575 cells (~8.8 TB once decoded): a
  // ContractViolation before anything is allocated, never bad_alloc.
  const std::vector<std::uint8_t> huge = {0x31, 0x5A, 0x56, 0x47, 0,
                                          0xFF, 0xFF, 0x3F, 0xFF, 0xFF,
                                          0x3F, 0,    0,    0,    0,
                                          0,    0,    0,    0};
  EXPECT_THROW((void)FieldCodec::decode2d(huge), ContractViolation);
}

TEST(Robustness, LorenzoTrailingBytesAndOverlongVarintsThrow) {
  FieldCodec codec = lorenzo_codec(0.0);
  // One cell whose XOR delta is all 64 bits: a maximal 10-byte varint.
  const auto blob = codec.encode(Field2D(1, 1, std::bit_cast<double>(~0ULL)));
  ASSERT_EQ(blob.back(), 0x01);  // the 10th byte carries only bit 63
  for (const std::uint8_t tenth : {std::uint8_t{0x02}, std::uint8_t{0x81}}) {
    std::vector<std::uint8_t> bad = blob;
    bad.back() = tenth;  // bits past 63, or an 11th byte
    bad.push_back(0);
    EXPECT_THROW((void)FieldCodec::decode2d(bad), ContractViolation);
    bad.pop_back();
    EXPECT_THROW((void)FieldCodec::decode2d(bad), ContractViolation);
  }
  const auto trailing = [](std::vector<std::uint8_t> b) {
    b.push_back(0);
    return b;
  };
  FieldCodec bounded = lorenzo_codec(0.02);
  const Field2D f = random_field2d(16, 16, 21);
  EXPECT_THROW((void)FieldCodec::decode2d(trailing(bounded.encode(f))),
               ContractViolation);
  EXPECT_THROW((void)FieldCodec::decode2d(trailing(codec.encode(f))),
               ContractViolation);
}

TEST(Robustness, RankThreeContainerThrows) {
  // Containers are 2-D only: a valid blob that claims rank 3, or a depth
  // other than 1, is rejected rather than decoded as a plane.
  CodecConfig cfg;
  cfg.kind = Kind::kDelta;
  FieldCodec codec(cfg);
  const auto good = codec.encode(random_field2d(16, 16, 15));
  ASSERT_EQ(good[9], 2);
  std::vector<std::uint8_t> rank3 = good;
  rank3[9] = 3;
  EXPECT_THROW((void)FieldCodec::decode2d(rank3), ContractViolation);
  std::vector<std::uint8_t> deep = good;
  ASSERT_EQ(deep[32], 1);
  deep[32] = 2;  // nz, the u64 at offset 32
  EXPECT_THROW((void)FieldCodec::decode2d(deep), ContractViolation);
}

TEST(Robustness, TruncatedLegacyBlobThrows) {
  const std::vector<std::uint8_t> not_magic(10, 0x5A);
  FieldCodec codec;
  Field2D out;
  EXPECT_THROW(codec.decode_into(not_magic, out), ContractViolation);
  // Headers whose byte count wraps to the header size: they must not
  // decode into a field that claims 2^62 columns but holds no cells.
  Field2D out2(4, 4);
  EXPECT_THROW(codec.decode_into(util::wrapped_field2d_blob(), out2),
               ContractViolation);
}

// --- scratch follows the field, not the header's chunk edge ---

constexpr std::size_t kMiB = std::size_t{1} << 20;

/// A 64-byte container whose header claims the largest legal chunk edge
/// (1024) for a 1 x 1 field, holding one raw chunk of `value`. Sizing
/// scratch by the edge alone would ask for 1024^2 doubles (8 MiB).
std::vector<std::uint8_t> edge_1024_blob(double tolerance, double value) {
  std::vector<std::uint8_t> b = util::dims_only_blob({0x314345444F435647ULL});
  b.insert(b.end(), {1, 2, 0, 0});     // version 1, rank 2, kind raw
  b.insert(b.end(), {0, 4, 0, 0});     // chunk edge 1024
  const std::vector<std::uint8_t> tail = util::dims_only_blob(
      {1, 1, 1, std::bit_cast<std::uint64_t>(tolerance),
       std::uint64_t{8} << 32,  // chunk header: raw, 8-byte payload
       std::bit_cast<std::uint64_t>(value)});
  b.insert(b.end(), tail.begin(), tail.end());
  return b;
}

TEST(ScratchSize, DecodeIgnoresAHugeClaimedChunkEdge) {
  for (const double tolerance : {0.0, 1e-3}) {
    const std::vector<std::uint8_t> blob = edge_1024_blob(tolerance, 2.5);
    ASSERT_EQ(blob.size(), 64u);
    g_largest_request.store(0);
    const Field2D f = FieldCodec::decode2d(blob);
    EXPECT_LT(g_largest_request.load(), kMiB) << "tolerance " << tolerance;
    ASSERT_EQ(f.size(), 1u);
    EXPECT_EQ(f.at(0, 0), 2.5);
  }
}

TEST(ScratchSize, EncodeOfASmallFieldIgnoresAHugeChunkEdge) {
  Field2D f(2, 2);
  f.at(1, 1) = 4.0;
  for (const Kind kind : {Kind::kRle, Kind::kDelta}) {
    FieldCodec codec(CodecConfig{kind, 1e-3, 1024});
    g_largest_request.store(0);
    const std::vector<std::uint8_t> blob = codec.encode(f);
    EXPECT_LT(g_largest_request.load(), kMiB) << kind_name(kind);
    const Field2D back = FieldCodec::decode2d(blob);
    EXPECT_LE(max_abs_diff(back.values(), f.values()), 1e-3)
        << kind_name(kind);
  }
}

TEST(ScratchSize, ForgedDimensionsAllocateNothing) {
  // A bare 48-byte header claiming a 2048 x 2048 raw field (32 MiB once
  // decoded) and holding no chunk: the chunk table is checked before the
  // field is sized, so decode throws without allocating the claim.
  std::vector<std::uint8_t> blob =
      util::dims_only_blob({0x314345444F435647ULL});
  blob.insert(blob.end(), {1, 2, 0, 0});   // version 1, rank 2, kind raw
  blob.insert(blob.end(), {32, 0, 0, 0});  // chunk edge 32
  const std::vector<std::uint8_t> tail =
      util::dims_only_blob({2048, 2048, 1, 0});  // nx, ny, nz, tolerance
  blob.insert(blob.end(), tail.begin(), tail.end());
  ASSERT_EQ(blob.size(), 48u);
  g_largest_request.store(0);
  EXPECT_THROW((void)FieldCodec::decode2d(blob), ContractViolation);
  EXPECT_LT(g_largest_request.load(), kMiB);
}

}  // namespace
}  // namespace greenvis::codec

// ------------------------- hot-loop allocations -------------------------

namespace greenvis::util {
namespace {

// The steady-state guarantee: one timestep of the hot loop — solver step,
// codec encode + decode (delta chunks and a bounded lorenzo stream), render
// into a reused frame, plus a steered serve view (region-of-interest crop
// and a non-square resize), each on buffers its owner keeps — performs zero
// heap allocations after warm-up.
TEST(HotLoop, TimestepIsAllocationFreeAtSteadyState) {
  heat::HeatProblem problem;
  problem.nx = 64;
  problem.ny = 64;
  problem.executed_sweeps = 4;
  problem.sources.push_back(heat::HeatSource{32.0, 32.0, 8.0, 100.0});
  heat::HeatSolver solver(problem, nullptr);  // serial

  vis::VisConfig vis_config;
  vis_config.width = 64;
  vis_config.height = 64;
  vis::VisPipeline vis_pipeline(vis_config, nullptr);
  vis::Image frame;

  serve::ViewParams view;
  view.width = 48;
  view.height = 80;
  view.roi_x0 = 0.25;
  view.roi_y0 = 0.1;
  view.roi_x1 = 0.8;
  view.roi_y1 = 0.7;
  const vis::VisPipeline view_pipeline(serve::vis_config_for(view, vis_config),
                                       nullptr);
  Field2D roi;
  vis::Image view_frame;

  codec::CodecConfig codec_config;
  codec_config.kind = codec::Kind::kDelta;
  codec_config.tolerance = 1e-3;
  codec::FieldCodec codec(codec_config);
  std::vector<std::uint8_t> payload;
  payload.reserve(solver.temperature().serialized_bytes());
  Field2D decoded(problem.nx, problem.ny);
  codec::FieldCodec lorenzo(
      codec::CodecConfig{codec::Kind::kLorenzo, codec_config.tolerance});
  std::vector<std::uint8_t> lorenzo_payload;
  Field2D lorenzo_decoded(problem.nx, problem.ny);

  auto timestep = [&] {
    (void)solver.step();
    codec.encode(solver.temperature(), payload);
    codec.decode_into(payload, decoded);
    lorenzo.encode(solver.temperature(), lorenzo_payload);
    lorenzo.decode_into(lorenzo_payload, lorenzo_decoded);
    vis_pipeline.render_into(decoded, frame);
    serve::render_view(view, decoded, view_pipeline, roi, view_frame);
  };

  for (int i = 0; i < 3; ++i) {
    timestep();  // warm-up: scratch, image and payload capacity,
                 // registry statics
  }
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 5; ++i) {
    timestep();
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "hot loop allocated " << (after - before)
                                << " times over 5 steady-state timesteps";
}

}  // namespace
}  // namespace greenvis::util

// ----------------- pipeline integration: codec accounting -----------------

namespace greenvis::core {
namespace {

CaseStudyConfig small_case(codec::Kind kind) {
  CaseStudyConfig c = case_study(1);
  c.iterations = 8;
  c.vis.width = 64;
  c.vis.height = 64;
  c.snapshot_codec.kind = kind;
  c.snapshot_codec.tolerance = 1e-3;
  return c;
}

PipelineOptions serial_options() {
  PipelineOptions o;
  o.host_threads = 2;
  return o;
}

TEST(CodecPipeline, RawCodecAccountsFullBytes) {
  Testbed bed;
  const PipelineOutput out =
      run_pipeline(bed, PipelineKind::kPostProcessing,
                   small_case(codec::Kind::kRaw), serial_options());
  EXPECT_GT(out.snapshot_bytes_raw.value(), 0u);
  EXPECT_EQ(out.snapshot_bytes_written.value(), out.snapshot_bytes_raw.value());
  EXPECT_EQ(out.snapshot_bytes_read.value(), out.snapshot_bytes_raw.value());
}

TEST(CodecPipeline, DeltaCodecShrinksBytesTimeAndStorageCounters) {
  // The storage counters are behind the observability kill switch.
  obs::set_enabled(true);
  auto& registry = obs::Registry::global();
  obs::Counter& written = registry.counter("storage.bytes_written");
  obs::Counter& read = registry.counter("storage.bytes_read");

  const std::uint64_t w0 = written.value();
  const std::uint64_t r0 = read.value();
  Testbed raw_bed;
  const PipelineOutput raw_out =
      run_pipeline(raw_bed, PipelineKind::kPostProcessing,
                   small_case(codec::Kind::kRaw), serial_options());
  const std::uint64_t w1 = written.value();
  const std::uint64_t r1 = read.value();

  Testbed delta_bed;
  const PipelineOutput delta_out =
      run_pipeline(delta_bed, PipelineKind::kPostProcessing,
                   small_case(codec::Kind::kDelta), serial_options());
  const std::uint64_t w2 = written.value();
  const std::uint64_t r2 = read.value();

  // Same schedule, same uncompressed payload...
  EXPECT_EQ(delta_out.visualized_steps, raw_out.visualized_steps);
  EXPECT_EQ(delta_out.snapshot_bytes_raw.value(),
            raw_out.snapshot_bytes_raw.value());
  // ...but at least 3x fewer bytes on the wire, read back smaller too.
  EXPECT_GE(raw_out.snapshot_bytes_written.as_double() /
                delta_out.snapshot_bytes_written.as_double(),
            3.0);
  EXPECT_LT(delta_out.snapshot_bytes_read.value(),
            raw_out.snapshot_bytes_read.value());
  // The virtual pipeline finishes sooner (I/O dominates Fig. 10).
  EXPECT_LT(delta_bed.clock().now().value(), raw_bed.clock().now().value());
  // Observability storage counters track the compressed payloads.
  EXPECT_LT(w2 - w1, w1 - w0);
  EXPECT_LT(r2 - r1, r1 - r0);
  EXPECT_GT(w1 - w0, 0u);
  EXPECT_GT(r1 - r0, 0u);
  obs::set_enabled(false);
}

TEST(CodecPipeline, DeltaKeepsScienceWithinTolerance) {
  Testbed raw_bed, delta_bed;
  const PipelineOutput raw_out =
      run_pipeline(raw_bed, PipelineKind::kPostProcessing,
                   small_case(codec::Kind::kRaw), serial_options());
  const PipelineOutput delta_out =
      run_pipeline(delta_bed, PipelineKind::kPostProcessing,
                   small_case(codec::Kind::kDelta), serial_options());
  // The solver never sees the codec: final fields are identical.
  EXPECT_EQ(delta_out.final_field, raw_out.final_field);
}

}  // namespace
}  // namespace greenvis::core
