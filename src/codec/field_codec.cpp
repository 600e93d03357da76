#include "src/codec/field_codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/util/simd/simd.hpp"

namespace greenvis::codec {

namespace {

// Container layout (little-endian):
//   0   u64  magic "GVCODEC1"
//   8   u8   version (1)
//   9   u8   rank (always 2)
//   10  u8   declared kind
//   11  u8   reserved (0)
//   12  u32  chunk edge (cells per side)
//   16  u64  nx
//   24  u64  ny
//   32  u64  nz (always 1)
//   40  f64  tolerance (0 when no quantized chunks can appear)
//   48  ...  chunks, row-major in (cy, cx) order, each:
//              u8 encoding, u8 bits, u16 reserved, u32 payload bytes,
//              payload
constexpr std::uint64_t kMagic = 0x314345444F435647ULL;  // "GVCODEC1"
constexpr std::uint8_t kVersion = 1;
constexpr std::size_t kContainerHeader = 48;
constexpr std::size_t kChunkHeader = 8;
constexpr std::uint8_t kRank = 2;
constexpr std::uint64_t kMaxDim = 1ULL << 20;
constexpr std::uint64_t kMaxCells = 1ULL << 32;
/// Quanta above this magnitude risk int64 overflow in the delta chain; the
/// chunk falls back to raw instead.
constexpr double kMaxQuantum = 9.0e15;  // < 2^53

constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t unzigzag(std::uint64_t u) {
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

// Lorenzo stream (Kind::kLorenzo), little-endian: u32 magic "GVZ1", u8 mode
// (0 lossless, 1 bounded), varint nx, varint ny, f64 bound = tolerance/2,
// then one LEB128 varint per cell, row-major: the value's bits XOR the
// prediction's (lossless) or the zigzagged quantum of the residual (bounded).
constexpr std::uint32_t kLorenzoMagic = 0x47565A31;  // "GVZ1"
constexpr std::size_t kMaxVarint = 10;
constexpr std::size_t kLorenzoMaxHeader = 4 + 1 + 2 * kMaxVarint + 8;
/// Bounded-error quanta at or above this magnitude would overflow int64.
constexpr double kMaxLorenzoQuantum = 9.0e18;

void put_u64(std::uint8_t* dst, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    dst[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void put_u32(std::uint8_t* dst, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    dst[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// LEB128 varint (at most kMaxVarint bytes); returns one past the last.
std::uint8_t* put_varint(std::uint8_t* dst, std::uint64_t v) {
  while (v >= 0x80) {
    *dst++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *dst++ = static_cast<std::uint8_t>(v);
  return dst;
}

std::uint64_t get_u64(const std::uint8_t* src) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(src[i]) << (8 * i);
  }
  return v;
}

std::uint64_t bits_of(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

double double_of(std::uint64_t u) {
  double v = 0.0;
  std::memcpy(&v, &u, sizeof(v));
  return v;
}

/// Serialize the 48-byte container header (layout above).
void write_container_header(std::vector<std::uint8_t>& out, Kind kind,
                            double tolerance, std::size_t chunk_edge,
                            std::size_t nx, std::size_t ny) {
  out.resize(kContainerHeader);
  put_u64(out.data(), kMagic);
  out[8] = kVersion;
  out[9] = kRank;
  out[10] = static_cast<std::uint8_t>(kind);
  out[11] = 0;
  put_u32(out.data() + 12, static_cast<std::uint32_t>(chunk_edge));
  put_u64(out.data() + 16, nx);
  put_u64(out.data() + 24, ny);
  put_u64(out.data() + 32, 1);
  put_u64(out.data() + 40, bits_of(kind == Kind::kDelta ? tolerance : 0.0));
}

/// Bounds-checked cursor over an encoded blob: every read REQUIREs the
/// bytes exist, so truncation surfaces as ContractViolation, never UB.
struct Reader {
  std::span<const std::uint8_t> data;
  std::size_t pos{0};

  void need(std::size_t n) const {
    GREENVIS_REQUIRE_MSG(pos + n <= data.size(),
                         "codec: truncated blob (need " + std::to_string(n) +
                             " bytes at offset " + std::to_string(pos) + ")");
  }
  std::uint8_t u8() {
    need(1);
    return data[pos++];
  }
  std::uint16_t u16() {
    need(2);
    const auto v = static_cast<std::uint16_t>(
        data[pos] | (static_cast<std::uint16_t>(data[pos + 1]) << 8));
    pos += 2;
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    const std::uint64_t v = get_u64(data.data() + pos);
    pos += 8;
    return v;
  }
  const std::uint8_t* bytes(std::size_t n) {
    need(n);
    const std::uint8_t* p = data.data() + pos;
    pos += n;
    return p;
  }
  /// LEB128 varint; a 10th byte may carry only bit 63.
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      const std::uint8_t byte = u8();
      GREENVIS_REQUIRE_MSG(shift < 63 || byte <= 0x01,
                           "codec: over-long varint");
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        return v;
      }
    }
  }
};

bool is_lorenzo(std::span<const std::uint8_t> blob) {
  return blob.size() >= 4 && Reader{blob}.u32() == kLorenzoMagic;
}

/// Lorenzo prediction of cell (i, j) of a row-major, nx-wide field from its
/// already-visited west, north and northwest neighbors (0 outside).
double lorenzo(const double* f, std::size_t nx, std::size_t i,
               std::size_t j) {
  const std::size_t k = j * nx + i;
  const double west = i > 0 ? f[k - 1] : 0.0;
  const double north = j > 0 ? f[k - nx] : 0.0;
  const double northwest = (i > 0 && j > 0) ? f[k - nx - 1] : 0.0;
  return west + north - northwest;
}

/// RLE size (bytes) of `v[0..count)` under bitwise-run coding.
std::size_t rle_bytes(const double* v, std::size_t count) {
  std::size_t runs = 1;
  std::uint64_t prev = bits_of(v[0]);
  for (std::size_t i = 1; i < count; ++i) {
    const std::uint64_t cur = bits_of(v[i]);
    runs += cur != prev;
    prev = cur;
  }
  return runs * 12;
}

/// Cells in the largest chunk of an nx x ny field: boundary chunks are
/// clipped, so scratch follows the field, not the header's edge alone.
std::size_t max_chunk_cells(std::size_t e, std::size_t nx, std::size_t ny) {
  return std::min(e, nx) * std::min(e, ny);
}

/// The first `count` elements of `buf`, which grows as needed and never
/// shrinks, so a steady workload stops allocating after its first call.
template <typename T>
std::span<T> scratch(std::vector<T>& buf, std::size_t count) {
  if (buf.size() < count) {
    buf.resize(count);
  }
  return {buf.data(), count};
}

}  // namespace

std::optional<Kind> parse_kind(const std::string& name) {
  if (name == "raw") {
    return Kind::kRaw;
  }
  if (name == "delta") {
    return Kind::kDelta;
  }
  if (name == "rle") {
    return Kind::kRle;
  }
  return std::nullopt;
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kRaw:
      return "raw";
    case Kind::kDelta:
      return "delta";
    case Kind::kRle:
      return "rle";
    case Kind::kLorenzo:
      return "lorenzo";
  }
  return "?";
}

FieldCodec::FieldCodec(const CodecConfig& config) : config_(config) {
  GREENVIS_REQUIRE(config_.chunk_edge >= 1 && config_.chunk_edge <= 1024);
  if (config_.kind == Kind::kDelta) {
    GREENVIS_REQUIRE_MSG(config_.tolerance > 0.0 &&
                             std::isfinite(config_.tolerance),
                         "delta codec needs a positive finite tolerance");
  }
  if (config_.kind == Kind::kLorenzo) {
    GREENVIS_REQUIRE_MSG(config_.tolerance >= 0.0 &&
                             std::isfinite(config_.tolerance),
                         "lorenzo codec needs a finite tolerance >= 0");
  }
}

FieldCodec::ChunkResult FieldCodec::encode_chunk(
    const double* v, std::size_t count, std::span<std::int64_t> q,
    std::span<std::uint64_t> zz, std::span<std::uint64_t> words,
    std::uint8_t* dst) const {
  const std::size_t raw_payload = count * sizeof(double);
  const util::simd::KernelTable& kern = util::simd::kernels();

  auto put_header = [&](ChunkEncoding enc, std::uint8_t bits,
                        std::uint32_t payload) {
    dst[0] = static_cast<std::uint8_t>(enc);
    dst[1] = bits;
    dst[2] = 0;
    dst[3] = 0;
    put_u32(dst + 4, payload);
  };
  auto put_raw = [&]() -> ChunkResult {
    put_header(ChunkEncoding::kRaw, 0,
               static_cast<std::uint32_t>(raw_payload));
    std::memcpy(dst + kChunkHeader, v, raw_payload);
    return {kChunkHeader + raw_payload, ChunkEncoding::kRaw};
  };
  auto put_rle = [&](std::size_t payload) -> ChunkResult {
    put_header(ChunkEncoding::kRle, 0, static_cast<std::uint32_t>(payload));
    std::uint8_t* cur = dst + kChunkHeader;
    std::uint64_t run_value = bits_of(v[0]);
    std::uint32_t run_len = 1;
    for (std::size_t i = 1; i < count; ++i) {
      const std::uint64_t b = bits_of(v[i]);
      if (b == run_value) {
        ++run_len;
      } else {
        put_u64(cur, run_value);
        put_u32(cur + 8, run_len);
        cur += 12;
        run_value = b;
        run_len = 1;
      }
    }
    put_u64(cur, run_value);
    put_u32(cur + 8, run_len);
    cur += 12;
    GREENVIS_ENSURE(static_cast<std::size_t>(cur - dst) ==
                    kChunkHeader + payload);
    return {kChunkHeader + payload, ChunkEncoding::kRle};
  };

  if (config_.kind == Kind::kRle) {
    const std::size_t rle = rle_bytes(v, count);
    return rle < raw_payload ? put_rle(rle) : put_raw();
  }

  // kind == kDelta: quantize when every value is finite and its quantum
  // fits the delta chain; otherwise degrade to rle/raw, preserving bits.
  const double inv = 1.0 / config_.tolerance;
  const util::simd::ScanResult scan = kern.scan_abs_finite(v, count);
  if (!scan.finite || scan.max_abs * inv > kMaxQuantum) {
    const std::size_t rle = rle_bytes(v, count);
    return rle < raw_payload ? put_rle(rle) : put_raw();
  }

  // Quantize (branch-free: round-half-away via copysign), then zigzag the
  // deltas into `zz` (q keeps the absolute quanta; q[0] heads the payload).
  kern.quantize(v, q.data(), inv, count);
  const std::uint64_t all = kern.delta_zigzag(q.data(), zz.data(), count);
  std::uint8_t bits = 0;
  while (all >> bits != 0) {
    ++bits;
  }
  const std::size_t nwords =
      bits == 0 ? 0 : ((count - 1) * bits + 63) / 64;
  const std::size_t payload = 8 + nwords * 8;
  if (payload >= raw_payload) {
    return put_raw();
  }

  put_header(ChunkEncoding::kDeltaBitpack, bits,
             static_cast<std::uint32_t>(payload));
  put_u64(dst + kChunkHeader, static_cast<std::uint64_t>(q[0]));
  if (bits > 0) {
    const std::size_t w = kern.pack_deltas(zz.data(), bits, words.data(),
                                           count);
    GREENVIS_ENSURE(w == nwords);
    for (std::size_t k = 0; k < nwords; ++k) {
      put_u64(dst + kChunkHeader + 8 + k * 8, words[k]);
    }
  }
  return {kChunkHeader + payload, ChunkEncoding::kDeltaBitpack};
}

void FieldCodec::bump_chunk_stats(ChunkEncoding encoding) {
  switch (encoding) {
    case ChunkEncoding::kRaw:
      ++stats_.chunks_raw;
      break;
    case ChunkEncoding::kDeltaBitpack:
      ++stats_.chunks_delta;
      break;
    case ChunkEncoding::kRle:
      ++stats_.chunks_rle;
      break;
  }
}

void FieldCodec::encode_values(const util::Field2D& field,
                               std::vector<std::uint8_t>& out) {
  const std::size_t e = config_.chunk_edge;
  const std::size_t nx = field.nx();
  const std::size_t ny = field.ny();
  const std::size_t max_cells = max_chunk_cells(e, nx, ny);
  const std::span<double> staging = scratch(chunk_buf_, max_cells);
  std::span<std::int64_t> q{};
  std::span<std::uint64_t> zz{};
  std::span<std::uint64_t> words{};
  if (config_.kind == Kind::kDelta) {
    q = scratch(q_buf_, max_cells);
    zz = scratch(zz_buf_, max_cells);
    words = scratch(word_buf_, max_cells);  // bits <= 63 < 64: never more
  }

  write_container_header(out, config_.kind, config_.tolerance, e, nx, ny);

  const double* src = field.values().data();
  for (std::size_t y0 = 0; y0 < ny; y0 += e) {
    const std::size_t y1 = std::min(ny, y0 + e);
    for (std::size_t x0 = 0; x0 < nx; x0 += e) {
      const std::size_t x1 = std::min(nx, x0 + e);
      // Gather the chunk into contiguous SoA order (x fastest).
      const std::size_t w = x1 - x0;
      for (std::size_t y = y0; y < y1; ++y) {
        std::memcpy(staging.data() + (y - y0) * w, src + y * nx + x0,
                    w * sizeof(double));
      }
      const std::size_t count = w * (y1 - y0);
      // Worst-case bound-sized emission, trimmed to what was written —
      // byte-identical to an append-based emit.
      const std::size_t bound = kChunkHeader + count * sizeof(double);
      const std::size_t pos = out.size();
      out.resize(pos + bound);
      const ChunkResult r =
          encode_chunk(staging.data(), count, q, zz, words, out.data() + pos);
      out.resize(pos + r.bytes);
      bump_chunk_stats(r.encoding);
    }
  }
}

void FieldCodec::encode_lorenzo(const util::Field2D& field,
                                std::vector<std::uint8_t>& out) {
  const std::size_t nx = field.nx();
  const std::size_t ny = field.ny();
  GREENVIS_REQUIRE(field.size() > 0);
  // Worst-case emission, trimmed to what was written: the capacity is
  // reused, so the steady state allocates nothing.
  out.resize(kLorenzoMaxHeader + field.size() * kMaxVarint);
  std::uint8_t* cur = out.data();
  put_u32(cur, kLorenzoMagic);
  const bool lossless = config_.tolerance == 0.0;
  cur[4] = lossless ? 0 : 1;
  cur = put_varint(put_varint(cur + 5, nx), ny);
  put_u64(cur, bits_of(config_.tolerance / 2.0));
  cur += 8;

  // Lossless predicts from the values (the decoder rebuilds them exactly);
  // bounded predicts from the reconstruction so the error never compounds.
  const double* v = field.values().data();
  double* recon = lossless ? nullptr : scratch(chunk_buf_, field.size()).data();
  const double* basis = lossless ? v : recon;
  const double step = config_.tolerance;
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      const std::size_t k = j * nx + i;
      const double pred = lorenzo(basis, nx, i, j);
      if (lossless) {
        cur = put_varint(cur, bits_of(v[k]) ^ bits_of(pred));
        continue;
      }
      const double q = std::round((v[k] - pred) / step);
      GREENVIS_REQUIRE_MSG(std::abs(q) < kMaxLorenzoQuantum,
                           "codec: value range too wide for the error bound");
      const auto qi = static_cast<std::int64_t>(q);
      cur = put_varint(cur, zigzag(qi));
      recon[k] = pred + static_cast<double>(qi) * step;
    }
  }
  out.resize(static_cast<std::size_t>(cur - out.data()));
}

void FieldCodec::decode_lorenzo(std::span<const std::uint8_t> blob,
                                util::Field2D& out) {
  Reader r{blob};
  (void)r.u32();  // magic
  const std::uint8_t mode = r.u8();
  GREENVIS_REQUIRE_MSG(mode <= 1, "codec: unknown lorenzo mode");
  const std::uint64_t nx = r.varint();
  const std::uint64_t ny = r.varint();
  GREENVIS_REQUIRE_MSG(nx >= 1 && nx < kMaxDim && ny >= 1 && ny < kMaxDim,
                       "codec: implausible dimensions");
  const double bound = double_of(r.u64());
  GREENVIS_REQUIRE_MSG(mode == 0 || (bound > 0.0 && std::isfinite(bound)),
                       "codec: bounded lorenzo stream without error bound");
  // Every cell costs at least one varint byte: a blob too short to hold
  // them all is rejected before the field is allocated.
  GREENVIS_REQUIRE_MSG(blob.size() - r.pos >= nx * ny,
                       "codec: truncated lorenzo stream");
  if (out.nx() != nx || out.ny() != ny) {
    out = util::Field2D(nx, ny);
  }
  double* f = out.values().data();
  const double step = 2.0 * bound;
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      const double pred = lorenzo(f, nx, i, j);
      f[j * nx + i] =
          mode == 0 ? double_of(bits_of(pred) ^ r.varint())
                    : pred + static_cast<double>(unzigzag(r.varint())) * step;
    }
  }
  GREENVIS_REQUIRE_MSG(r.pos == blob.size(),
                       "codec: trailing bytes after last lorenzo cell");
}

void FieldCodec::encode(const util::Field2D& field,
                        std::vector<std::uint8_t>& out) {
  out.clear();
  stats_ = {};
  stats_.raw_bytes = field.serialized_bytes();
  if (config_.kind == Kind::kRaw) {
    // Identity: exactly the legacy serialization, byte for byte.
    out.resize(field.serialized_bytes());
    put_u64(out.data(), field.nx());
    put_u64(out.data() + 8, field.ny());
    std::memcpy(out.data() + 16, field.values().data(),
                field.size() * sizeof(double));
  } else if (config_.kind == Kind::kLorenzo) {
    encode_lorenzo(field, out);
  } else {
    encode_values(field, out);
  }
  stats_.encoded_bytes = out.size();
}

std::vector<std::uint8_t> FieldCodec::encode(const util::Field2D& field) {
  std::vector<std::uint8_t> out;
  encode(field, out);
  return out;
}

bool FieldCodec::is_container(std::span<const std::uint8_t> blob) {
  return blob.size() >= 8 && get_u64(blob.data()) == kMagic;
}

FieldCodec::ContainerInfo FieldCodec::parse_header(
    std::span<const std::uint8_t> blob) {
  Reader r{blob};
  GREENVIS_REQUIRE_MSG(r.u64() == kMagic, "codec: bad container magic");
  ContainerInfo info;
  info.version = r.u8();
  GREENVIS_REQUIRE_MSG(info.version == kVersion,
                       "codec: unsupported container version " +
                           std::to_string(info.version));
  const std::uint8_t rank = r.u8();
  GREENVIS_REQUIRE_MSG(rank == kRank,
                       "codec: bad rank " + std::to_string(rank) +
                           " (only 2-D containers exist)");
  const std::uint8_t kind = r.u8();
  GREENVIS_REQUIRE_MSG(kind <= 2, "codec: bad kind byte");
  info.kind = static_cast<Kind>(kind);
  (void)r.u8();  // reserved
  info.chunk_edge = r.u32();
  GREENVIS_REQUIRE_MSG(info.chunk_edge >= 1 && info.chunk_edge <= 1024,
                       "codec: bad chunk edge");
  info.nx = r.u64();
  info.ny = r.u64();
  GREENVIS_REQUIRE_MSG(info.nx >= 1 && info.nx <= kMaxDim &&  //
                           info.ny >= 1 && info.ny <= kMaxDim,
                       "codec: implausible dimensions");
  const std::uint64_t nz = r.u64();
  GREENVIS_REQUIRE_MSG(nz == 1, "codec: 2-D container with nz != 1");
  GREENVIS_REQUIRE_MSG(info.nx * info.ny <= kMaxCells,
                       "codec: implausible cell count");
  info.tolerance = double_of(r.u64());
  GREENVIS_REQUIRE_MSG(
      std::isfinite(info.tolerance) && info.tolerance >= 0.0,
      "codec: bad tolerance");
  return info;
}

void FieldCodec::check_chunk_table(std::span<const std::uint8_t> blob,
                                   const ContainerInfo& info) {
  const std::uint64_t e = info.chunk_edge;
  const std::uint64_t chunks =
      ((info.nx + e - 1) / e) * ((info.ny + e - 1) / e);
  // Each step consumes at least one 8-byte header, so a short blob ends the
  // walk after at most size/8 steps whatever the header claims.
  Reader r{blob};
  r.pos = kContainerHeader;
  for (std::uint64_t c = 0; c < chunks; ++c) {
    r.pos += 4;  // encoding, bits, reserved
    (void)r.bytes(r.u32());
  }
  GREENVIS_REQUIRE_MSG(r.pos == blob.size(),
                       "codec: trailing bytes after last chunk");
}

void FieldCodec::decode_chunks(std::span<const std::uint8_t> blob,
                               const ContainerInfo& info, double* dst) {
  Reader r{blob};
  r.pos = kContainerHeader;
  const std::size_t e = info.chunk_edge;
  const std::size_t nx = info.nx, ny = info.ny;
  const std::size_t max_cells = max_chunk_cells(e, nx, ny);
  const std::span<double> staging = scratch(chunk_buf_, max_cells);
  // Delta chunks unpack into an int64 scratch first (vectorizable bit
  // extraction), then a scalar prefix sum rebuilds the quanta.
  std::span<std::int64_t> deltas{};
  if (info.tolerance > 0.0) {  // delta chunks can only appear with it
    deltas = scratch(q_buf_, max_cells);
  }
  const util::simd::KernelTable& kern = util::simd::kernels();

  for (std::size_t y0 = 0; y0 < ny; y0 += e) {
    const std::size_t y1 = std::min(ny, y0 + e);
    for (std::size_t x0 = 0; x0 < nx; x0 += e) {
      const std::size_t x1 = std::min(nx, x0 + e);
      const std::size_t w = x1 - x0;
      const std::size_t count = w * (y1 - y0);

      const auto enc = r.u8();
      const std::uint8_t bits = r.u8();
      (void)r.u16();  // reserved
      const std::uint32_t payload = r.u32();

      if (enc == static_cast<std::uint8_t>(ChunkEncoding::kRaw)) {
        GREENVIS_REQUIRE_MSG(payload == count * sizeof(double),
                             "codec: raw chunk size mismatch");
        std::memcpy(staging.data(), r.bytes(payload), payload);
      } else if (enc == static_cast<std::uint8_t>(ChunkEncoding::kRle)) {
        GREENVIS_REQUIRE_MSG(payload % 12 == 0 && payload > 0,
                             "codec: rle chunk size mismatch");
        std::size_t filled = 0;
        for (std::size_t k = 0; k < payload / 12; ++k) {
          const double value = double_of(r.u64());
          const std::uint32_t len = r.u32();
          GREENVIS_REQUIRE_MSG(len > 0 && filled + len <= count,
                               "codec: rle run overflows chunk");
          for (std::size_t i = 0; i < len; ++i) {
            staging[filled + i] = value;
          }
          filled += len;
        }
        GREENVIS_REQUIRE_MSG(filled == count,
                             "codec: rle runs do not cover chunk");
      } else if (enc ==
                 static_cast<std::uint8_t>(ChunkEncoding::kDeltaBitpack)) {
        GREENVIS_REQUIRE_MSG(info.tolerance > 0.0,
                             "codec: delta chunk without tolerance");
        GREENVIS_REQUIRE_MSG(bits <= 63, "codec: bad delta bit width");
        const std::size_t nwords =
            bits == 0 ? 0 : ((count - 1) * bits + 63) / 64;
        GREENVIS_REQUIRE_MSG(payload == 8 + nwords * 8,
                             "codec: delta chunk size mismatch");
        std::int64_t qv = static_cast<std::int64_t>(r.u64());
        const double tol = info.tolerance;
        staging[0] = static_cast<double>(qv) * tol;
        if (bits == 0) {
          for (std::size_t i = 1; i < count; ++i) {
            staging[i] = staging[0];
          }
        } else {
          const std::uint8_t* packed = r.bytes(nwords * 8);
          GREENVIS_REQUIRE_MSG(!deltas.empty(),
                               "codec: delta chunk in non-delta container");
          kern.unpack_deltas(packed, nwords, bits, deltas.data(), count);
          for (std::size_t i = 1; i < count; ++i) {
            qv += deltas[i];
            staging[i] = static_cast<double>(qv) * tol;
          }
        }
      } else {
        GREENVIS_REQUIRE_MSG(false, "codec: unknown chunk encoding " +
                                        std::to_string(enc));
      }

      // Scatter the SoA chunk back into the row-major field.
      for (std::size_t y = y0; y < y1; ++y) {
        std::memcpy(dst + y * nx + x0, staging.data() + (y - y0) * w,
                    w * sizeof(double));
      }
    }
  }
}

void FieldCodec::decode_into(std::span<const std::uint8_t> blob,
                             util::Field2D& out) {
  if (!is_container(blob)) {
    if (is_lorenzo(blob)) {
      decode_lorenzo(blob, out);
      return;
    }
    // Legacy plain serialization; decode in place when dimensions match.
    GREENVIS_REQUIRE_MSG(blob.size() >= 16, "codec: truncated legacy field");
    const std::size_t nx = get_u64(blob.data());
    const std::size_t ny = get_u64(blob.data() + 8);
    if (out.nx() == nx && out.ny() == ny) {
      GREENVIS_REQUIRE(blob.size() == util::raw_field_bytes(16, {nx, ny}));
      std::memcpy(out.values().data(), blob.data() + 16,
                  nx * ny * sizeof(double));
    } else {
      out = util::Field2D::deserialize(blob);
    }
    return;
  }
  const ContainerInfo info = parse_header(blob);
  check_chunk_table(blob, info);
  if (out.nx() != info.nx || out.ny() != info.ny) {
    out = util::Field2D(info.nx, info.ny);
  }
  decode_chunks(blob, info, out.values().data());
}

util::Field2D FieldCodec::decode2d(std::span<const std::uint8_t> blob) {
  FieldCodec codec;
  util::Field2D out;
  codec.decode_into(blob, out);
  return out;
}

}  // namespace greenvis::codec
