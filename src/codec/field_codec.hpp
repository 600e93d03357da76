// Chunked field codec for snapshot I/O — the paper's Sec. VI direction of
// *software-directed data reorganization*: shrink the bytes written and
// re-read between the simulate and visualize phases and the post-processing
// pipeline's time/energy gap closes with them (the Fig. 10 savings are
// driven almost entirely by I/O time). Follows the in-situ float-compression
// line of work (ISABELA-style quantized residuals, Gorilla/SZ-style delta
// coding) cited in PAPERS.md.
//
// Format: a 2-D field is split into fixed-edge chunks; each chunk is
// gathered into a contiguous SoA staging buffer and encoded independently by
// the cheapest admissible encoder:
//
//   * raw           — the 8-byte IEEE-754 values verbatim (bit-exact,
//                     NaN/Inf safe);
//   * delta+bitpack — values quantized to an absolute tolerance
//                     (|x - decode(encode(x))| <= tolerance), first quantum
//                     stored whole, successive deltas zigzag-mapped and
//                     packed at the chunk's max bit width;
//   * rle           — runs of bitwise-identical values (constant regions
//                     collapse to one run).
//
// The container header is self-describing (magic, rank, dims, chunk edge,
// tolerance), so readback auto-detects the encoding — including the legacy
// plain Field2D serialization, which has no magic. Kind::kRaw is an
// identity codec: it emits exactly the legacy bytes, keeping every existing
// figure byte-identical. Kind::kLorenzo is the predictive compressor of
// Wang, Yu & Ma [22]: one unchunked 2-D "GVZ1" stream of varint residuals
// against a Lorenzo prediction. Corrupt or truncated input fails loudly
// (ContractViolation), never with UB. See DESIGN.md §3b.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/util/field.hpp"

namespace greenvis::codec {

/// Container-level codec selection (the `--codec=` flag / Workload knob).
enum class Kind : std::uint8_t {
  kRaw = 0,    // identity: legacy plain serialization, byte-identical
  kDelta = 1,  // quantized delta+bitpack (lossy within `tolerance`)
  kRle = 2,    // run-length only (lossless; wins on constant regions)
  /// "GVZ1" stream, lossless when tolerance == 0. Neither a
  /// container kind nor a --codec value: the predictive transform's codec.
  kLorenzo = 3,
};

/// Per-chunk encoding chosen by the heuristic (stored in the chunk header).
enum class ChunkEncoding : std::uint8_t {
  kRaw = 0,
  kDeltaBitpack = 1,
  kRle = 2,
};

struct CodecConfig {
  Kind kind{Kind::kRaw};
  /// Quantization step for delta+bitpack (must be > 0 when kind == kDelta)
  /// and kLorenzo (>= 0; 0 = lossless); reconstruction error is
  /// <= tolerance/2.
  double tolerance{1e-3};
  /// Cells per chunk side (chunks are edge x edge; boundary chunks are
  /// partial).
  std::size_t chunk_edge{32};
};

/// Inverse of kind_name over "raw" | "delta" | "rle"; nullopt for any other
/// name.
[[nodiscard]] std::optional<Kind> parse_kind(const std::string& name);
[[nodiscard]] const char* kind_name(Kind kind);

struct EncodeStats {
  std::uint64_t raw_bytes{0};
  std::uint64_t encoded_bytes{0};
  std::uint64_t chunks_raw{0};
  std::uint64_t chunks_delta{0};
  std::uint64_t chunks_rle{0};

  /// Uncompressed payload bytes / encoded payload bytes.
  [[nodiscard]] double ratio() const {
    return encoded_bytes == 0
               ? 1.0
               : static_cast<double>(raw_bytes) /
                     static_cast<double>(encoded_bytes);
  }
};

/// Serial encoder/decoder instance. Holds reusable staging buffers, so
/// steady-state encode/decode performs zero heap allocations. One instance
/// per pipeline; calls on one instance must not race.
class FieldCodec {
 public:
  explicit FieldCodec(const CodecConfig& config = {});

  /// True when this codec changes bytes (kind != kRaw) and hence when the
  /// pipeline should charge modeled encode/decode compute.
  [[nodiscard]] bool active() const { return config_.kind != Kind::kRaw; }

  /// Encode into `out` (cleared first; capacity reused across calls).
  /// kind == kRaw emits exactly `field.serialize()`.
  void encode(const util::Field2D& field, std::vector<std::uint8_t>& out);
  [[nodiscard]] std::vector<std::uint8_t> encode(const util::Field2D& field);

  /// Decode, auto-detecting container, then Lorenzo stream, then legacy
  /// plain serialization. decode_into reuses `out`'s storage when the
  /// dimensions match.
  void decode_into(std::span<const std::uint8_t> blob, util::Field2D& out);
  [[nodiscard]] static util::Field2D decode2d(
      std::span<const std::uint8_t> blob);

  /// True when `blob` starts with the codec container magic.
  [[nodiscard]] static bool is_container(std::span<const std::uint8_t> blob);

  /// Stats of the most recent encode() on this instance.
  [[nodiscard]] const EncodeStats& last_stats() const { return stats_; }
  [[nodiscard]] const CodecConfig& config() const { return config_; }

 private:
  /// Parsed-and-validated container header (rank 2, nz 1).
  struct ContainerInfo {
    std::uint8_t version{0};
    Kind kind{Kind::kRaw};
    std::uint32_t chunk_edge{0};
    std::uint64_t nx{0};
    std::uint64_t ny{0};
    double tolerance{0.0};
  };
  [[nodiscard]] static ContainerInfo parse_header(
      std::span<const std::uint8_t> blob);

  struct ChunkResult {
    std::size_t bytes{0};  // header + payload actually written
    ChunkEncoding encoding{ChunkEncoding::kRaw};
  };

  void encode_lorenzo(const util::Field2D& field,
                      std::vector<std::uint8_t>& out);
  void decode_lorenzo(std::span<const std::uint8_t> blob, util::Field2D& out);
  void encode_values(const util::Field2D& field,
                     std::vector<std::uint8_t>& out);
  /// Encode one SoA-gathered chunk into `dst` (header + payload; `dst` must
  /// have room for kChunkHeader + count*8 bytes, the worst case). `q`/`zz`/
  /// `words` are caller-provided scratch (delta kind only).
  [[nodiscard]] ChunkResult encode_chunk(const double* values,
                                         std::size_t count,
                                         std::span<std::int64_t> q,
                                         std::span<std::uint64_t> zz,
                                         std::span<std::uint64_t> words,
                                         std::uint8_t* dst) const;
  void bump_chunk_stats(ChunkEncoding encoding);
  /// Walk the chunk headers of a container: each must fit with its payload
  /// in the blob, and the last must end at the blob's end. Run before the
  /// field is sized, so a forged header cannot make decode allocate what
  /// the blob does not hold.
  static void check_chunk_table(std::span<const std::uint8_t> blob,
                                const ContainerInfo& info);
  /// Decode every chunk of a container that passed check_chunk_table into
  /// `dst` (sized nx*ny, row-major).
  void decode_chunks(std::span<const std::uint8_t> blob,
                     const ContainerInfo& info, double* dst);

  CodecConfig config_;
  // Chunk scratch (chunk_buf_ also holds the bounded Lorenzo
  // reconstruction). Each buffer grows to its largest request and is then
  // reused, never shrunk.
  std::vector<double> chunk_buf_;
  std::vector<std::uint64_t> word_buf_;
  std::vector<std::uint64_t> zz_buf_;
  std::vector<std::int64_t> q_buf_;
  EncodeStats stats_;
};

}  // namespace greenvis::codec
