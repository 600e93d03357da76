// One pipeline driver = data path x snapshot transform.
//
// The data path (PipelineKind) decides where a visualized step travels:
//
//   In-situ:          [simulation -> visualization]*     (no disk at all)
//   Post-processing:  [simulation -> transform -> disk write]*
//                     sync/drop_caches
//                     [disk read -> inverse transform -> visualization]*
//   Post-proc async:  the same, but writes drain through a bounded
//                     sched::AsyncStager ring while the solver advances
//                     (simulate || write), then the same read phase
//
// The snapshot transform (SnapshotTransform) decides what a post-processing
// snapshot looks like on disk: the case study's field codec, spatial
// sampling, or the predictive compressor. Every combination runs the same
// solver and the same renderer, so for a given case study and transform the
// images are identical whatever the data path (asserted via digests); only
// where the data travels — and what overlaps with what — differs, which is
// precisely the trade the paper prices. In-transit staging on a separate
// node and a burst-buffer tier are future PipelineKind values: new data
// paths through this one driver, not new loops.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/core/testbed.hpp"
#include "src/core/workload.hpp"
#include "src/util/thread_pool.hpp"
#include "src/vis/image.hpp"

namespace greenvis::core {

/// Canonical phase names used in timelines and Fig. 4.
namespace stage {
inline constexpr const char* kSimulation = "Simulation";
inline constexpr const char* kWrite = "Write";
inline constexpr const char* kRead = "Read";
inline constexpr const char* kVisualization = "Visualization";
}  // namespace stage

/// The data path a visualized step takes.
enum class PipelineKind { kPostProcessing, kPostProcessingAsync, kInSitu };

[[nodiscard]] const char* pipeline_kind_name(PipelineKind kind);

/// Snapshot transform: encode with the case study's `snapshot_codec` (raw by
/// default — byte-identical to the legacy serialization, and no modeled
/// codec compute is charged).
struct ConfigCodec {};

/// In-situ data sampling (Woodring et al. [21]): write only every
/// `stride`-th sample in each dimension and reconstruct by bilinear
/// resampling before rendering. Cuts I/O volume by ~stride^2 at a
/// quantifiable quality cost.
struct Sampling {
  std::size_t stride{1};
};

/// Application-driven compression (Wang et al. [22]): the field codec's
/// Lorenzo-predictive kind, lossless when `error_bound` is 0, else every
/// value within `error_bound`.
struct Predictive {
  double error_bound{0.0};
};

using SnapshotTransform = std::variant<ConfigCodec, Sampling, Predictive>;

struct PipelineOutput {
  std::string pipeline_name;
  /// One digest per visualized step, in step order, when
  /// PipelineOptions::frame_digests was set; empty otherwise.
  std::vector<std::uint64_t> image_digests;
  /// Final temperature field (for cross-pipeline equality checks).
  util::Field2D final_field;
  int steps{0};
  int visualized_steps{0};
  /// Snapshot payload accounting (post-processing only; zero for in-situ).
  /// `raw` is the untransformed serialization: with the raw codec
  /// written == raw; with any other transform written < raw and the storage
  /// counters shrink proportionally.
  util::Bytes snapshot_bytes_written{0};
  util::Bytes snapshot_bytes_read{0};
  util::Bytes snapshot_bytes_raw{0};
  /// Transform quality, zero when unused: the mean RMS reconstruction error
  /// across visualized steps (Sampling), and the largest per-value error
  /// and mean compression ratio (predictive compression).
  double mean_rms_error{0.0};
  double max_abs_error{0.0};
  double mean_compression_ratio{0.0};
  /// Kept only when `keep_images` was requested.
  std::vector<vis::Image> images;
};

struct PipelineOptions {
  bool keep_images{false};
  /// Digest every rendered frame into PipelineOutput::image_digests. Not a
  /// tuning knob: set it when the caller reads the digests. Hashing a
  /// frame is host work only, so no virtual second, joule or byte moves.
  bool frame_digests{false};
  /// Host threads for solver/renderer (0 = hardware concurrency).
  std::size_t host_threads{0};
  /// Staging ring slots for kPostProcessingAsync (>= 1).
  std::size_t stage_buffers{2};
};

/// True when both outputs hold one digest per visualized step (both runs
/// set PipelineOptions::frame_digests) and the digests are equal, so two
/// runs that skipped the digests never pass as equal.
[[nodiscard]] bool same_frames(const PipelineOutput& a,
                               const PipelineOutput& b);

/// Run one pipeline on `bed`. The testbed's clock/timelines advance; call
/// bed.profile() afterwards for the power trace. kInSitu never touches the
/// filesystem and accepts only the default transform. kPostProcessingAsync
/// leaves the same on-disk bytes, images, and snapshot accounting as
/// kPostProcessing for every transform; only where the time goes differs.
[[nodiscard]] PipelineOutput run_pipeline(
    Testbed& bed, PipelineKind kind, const CaseStudyConfig& config,
    const PipelineOptions& options = {},
    const SnapshotTransform& transform = {});

}  // namespace greenvis::core
