// Campaign configurations: the flattened knob tuple a sweep varies.
//
// A CampaignConfig is one point in the cross product the campaign engine
// explores — pipeline kind x workload shape x codec x storage device x DVFS
// x power cap. It is deliberately a plain value type (no nested machine
// spec, no calibration tables): every knob either changes the simulated
// results or is canonicalized away (hash.hpp), and materialize() expands it
// into the full CaseStudyConfig/TestbedConfig/PipelineOptions triple the
// experiment runner consumes. See DESIGN.md §3e.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/codec/field_codec.hpp"
#include "src/core/batch_runner.hpp"
#include "src/core/experiment.hpp"

namespace greenvis::campaign {

/// One campaign point. Field defaults reproduce the paper's testbed (case
/// study 1 shape, HDD, nominal clock, raw snapshots); `0` means "module
/// default" where noted so that default-vs-explicit configs hash equal.
struct CampaignConfig {
  core::PipelineKind kind{core::PipelineKind::kPostProcessing};
  int iterations{50};
  int io_period{1};
  /// Square grid edge (problem.nx == problem.ny).
  std::size_t grid{128};
  /// Host Jacobi sweeps per step; 0 = the solver default (40).
  std::size_t sweeps{0};
  /// Render frame edge (vis.width == vis.height); 0 = the vis default (512).
  std::size_t frame{0};
  codec::Kind codec_kind{codec::Kind::kRaw};
  double codec_tolerance{1e-3};
  std::size_t chunk_edge{32};
  core::StorageDeviceKind device{core::StorageDeviceKind::kHdd};
  double frequency_ghz{2.4};
  /// I/O-phase clock; 0 = same as frequency_ghz.
  double io_frequency_ghz{0.0};
  /// RAPL package cap in watts; 0 = uncapped.
  double package_cap_w{0.0};
  /// Staging ring slots (async pipeline only).
  std::size_t stage_buffers{2};
  /// Viewer-serving axis: 0 = classic pipeline experiment; N > 0 runs a
  /// serve session with N subscribers in min(4, N) distinct view groups.
  int viewers{0};
};

/// Normalize semantically-equivalent configs to one representative: fill
/// module defaults (sweeps, frame), zero knobs the selected pipeline/codec
/// never reads (tolerance under raw/rle, chunking under raw, any codec and
/// the I/O clock under in-situ, stage buffers outside async). Two configs
/// that produce byte-identical results for a reason expressible at the knob
/// level canonicalize — and therefore hash (hash.hpp) — identically.
[[nodiscard]] CampaignConfig canonicalize(const CampaignConfig& config);

/// The full experiment inputs a config denotes.
struct MaterializedConfig {
  core::PipelineKind kind{core::PipelineKind::kPostProcessing};
  core::CaseStudyConfig workload;
  core::TestbedConfig testbed;
  core::PipelineOptions options;
  /// > 0: run a serve session with this many subscribers instead of a
  /// pipeline experiment.
  int viewers{0};
};

/// Expand a (canonical or not) config into runnable experiment inputs.
/// `host_threads` is a host-side execution knob (never part of the hash:
/// pipeline results are byte-identical for any thread count).
[[nodiscard]] MaterializedConfig materialize(const CampaignConfig& config,
                                             std::size_t host_threads = 0);

/// Axes of a sweep: the cross product of every non-empty vector (an empty
/// axis means "the CampaignConfig default"). expand() orders the product
/// deterministically with the pipeline axis innermost, so a post-processing
/// config and its in-situ twin sit adjacent in the job list.
struct CampaignSpec {
  std::vector<core::PipelineKind> pipelines;
  std::vector<int> iterations;
  std::vector<int> io_periods;
  std::vector<std::size_t> grids;
  std::vector<codec::Kind> codecs;
  std::vector<double> tolerances;
  std::vector<core::StorageDeviceKind> devices;
  std::vector<double> frequencies;
  std::vector<double> io_frequencies;
  std::vector<double> package_caps;
  std::vector<int> viewer_counts;

  [[nodiscard]] std::vector<CampaignConfig> expand() const;
};

/// Human-readable one-line description ("insitu grid=128 period=2 ...").
[[nodiscard]] std::string describe(const CampaignConfig& config);

}  // namespace greenvis::campaign
