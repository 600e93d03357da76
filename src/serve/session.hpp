// The viewer-serving session: one simulation, N subscribed clients.
//
// The paper's pipelines end at an image on disk; interactive in-situ ends at
// N screens. This module runs the proxy simulation and, on every I/O step,
// serves a frame to every active viewer:
//
//   * Dedup: active viewers are grouped by canonical frame key (viewer.hpp),
//     so k viewers sharing a view cost ONE raster plus k encode-only
//     fan-outs, on the host and in the model alike. A viewer that shares
//     its view gets the same pixels it would get alone (the
//     serve.shared_vs_solo oracle runs each viewer solo to check).
//   * Batched multi-view rendering: the step's unique views are rendered as
//     one work-stealing ThreadPool batch (util::run_sharded), each view into
//     its own reused image buffer with reused contour scratch.
//   * Steering: commands apply deterministically between timesteps, in list
//     order, at the start of their frame step — virtual-time order, never
//     host arrival order.
//   * Delivery: encoded frames ride a bounded AsyncStager ring whose writer
//     thread models the egress link, using the same two-track virtual-time
//     scheme as the async staging pipeline (producer compute cursor, writer
//     owns the shared clock, merge at the drain barrier).
//   * Energy-per-viewer: the session's EnergyReport is split across viewers
//     — render joules by shared-render time (1/k of the group's render per
//     sharing viewer), encode joules by encode time, delivery joules by
//     bytes — with the remainder (simulation, idle floor) reported as the
//     shared bill. A single-viewer baseline run yields the marginal joules
//     per added viewer.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/core/testbed.hpp"
#include "src/core/workload.hpp"
#include "src/obs/energy.hpp"
#include "src/serve/viewer.hpp"
#include "src/util/units.hpp"

namespace greenvis::serve {

namespace stage {
/// Serving-layer phase names (join the core stage names in timelines and
/// the energy attribution).
inline constexpr const char* kEncode = "Encode";
inline constexpr const char* kDeliver = "Deliver";
}  // namespace stage

struct ServeConfig {
  /// Simulation + base render configuration (the dataset/IO knobs are
  /// unused: serving is in-situ style, no snapshots touch the disk).
  core::CaseStudyConfig base{core::case_study(1)};
  std::vector<ViewerSchedule> viewers;
  std::vector<SteerCommand> commands;
  /// Delivery ring slots (producer stalls when all are in flight).
  std::size_t delivery_buffers{4};
  /// Modeled egress link, megabytes per second.
  double delivery_mb_per_s{200.0};
  std::size_t host_threads{0};
};

/// One frame handed to one viewer.
struct Delivery {
  int step{0};
  int viewer{0};
  std::uint64_t key{0};
  std::uint64_t digest{0};
  std::uint64_t bytes{0};
};

/// One viewer's share of the session bill.
struct ViewerEnergy {
  int viewer{0};
  std::uint64_t frames{0};
  std::uint64_t bytes{0};
  /// Shared-render seconds: each frame contributes its group's render
  /// duration divided by the number of viewers sharing the raster.
  double render_share_s{0.0};
  double encode_s{0.0};
  double deliver_s{0.0};
  double render_j{0.0};
  double encode_j{0.0};
  double deliver_j{0.0};

  [[nodiscard]] double total_j() const {
    return render_j + encode_j + deliver_j;
  }
};

struct ServeReport {
  std::string name;
  util::Seconds duration{0.0};
  util::Joules energy{0.0};
  util::Watts average_power{0.0};
  util::Watts peak_power{0.0};
  obs::EnergyReport attribution;
  /// Sorted by viewer id.
  std::vector<ViewerEnergy> viewers;
  /// Sorted by (step, viewer).
  std::vector<Delivery> deliveries;
  /// Rasters executed: one per unique view per frame step.
  std::uint64_t host_renders{0};
  std::uint64_t frames_delivered{0};
  /// Frame sharing under its historical cache names: `misses` counts the
  /// renders and `hits` the deliveries that reused another viewer's render.
  struct {
    std::uint64_t hits{0};
    std::uint64_t misses{0};
  } cache;
  int frame_steps{0};
  /// Digest of the simulation's final field (viewer-independent science
  /// output — the campaign engine journals it like a pipeline run's).
  std::uint64_t final_field_digest{0};
  /// Session energy not attributable to any single viewer (simulation,
  /// static/idle floor).
  double shared_j{0.0};
  /// Filled by run_serve_with_baseline.
  double single_viewer_j{0.0};
  double marginal_j_per_viewer{0.0};
};

/// Run one serving session on a fresh Testbed. Deterministic: every field
/// of the report is a pure function of (config, bed_config).
[[nodiscard]] ServeReport run_serve_session(
    const ServeConfig& config, const core::TestbedConfig& bed_config = {});

/// `config` with `viewer` as its only subscriber, keeping only that
/// viewer's steer commands: the session the viewer would see alone.
[[nodiscard]] ServeConfig solo_config(const ServeConfig& config,
                                      const ViewerSchedule& viewer);

/// run_serve_session plus a single-viewer baseline (the first schedule
/// alone, same steering), filling single_viewer_j and
/// marginal_j_per_viewer = (E_N - E_1) / (N - 1).
[[nodiscard]] ServeReport run_serve_with_baseline(
    const ServeConfig& config, const core::TestbedConfig& bed_config = {});

/// Deterministic JSON profile (schema greenvis.serve_profile.v1): totals,
/// sharing counters, per-viewer energy columns, marginal joules. Byte-
/// identical across reruns of the same config.
void write_serve_profile_json(std::ostream& os, const ServeConfig& config,
                              const ServeReport& report);

}  // namespace greenvis::serve
