// Viewer sessions for the live-frame serving layer.
//
// The paper treats in-situ visualization as write-only; ISAAC-style
// interactive in-situ turns it into a service: N concurrent clients
// subscribe to the frame stream, each with its own resolution, palette,
// iso-level count, and region of interest, and may steer those parameters
// between timesteps. This header defines the per-viewer state — view
// parameters, steering commands, join/leave schedules — and the canonical
// frame key that makes renders content-addressed: two viewers whose
// parameters hash alike at a timestep share one raster.
//
// Keys follow the campaign engine's hashing discipline: a versioned,
// fixed-field-order canonical text (doubles as IEEE-754 bit patterns, so
// the key survives locale/printf differences) folded through FNV-1a-64.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/field.hpp"
#include "src/vis/pipeline.hpp"

namespace greenvis::serve {

/// Everything that affects a viewer's rendered pixels. The region of
/// interest is the 2-D realization of a camera: fractional pan/zoom over
/// the field, [x0, x1) x [y0, y1) with the full field as default.
struct ViewParams {
  std::size_t width{256};
  std::size_t height{256};
  std::size_t iso_levels{5};
  vis::Palette palette{vis::Palette::kCoolWarm};
  double roi_x0{0.0};
  double roi_y0{0.0};
  double roi_x1{1.0};
  double roi_y1{1.0};

  friend bool operator==(const ViewParams&, const ViewParams&) = default;
};

/// Canonical fixed-order text of the view parameters (no timestep/field
/// component) — the equality class of "same view".
[[nodiscard]] std::string canonical_view_text(const ViewParams& params);

/// Content address of one frame: FNV-1a-64 over
/// "greenvis.serve.frame.v1|step=..|field=<digest hex>|<view text>".
/// Identical key <=> identical pixels, because the render is a pure
/// function of (field, view parameters).
[[nodiscard]] std::uint64_t frame_key(int step, std::uint64_t field_digest,
                                      const ViewParams& params);

/// Digest of the raw field values (bit patterns) — the key's field
/// component, so a cache entry can never outlive the data it rendered.
[[nodiscard]] std::uint64_t field_digest(const util::Field2D& field);

/// The steerable knobs. Commands are applied deterministically between
/// timesteps: all commands with cmd.step == s run, in list order, before
/// frame s renders — virtual-time order, never host arrival order.
enum class SteerKind { kIsoLevels, kPalette, kRegion, kResolution };

struct SteerCommand {
  int step{0};
  int viewer{0};
  SteerKind kind{SteerKind::kIsoLevels};
  /// Payload (only the fields for `kind` are read).
  std::size_t iso_levels{5};
  vis::Palette palette{vis::Palette::kCoolWarm};
  double x0{0.0}, y0{0.0}, x1{1.0}, y1{1.0};
  std::size_t width{256}, height{256};
};

/// One subscriber: active on frame steps s with join_step <= s and
/// (leave_step < 0 or s < leave_step).
struct ViewerSchedule {
  int viewer{0};
  int join_step{0};
  /// First step the viewer no longer receives frames; -1 = until the end.
  int leave_step{-1};
  ViewParams params{};

  [[nodiscard]] bool active_at(int step) const {
    return step >= join_step && (leave_step < 0 || step < leave_step);
  }
};

/// Apply one command to `params` (clamping the region to a non-empty,
/// in-range rectangle). Pure.
[[nodiscard]] ViewParams apply_steer(const ViewParams& params,
                                     const SteerCommand& cmd);

/// Map view parameters onto the shared renderer's config: resolution,
/// contour/iso count, palette (the region of interest is applied by
/// cropping the field before the render).
[[nodiscard]] vis::VisConfig vis_config_for(const ViewParams& params,
                                            const vis::VisConfig& base);

/// Integer crop rectangle of `params`' region on an nx-by-ny field —
/// clamped so at least a 2x2 cell window survives any steering input.
struct CropRect {
  std::size_t i0{0}, j0{0}, nx{0}, ny{0};
  [[nodiscard]] bool full(std::size_t field_nx, std::size_t field_ny) const {
    return i0 == 0 && j0 == 0 && nx == field_nx && ny == field_ny;
  }
};
[[nodiscard]] CropRect crop_rect(const ViewParams& params, std::size_t nx,
                                 std::size_t ny);

/// Render `params`' view of `field` with `pipe` (built by vis_config_for)
/// into `out`. A region of interest is cropped into `roi` first; `roi` is
/// per-view scratch kept across frames, so a view's steady-state renders
/// allocate nothing.
void render_view(const ViewParams& params, const util::Field2D& field,
                 const vis::VisPipeline& pipe, util::Field2D& roi,
                 vis::Image& out);

/// The acceptance scenario's fleet: `count` viewers in `groups` distinct
/// view-parameter groups (viewer i belongs to group i % groups), each group
/// with its own iso count/palette/region so the groups' frame keys are
/// provably distinct. Deterministic.
[[nodiscard]] std::vector<ViewerSchedule> default_fleet(
    int count, int groups, const ViewParams& base = {});

}  // namespace greenvis::serve
