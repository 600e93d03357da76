// The visualization pipeline stage: field -> pseudocolor + contour image.
//
// Both the in-situ and the post-processing pipelines run exactly this code
// on each visualized timestep, so the paper's invariant — identical science
// output from both pipelines, different cost — holds by construction and is
// asserted in the integration tests via image digests.
#pragma once

#include "src/machine/activity.hpp"
#include "src/util/field.hpp"
#include "src/util/thread_pool.hpp"
#include "src/vis/contour.hpp"
#include "src/vis/image.hpp"
#include "src/vis/rasterizer.hpp"

namespace greenvis::vis {

/// Built-in colormap selection — steerable per viewer in the serving layer.
/// kCoolWarm is the historical hardcoded default, so existing digests are
/// unchanged unless a palette is explicitly chosen.
enum class Palette { kCoolWarm, kHot, kGrayscale };

[[nodiscard]] const char* palette_name(Palette palette);
/// Build the selected built-in ColorMap.
[[nodiscard]] ColorMap make_palette(Palette palette);

struct VisConfig {
  /// Host render resolution.
  std::size_t width{512};
  std::size_t height{512};
  std::size_t contour_levels{5};
  /// Fixed transfer-function range; when lo >= hi the field min/max is used
  /// per frame (auto-scaling).
  double range_lo{0.0};
  double range_hi{0.0};
  Rgb contour_color{Rgb{20, 20, 20}};
  Palette palette{Palette::kCoolWarm};

  /// -- modeled testbed cost (see DESIGN.md calibration) --
  /// The testbed renders 2048^2 with 4x supersampling at ~56 flops/sample;
  /// expressed per host-resolution pixel: (2048/512)^2 * 4 * 56 = 3600.
  /// Calibrated so the vis stage holds Fig. 4's 10% share of case study 1.
  double modeled_flops_per_pixel{3600.0};
  /// The vis stage keeps all cores lightly busy (renderer + compositor).
  std::size_t modeled_active_cores{16};
  double modeled_core_utilization{0.35};
  /// DRAM traffic per rendered frame (framebuffer + field streaming),
  /// relative to the framebuffer size.
  double modeled_dram_amplification{6.0};
};

class VisPipeline {
 public:
  VisPipeline(const VisConfig& config, util::ThreadPool* pool)
      : config_(config),
        pool_(pool),
        cmap_(make_palette(config.palette)),
        levels_(config.contour_levels),
        column_taps_(config.width) {}

  /// Render one frame: pseudocolor + contour overlay.
  [[nodiscard]] Image render(const util::Field2D& field) const;

  /// Hot-loop variant: renders into `image`, reusing its pixel storage and
  /// the pipeline's contour buffers — zero heap allocations at steady state
  /// (identical pixels to render()).
  void render_into(const util::Field2D& field, Image& image) const;

  /// Machine-visible work of one render.
  [[nodiscard]] machine::ActivityRecord render_activity() const;

  [[nodiscard]] const VisConfig& config() const { return config_; }

 private:
  VisConfig config_;
  util::ThreadPool* pool_;
  ColorMap cmap_;  // built once; per-frame construction would allocate
  /// Per-frame temporaries, rewritten every frame and reused across frames.
  /// Mutable: scratch reuse is not observable state.
  mutable std::vector<double> levels_;
  mutable std::vector<Segment> segments_;
  /// The raster's column table, rewritten every frame; sized once here so
  /// frames never allocate it.
  mutable std::vector<ColumnTap> column_taps_;
};

}  // namespace greenvis::vis
