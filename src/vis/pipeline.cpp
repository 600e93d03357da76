#include "src/vis/pipeline.hpp"

#include "src/obs/tracer.hpp"

namespace greenvis::vis {

const char* palette_name(Palette palette) {
  switch (palette) {
    case Palette::kCoolWarm:
      return "coolwarm";
    case Palette::kHot:
      return "hot";
    case Palette::kGrayscale:
      return "gray";
  }
  return "coolwarm";
}

ColorMap make_palette(Palette palette) {
  switch (palette) {
    case Palette::kHot:
      return ColorMap::hot();
    case Palette::kGrayscale:
      return ColorMap::grayscale();
    case Palette::kCoolWarm:
      break;
  }
  return ColorMap::cool_warm();
}

Image VisPipeline::render(const util::Field2D& field) const {
  Image image;
  render_into(field, image);
  return image;
}

void VisPipeline::render_into(const util::Field2D& field, Image& image) const {
  static obs::Histogram& render_us = obs::Registry::global().histogram(
      "vis.render_us", obs::duration_us_bounds());
  obs::ScopedSpan span("vis.render", obs::kCatVis, &render_us);
  double lo = config_.range_lo;
  double hi = config_.range_hi;
  if (lo >= hi) {
    lo = field.min_value();
    hi = field.max_value();
  }
  {
    obs::ScopedSpan raster_span("vis.raster", obs::kCatVis);
    render_pseudocolor_into(field, cmap_, config_.width, config_.height, lo,
                            hi, pool_, image, column_taps_);
  }
  {
    obs::ScopedSpan contour_span("vis.contour", obs::kCatVis);
    iso_levels_into(field, levels_);
    for (double level : levels_) {
      marching_squares_into(field, level, segments_);
      draw_segments(image, segments_, field.nx(), field.ny(),
                    config_.contour_color);
    }
  }
  if (obs::enabled()) {
    static obs::Counter& frames = obs::Registry::global().counter("vis.frames");
    frames.add(1);
  }
}

machine::ActivityRecord VisPipeline::render_activity() const {
  machine::ActivityRecord a;
  const double pixels =
      static_cast<double>(config_.width) * static_cast<double>(config_.height);
  a.flops = pixels * config_.modeled_flops_per_pixel;
  a.dram_bytes = util::Bytes{static_cast<std::uint64_t>(
      pixels * 3.0 * config_.modeled_dram_amplification)};
  a.active_cores = config_.modeled_active_cores;
  a.core_utilization = config_.modeled_core_utilization;
  return a;
}

}  // namespace greenvis::vis
