#include "src/serve/viewer.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <span>

#include "src/util/checksum.hpp"
#include "src/util/error.hpp"
#include "src/vis/filters.hpp"

namespace greenvis::serve {
namespace {

// Doubles enter the canonical text as IEEE-754 bit patterns (16 hex
// digits), mirroring the campaign hasher: printf rounding or locale can
// never split an equality class.
void append_double_bits(std::string& out, double v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[21];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_hex64(std::string& out, std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  out += buf;
}

ViewParams clamp_region(ViewParams p) {
  p.roi_x0 = std::clamp(p.roi_x0, 0.0, 1.0);
  p.roi_y0 = std::clamp(p.roi_y0, 0.0, 1.0);
  p.roi_x1 = std::clamp(p.roi_x1, 0.0, 1.0);
  p.roi_y1 = std::clamp(p.roi_y1, 0.0, 1.0);
  if (p.roi_x1 < p.roi_x0) std::swap(p.roi_x0, p.roi_x1);
  if (p.roi_y1 < p.roi_y0) std::swap(p.roi_y0, p.roi_y1);
  return p;
}

}  // namespace

std::string canonical_view_text(const ViewParams& params) {
  std::string text = "w=";
  append_u64(text, params.width);
  text += "|h=";
  append_u64(text, params.height);
  text += "|iso=";
  append_u64(text, params.iso_levels);
  text += "|pal=";
  text += vis::palette_name(params.palette);
  text += "|roi=";
  append_double_bits(text, params.roi_x0);
  text += ",";
  append_double_bits(text, params.roi_y0);
  text += ",";
  append_double_bits(text, params.roi_x1);
  text += ",";
  append_double_bits(text, params.roi_y1);
  return text;
}

std::uint64_t frame_key(int step, std::uint64_t digest,
                        const ViewParams& params) {
  std::string text = "greenvis.serve.frame.v1|step=";
  append_u64(text, static_cast<std::uint64_t>(step));
  text += "|field=";
  append_hex64(text, digest);
  text += "|";
  text += canonical_view_text(params);
  return util::fnv1a64(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

std::uint64_t field_digest(const util::Field2D& field) {
  const std::span<const double> values = field.values();
  return util::fnv1a64(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(values.data()),
      values.size() * sizeof(double)));
}

ViewParams apply_steer(const ViewParams& params, const SteerCommand& cmd) {
  ViewParams next = params;
  switch (cmd.kind) {
    case SteerKind::kIsoLevels:
      next.iso_levels = std::max<std::size_t>(1, cmd.iso_levels);
      break;
    case SteerKind::kPalette:
      next.palette = cmd.palette;
      break;
    case SteerKind::kRegion:
      next.roi_x0 = cmd.x0;
      next.roi_y0 = cmd.y0;
      next.roi_x1 = cmd.x1;
      next.roi_y1 = cmd.y1;
      next = clamp_region(next);
      break;
    case SteerKind::kResolution:
      next.width = std::max<std::size_t>(16, cmd.width);
      next.height = std::max<std::size_t>(16, cmd.height);
      break;
  }
  return next;
}

vis::VisConfig vis_config_for(const ViewParams& params,
                              const vis::VisConfig& base) {
  vis::VisConfig cfg = base;
  cfg.width = params.width;
  cfg.height = params.height;
  cfg.contour_levels = params.iso_levels;
  cfg.palette = params.palette;
  return cfg;
}

CropRect crop_rect(const ViewParams& raw, std::size_t nx, std::size_t ny) {
  GREENVIS_REQUIRE(nx >= 2 && ny >= 2);
  const ViewParams params = clamp_region(raw);
  CropRect r;
  r.i0 = std::min(static_cast<std::size_t>(params.roi_x0 *
                                           static_cast<double>(nx)),
                  nx - 2);
  r.j0 = std::min(static_cast<std::size_t>(params.roi_y0 *
                                           static_cast<double>(ny)),
                  ny - 2);
  std::size_t i1 = std::min(
      static_cast<std::size_t>(params.roi_x1 * static_cast<double>(nx)), nx);
  std::size_t j1 = std::min(
      static_cast<std::size_t>(params.roi_y1 * static_cast<double>(ny)), ny);
  i1 = std::max(i1, r.i0 + 2);
  j1 = std::max(j1, r.j0 + 2);
  r.nx = i1 - r.i0;
  r.ny = j1 - r.j0;
  return r;
}

void render_view(const ViewParams& params, const util::Field2D& field,
                 const vis::VisPipeline& pipe, util::Field2D& roi,
                 vis::Image& out) {
  const CropRect r = crop_rect(params, field.nx(), field.ny());
  if (r.full(field.nx(), field.ny())) {
    pipe.render_into(field, out);
  } else {
    vis::crop_into(field, r.i0, r.j0, r.nx, r.ny, roi);
    pipe.render_into(roi, out);
  }
}

std::vector<ViewerSchedule> default_fleet(int count, int groups,
                                          const ViewParams& base) {
  GREENVIS_REQUIRE(count >= 1 && groups >= 1);
  std::vector<ViewerSchedule> fleet;
  fleet.reserve(static_cast<std::size_t>(count));
  constexpr vis::Palette kPalettes[] = {vis::Palette::kCoolWarm,
                                        vis::Palette::kHot,
                                        vis::Palette::kGrayscale};
  for (int i = 0; i < count; ++i) {
    const int g = i % groups;
    ViewerSchedule sched;
    sched.viewer = i;
    sched.params = base;
    // Each group gets a distinct (iso count, palette, region) triple so the
    // groups' canonical view texts — and hence frame keys — never collide.
    sched.params.iso_levels = 3 + static_cast<std::size_t>(g);
    sched.params.palette = kPalettes[g % 3];
    sched.params.roi_x0 = 0.05 * static_cast<double>(g % 4);
    sched.params.roi_y0 = 0.05 * static_cast<double>(g % 4);
    fleet.push_back(sched);
  }
  return fleet;
}

}  // namespace greenvis::serve
