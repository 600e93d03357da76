#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/core/testbed.hpp"
#include "src/core/workload.hpp"
#include "src/heat/solver.hpp"
#include "src/serve/viewer.hpp"
#include "src/util/checksum.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"
#include "src/vis/color.hpp"
#include "src/vis/contour.hpp"
#include "src/vis/filters.hpp"
#include "src/vis/annotate.hpp"
#include "src/vis/flow.hpp"
#include "src/vis/image.hpp"
#include "src/vis/pipeline.hpp"
#include "src/vis/rasterizer.hpp"

namespace greenvis::vis {
namespace {

util::Field2D ramp_field(std::size_t n) {
  util::Field2D f(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      f.at(i, j) = static_cast<double>(i);
    }
  }
  return f;
}

util::Field2D radial_field(std::size_t n) {
  util::Field2D f(n, n);
  const double c = static_cast<double>(n - 1) / 2.0;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const double dx = static_cast<double>(i) - c;
      const double dy = static_cast<double>(j) - c;
      f.at(i, j) = std::sqrt(dx * dx + dy * dy);
    }
  }
  return f;
}

// ---------- colormap ----------

TEST(ColorMap, EndpointsAndMidpoints) {
  const ColorMap gray = ColorMap::grayscale();
  EXPECT_EQ(gray.map(0.0), (Rgb{0, 0, 0}));
  EXPECT_EQ(gray.map(1.0), (Rgb{255, 255, 255}));
  const Rgb mid = gray.map(0.5);
  EXPECT_NEAR(mid.r, 128, 1);
  EXPECT_EQ(mid.r, mid.g);
  EXPECT_EQ(mid.g, mid.b);
}

TEST(ColorMap, ClampsOutOfRange) {
  const ColorMap gray = ColorMap::grayscale();
  EXPECT_EQ(gray.map(-3.0), gray.map(0.0));
  EXPECT_EQ(gray.map(7.0), gray.map(1.0));
}

TEST(ColorMap, MapRangeNormalizes) {
  const ColorMap gray = ColorMap::grayscale();
  EXPECT_EQ(gray.map_range(50.0, 0.0, 100.0), gray.map(0.5));
  // Degenerate range maps to the low end.
  EXPECT_EQ(gray.map_range(5.0, 3.0, 3.0), gray.map(0.0));
}

TEST(ColorMap, CoolWarmIsDiverging) {
  const ColorMap cw = ColorMap::cool_warm();
  EXPECT_GT(cw.map(0.0).b, cw.map(0.0).r);  // cold end is blue
  EXPECT_GT(cw.map(1.0).r, cw.map(1.0).b);  // hot end is red
}

TEST(ColorMap, NaNMapsToChannelZero) {
  // Channel 0 is what the lround-based quantizer produced on x86-64/glibc
  // (a NaN's unspecified lround, cast to uint8); it is now explicit.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const ColorMap& cmap :
       {ColorMap::cool_warm(), ColorMap::hot(), ColorMap::grayscale()}) {
    EXPECT_EQ(cmap.map(nan), (Rgb{0, 0, 0}));
    EXPECT_EQ(cmap.map_range(nan, 0.0, 1.0), (Rgb{0, 0, 0}));
  }
}

TEST(ColorMap, RoundChannelMatchesLround) {
  // Every integer and half-integer of [0, 255] and their neighbours one ulp
  // away: the ties and the values either side of them.
  for (int k = 0; k <= 510; ++k) {
    const double c = 0.5 * k;
    for (const double v :
         {std::nextafter(c, -1.0), c, std::nextafter(c, 256.0)}) {
      if (v < 0.0 || v > 255.0) {
        continue;
      }
      EXPECT_EQ(round_channel(v), static_cast<std::uint8_t>(std::lround(v)))
          << v;
    }
  }
}

// ---------- colormap lookup table ----------

/// Every exact entry of the table equals Flat::map at its bin's first and
/// last doubles and at 64 random doubles inside (half drawn by value, half
/// by bit pattern, which reaches the subnormals of bin 0); every bin holding
/// an interior stop is inexact; the ends, -0.0 and NaN map as Flat::map.
void expect_table_exact(const ColorMap& cmap) {
  const ColorMap::Flat flat = cmap.flat();
  const ColorMap::Lookup lut = cmap.lookup();
  const double n = static_cast<double>(ColorMap::kBins);
  util::Xoshiro256 rng{29};
  std::size_t exact = 0;
  for (std::size_t k = 0; k <= ColorMap::kBins; ++k) {
    const ColorMap::Bin bin = lut.bins[k];
    if (!bin.exact) {
      continue;
    }
    ++exact;
    const double first = static_cast<double>(k) / n;
    const double last =
        k == ColorMap::kBins
            ? 1.0
            : std::nextafter(static_cast<double>(k + 1) / n, 0.0);
    ASSERT_EQ(bin.rgb, flat.map(first)) << "bin " << k;
    ASSERT_EQ(bin.rgb, flat.map(last)) << "bin " << k;
    const auto lo_bits = std::bit_cast<std::uint64_t>(first);
    const auto hi_bits = std::bit_cast<std::uint64_t>(last);
    for (int i = 0; i < 64; ++i) {
      const double t =
          i % 2 == 0
              ? std::clamp(rng.uniform(first, last), first, last)
              : std::bit_cast<double>(
                    lo_bits + rng.next() % (hi_bits - lo_bits + 1));
      ASSERT_EQ(bin.rgb, flat.map(t)) << "bin " << k << " t " << t;
      ASSERT_EQ(lut.map(t), flat.map(t)) << "bin " << k << " t " << t;
    }
  }
  EXPECT_GT(exact, ColorMap::kBins / 2);
  for (std::size_t s = 1; s + 1 < flat.count; ++s) {
    EXPECT_FALSE(lut.bins[static_cast<std::size_t>(flat.pos[s] * n)].exact)
        << "stop " << s;
  }
  const double inf = std::numeric_limits<double>::infinity();
  for (const double t : {1.0, 0.0, -0.0, -1.0, 2.0, inf, -inf,
                         std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(lut.map(t), flat.map(t)) << t;
  }
}

TEST(ColorMapLookup, BuiltInTablesAreExact) {
  expect_table_exact(ColorMap::cool_warm());
  expect_table_exact(ColorMap::hot());
  expect_table_exact(ColorMap::grayscale());
}

TEST(ColorMapLookup, OffGridStopsAreExact) {
  // Five stops off the bin grid, with falling and flat channels.
  const ColorMap cmap({{0.0, 0.9, 0.1, 0.5},
                       {0.1, 0.2, 0.8, 0.5},
                       {1.0 / 3.0, 0.7, 0.3, 0.5},
                       {0.6180339887498949, 0.0, 1.0, 0.25},
                       {1.0, 1.0, 0.0, 0.75}});
  expect_table_exact(cmap);
}

TEST(ColorMapLookup, CopiesShareTheTable) {
  EXPECT_EQ(ColorMap::cool_warm().lookup().bins,
            ColorMap::cool_warm().lookup().bins);
  const ColorMap hot = ColorMap::hot();
  const ColorMap copy = hot;
  EXPECT_EQ(copy.lookup().bins, hot.lookup().bins);
}

TEST(ColorMap, RejectsBadStops) {
  EXPECT_THROW(ColorMap({{0.0, 0, 0, 0}}), util::ContractViolation);
  EXPECT_THROW(ColorMap({{0.2, 0, 0, 0}, {1.0, 1, 1, 1}}),
               util::ContractViolation);
}

// ---------- image ----------

TEST(Image, DigestSensitiveToPixels) {
  Image a(8, 8), b(8, 8);
  EXPECT_EQ(a.digest(), b.digest());
  b.at(3, 3) = Rgb{255, 0, 0};
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Image, PpmHeaderAndSize) {
  Image img(4, 2, Rgb{1, 2, 3});
  std::ostringstream os;
  img.write_ppm(os);
  const std::string ppm = os.str();
  EXPECT_EQ(ppm.substr(0, 3), "P6\n");
  EXPECT_NE(ppm.find("4 2"), std::string::npos);
  EXPECT_EQ(ppm.size(), ppm.find("255\n") + 4 + 4 * 2 * 3);
}

TEST(Image, SetClippedIgnoresOutOfBounds) {
  Image img(4, 4);
  img.set_clipped(-1, 0, Rgb{9, 9, 9});
  img.set_clipped(0, 100, Rgb{9, 9, 9});
  img.set_clipped(2, 2, Rgb{9, 9, 9});
  EXPECT_EQ(img.at(2, 2), (Rgb{9, 9, 9}));
}

// ---------- bilinear / rasterizer ----------

TEST(Rasterizer, BilinearInterpolatesLinearly) {
  const util::Field2D f = ramp_field(8);
  EXPECT_NEAR(bilinear_sample(f, 2.5, 3.0), 2.5, 1e-12);
  EXPECT_NEAR(bilinear_sample(f, 0.0, 0.0), 0.0, 1e-12);
  // Clamped outside.
  EXPECT_NEAR(bilinear_sample(f, 100.0, 3.0), 7.0, 1e-12);
}

TEST(Rasterizer, PseudocolorMatchesColormap) {
  const util::Field2D f = ramp_field(16);
  const Image img = render_pseudocolor(f, ColorMap::grayscale(), 16, 16, 0.0,
                                       15.0, nullptr);
  EXPECT_EQ(img.at(0, 0), (Rgb{0, 0, 0}));
  EXPECT_EQ(img.at(15, 0), (Rgb{255, 255, 255}));
  // Left half darker than right half.
  EXPECT_LT(img.at(3, 8).r, img.at(12, 8).r);
}

TEST(Rasterizer, ThreadedRenderIdenticalToSerial) {
  const util::Field2D f = radial_field(32);
  util::ThreadPool pool(4);
  const Image serial = render_pseudocolor(f, ColorMap::hot(), 64, 64, 0.0,
                                          25.0, nullptr);
  const Image threaded = render_pseudocolor(f, ColorMap::hot(), 64, 64, 0.0,
                                            25.0, &pool);
  EXPECT_EQ(serial.digest(), threaded.digest());
}

TEST(Rasterizer, OnePixelImageSamplesFieldCenter) {
  // A 1x1 (and 1xN / Nx1) render must sample the field-axis center, not the
  // left/top edge, and must not divide by zero (regression: the old scaling
  // mapped degenerate extents through `width - 1`).
  const util::Field2D f = ramp_field(9);  // f(i, j) = i, center column 4
  const Image px = render_pseudocolor(f, ColorMap::grayscale(), 1, 1, 0.0,
                                      8.0, nullptr);
  EXPECT_EQ(px.at(0, 0), (Rgb{128, 128, 128}));  // value 4 of [0, 8]

  const Image column = render_pseudocolor(f, ColorMap::grayscale(), 1, 5, 0.0,
                                          8.0, nullptr);
  for (std::size_t y = 0; y < 5; ++y) {
    EXPECT_EQ(column.at(0, y), (Rgb{128, 128, 128}));
  }
  const Image row = render_pseudocolor(f, ColorMap::grayscale(), 5, 1, 0.0,
                                       8.0, nullptr);
  EXPECT_EQ(row.at(0, 0), (Rgb{0, 0, 0}));       // pixel 0 -> field x 0
  EXPECT_EQ(row.at(4, 0), (Rgb{255, 255, 255}));  // pixel 4 -> field x 8
}

TEST(Rasterizer, OneCellFieldAxisRendersUniformly) {
  // nx == 1: every pixel must pin to field coordinate 0 (the old scaling
  // was only saved from 0/0 by the clamp inside bilinear_sample).
  util::Field2D f(1, 4);
  for (std::size_t j = 0; j < 4; ++j) {
    f.at(0, j) = static_cast<double>(j);
  }
  const Image img = render_pseudocolor(f, ColorMap::grayscale(), 6, 4, 0.0,
                                       3.0, nullptr);
  for (std::size_t x = 0; x < 6; ++x) {
    EXPECT_EQ(img.at(x, 0), img.at(0, 0));
    EXPECT_EQ(img.at(x, 3), img.at(0, 3));
  }
  EXPECT_EQ(img.at(0, 0), (Rgb{0, 0, 0}));
  EXPECT_EQ(img.at(0, 3), (Rgb{255, 255, 255}));

  const Image single = render_pseudocolor(util::Field2D(1, 1, 2.0),
                                          ColorMap::grayscale(), 3, 3, 0.0,
                                          4.0, nullptr);
  EXPECT_EQ(single.at(1, 1), (Rgb{128, 128, 128}));
}

// ---------- pixel pins ----------
//
// FNV-1a over the per-frame image digests, captured from the per-pixel
// raster (bilinear_sample + ColorMap::map_range at every pixel) before the
// table-driven row loop replaced it. A single pixel of any frame moving
// changes them.

std::uint64_t digests_fnv(const std::vector<std::uint64_t>& digests) {
  return util::fnv1a64(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(digests.data()),
      digests.size() * sizeof(std::uint64_t)));
}

TEST(PixelPins, CaseOneFramesPerPalette) {
  struct Pin {
    Palette palette;
    std::uint64_t fnv;
  };
  const Pin pins[] = {{Palette::kCoolWarm, 0x35b7c341ab27015cULL},
                      {Palette::kHot, 0x37fd466a3ad6c5edULL},
                      {Palette::kGrayscale, 0x0a8ee936d83de8c3ULL}};
  for (const Pin& pin : pins) {
    core::CaseStudyConfig config = core::case_study(1);
    config.vis.palette = pin.palette;
    core::Testbed bed;
    core::PipelineOptions options;
    options.host_threads = 2;
    options.frame_digests = true;
    const core::PipelineOutput out =
        core::run_pipeline(bed, core::PipelineKind::kInSitu, config, options);
    ASSERT_EQ(out.visualized_steps, 50);
    ASSERT_EQ(out.image_digests.size(), 50u);
    EXPECT_EQ(digests_fnv(out.image_digests), pin.fnv)
        << palette_name(pin.palette);
  }
}

TEST(PixelPins, SteeredServeView) {
  // A viewer steered to a region of interest, a 96x160 non-square frame and
  // the hot palette, over the first 10 case-1 timesteps.
  serve::ViewParams view;
  serve::SteerCommand cmd;
  cmd.kind = serve::SteerKind::kRegion;
  cmd.x0 = 0.2;
  cmd.y0 = 0.15;
  cmd.x1 = 0.85;
  cmd.y1 = 0.7;
  view = serve::apply_steer(view, cmd);
  cmd.kind = serve::SteerKind::kResolution;
  cmd.width = 96;
  cmd.height = 160;
  view = serve::apply_steer(view, cmd);
  cmd.kind = serve::SteerKind::kPalette;
  cmd.palette = Palette::kHot;
  view = serve::apply_steer(view, cmd);

  const core::CaseStudyConfig config = core::case_study(1);
  const VisPipeline pipe(serve::vis_config_for(view, config.vis), nullptr);
  heat::HeatSolver solver(config.problem, nullptr);
  util::Field2D roi;
  Image frame;
  std::vector<std::uint64_t> digests;
  for (int step = 0; step < 10; ++step) {
    (void)solver.step();
    serve::render_view(view, solver.temperature(), pipe, roi, frame);
    digests.push_back(frame.digest());
  }
  EXPECT_EQ(frame.width(), 96u);
  EXPECT_EQ(frame.height(), 160u);
  EXPECT_EQ(digests_fnv(digests), 0x92403292e9aba6c9ULL);
}

TEST(Rasterizer, DrawSegmentsLeavesMarks) {
  Image img(32, 32);
  const std::vector<Segment> diag{Segment{0.0, 0.0, 7.0, 7.0}};
  draw_segments(img, diag, 8, 8, Rgb{255, 0, 0});
  // The diagonal was painted.
  EXPECT_EQ(img.at(0, 0), (Rgb{255, 0, 0}));
  EXPECT_EQ(img.at(31, 31), (Rgb{255, 0, 0}));
}

// ---------- marching squares ----------

TEST(Contour, RadialFieldYieldsClosedRing) {
  const util::Field2D f = radial_field(33);
  const auto segments = marching_squares(f, 10.0);
  EXPECT_GT(segments.size(), 20u);
  // Every segment endpoint lies near the r = 10 circle.
  const double c = 16.0;
  for (const auto& s : segments) {
    const double r0 = std::hypot(s.x0 - c, s.y0 - c);
    const double r1 = std::hypot(s.x1 - c, s.y1 - c);
    EXPECT_NEAR(r0, 10.0, 0.75);
    EXPECT_NEAR(r1, 10.0, 0.75);
  }
}

TEST(Contour, NoSegmentsOutsideRange) {
  const util::Field2D f = ramp_field(8);
  EXPECT_TRUE(marching_squares(f, 100.0).empty());
  EXPECT_TRUE(marching_squares(f, -5.0).empty());
}

TEST(Contour, VerticalLineOnRamp) {
  const util::Field2D f = ramp_field(8);
  const auto segments = marching_squares(f, 3.5);
  ASSERT_FALSE(segments.empty());
  for (const auto& s : segments) {
    EXPECT_NEAR(s.x0, 3.5, 1e-9);
    EXPECT_NEAR(s.x1, 3.5, 1e-9);
  }
  EXPECT_EQ(segments.size(), 7u);  // one per cell row
}

TEST(Contour, SaddleProducesTwoSegments) {
  util::Field2D f(2, 2);
  f.at(0, 0) = 1.0;
  f.at(1, 1) = 1.0;
  f.at(1, 0) = 0.0;
  f.at(0, 1) = 0.0;
  const auto segments = marching_squares(f, 0.5);
  EXPECT_EQ(segments.size(), 2u);
}

TEST(Contour, IsoLevelsAreInterior) {
  const util::Field2D f = ramp_field(8);
  const auto levels = iso_levels(f, 3);
  ASSERT_EQ(levels.size(), 3u);
  for (double v : levels) {
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 7.0);
  }
  EXPECT_LT(levels[0], levels[1]);
}

// ---------- filters ----------

TEST(Filters, DownsampleKeepsEveryKth) {
  const util::Field2D f = ramp_field(8);
  const util::Field2D d = downsample(f, 2);
  EXPECT_EQ(d.nx(), 4u);
  EXPECT_DOUBLE_EQ(d.at(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(d.at(3, 0), 6.0);
}

TEST(Filters, ResampleReconstructsLinearFieldExactly) {
  const util::Field2D f = ramp_field(9);
  const util::Field2D d = downsample(f, 2);
  const util::Field2D r = resample(d, 9, 9);
  EXPECT_LT(rms_difference(f, r), 1e-9);
}

TEST(Filters, SamplingErrorGrowsWithStride) {
  const util::Field2D f = radial_field(65);
  const util::Field2D r2 = resample(downsample(f, 2), 65, 65);
  const util::Field2D r8 = resample(downsample(f, 8), 65, 65);
  EXPECT_LT(rms_difference(f, r2), rms_difference(f, r8));
}

// ---------- annotation ----------

TEST(Annotate, TextMarksPixelsWithinBounds) {
  Image img(64, 16);
  const auto before = img.digest();
  draw_text(img, "STEP 42", 2, 2, Rgb{255, 255, 255});
  EXPECT_NE(img.digest(), before);
  // Nothing outside the text box was touched.
  EXPECT_EQ(img.at(60, 12), (Rgb{0, 0, 0}));
}

TEST(Annotate, TextWidthAndScaling) {
  EXPECT_EQ(text_width("AB"), 12u);
  EXPECT_EQ(text_width("AB", 3), 36u);
  Image small(32, 10), big(96, 30);
  draw_text(small, "A", 0, 0, Rgb{255, 0, 0}, 1);
  draw_text(big, "A", 0, 0, Rgb{255, 0, 0}, 3);
  std::size_t lit_small = 0, lit_big = 0;
  for (const auto& p : small.pixels()) {
    lit_small += p.r > 0 ? 1 : 0;
  }
  for (const auto& p : big.pixels()) {
    lit_big += p.r > 0 ? 1 : 0;
  }
  EXPECT_EQ(lit_big, 9u * lit_small);
}

TEST(Annotate, LowercaseFoldsToUppercase) {
  Image a(16, 10), b(16, 10);
  draw_text(a, "k", 0, 0, Rgb{255, 255, 255});
  draw_text(b, "K", 0, 0, Rgb{255, 255, 255});
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(Annotate, ClipsOffscreenTextSafely) {
  Image img(16, 16);
  EXPECT_NO_THROW(draw_text(img, "CLIP", -10, -3, Rgb{9, 9, 9}));
  EXPECT_NO_THROW(draw_text(img, "CLIP", 14, 14, Rgb{9, 9, 9}));
}

TEST(Annotate, ColorbarSpansMapRange) {
  Image img(128, 128, Rgb{0, 0, 0});
  const auto cmap = ColorMap::grayscale();
  draw_colorbar(img, cmap, 0.0, 100.0);
  // The bar occupies the right edge: top of the bar bright, bottom dark.
  const std::size_t x = 128 - 5;
  EXPECT_GT(img.at(x, 16).r, 200);
  EXPECT_LT(img.at(x, 110).r, 60);
}

// ---------- flow / streamlines ----------

TEST(Flow, GradientOfRampIsConstant) {
  const util::Field2D f = ramp_field(8);  // f = x
  const Gradient2D g = gradient(f);
  for (std::size_t j = 0; j < 8; ++j) {
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_NEAR(g.gx.at(i, j), 1.0, 1e-12);
      EXPECT_NEAR(g.gy.at(i, j), 0.0, 1e-12);
    }
  }
}

TEST(Flow, SampleGradientInterpolates) {
  const util::Field2D f = ramp_field(8);
  const Gradient2D g = gradient(f);
  const Vec2 v = sample_gradient(g, 3.5, 2.7);
  EXPECT_NEAR(v.x, 1.0, 1e-12);
  EXPECT_NEAR(v.y, 0.0, 1e-12);
}

TEST(Flow, DownhillStreamlineDescendsRamp) {
  const util::Field2D f = ramp_field(16);  // increases with x
  const Gradient2D g = gradient(f);
  const auto line = trace_streamline(g, 10.0, 8.0);
  ASSERT_GE(line.size(), 2u);
  // Heat flows down-gradient: toward smaller x, constant y.
  EXPECT_LT(line.back().x, 1.0);
  EXPECT_NEAR(line.back().y, 8.0, 1e-9);
  // Monotone descent of the scalar along the line.
  for (std::size_t p = 1; p < line.size(); ++p) {
    EXPECT_LT(line[p].x, line[p - 1].x);
  }
}

TEST(Flow, UphillStreamlineClimbsRadialField) {
  const util::Field2D f = radial_field(33);  // minimum at the center
  const Gradient2D g = gradient(f);
  StreamlineConfig config;
  config.downhill = false;  // climb toward larger radius
  const auto line = trace_streamline(g, 18.0, 16.0, config);
  const double r_start = std::hypot(18.0 - 16.0, 16.0 - 16.0);
  const double r_end =
      std::hypot(line.back().x - 16.0, line.back().y - 16.0);
  EXPECT_GT(r_end, r_start + 5.0);
}

TEST(Flow, StreamlineStopsAtStagnation) {
  const util::Field2D flat(8, 8, 3.0);
  const Gradient2D g = gradient(flat);
  const auto line = trace_streamline(g, 4.0, 4.0);
  EXPECT_EQ(line.size(), 1u);  // nothing but the seed
}

TEST(Flow, DrawStreamlinesMarksImage) {
  const util::Field2D f = radial_field(33);
  Image img(64, 64);
  const Image before = img;
  draw_streamlines(img, f, 4, Rgb{255, 0, 0});
  EXPECT_NE(img.digest(), before.digest());
}

// ---------- pipeline ----------

TEST(VisPipeline, DeterministicDigests) {
  const util::Field2D f = radial_field(64);
  VisConfig config;
  config.width = 128;
  config.height = 128;
  util::ThreadPool pool(2);
  VisPipeline p(config, &pool);
  EXPECT_EQ(p.render(f).digest(), p.render(f).digest());
}

TEST(VisPipeline, DifferentFieldsDifferentImages) {
  VisConfig config;
  config.width = 64;
  config.height = 64;
  VisPipeline p(config, nullptr);
  EXPECT_NE(p.render(radial_field(32)).digest(),
            p.render(ramp_field(32)).digest());
}

TEST(VisPipeline, ActivityMatchesConfiguredCost) {
  VisConfig config;
  const VisPipeline p(config, nullptr);
  const auto a = p.render_activity();
  EXPECT_NEAR(a.flops, 512.0 * 512.0 * config.modeled_flops_per_pixel, 1.0);
  EXPECT_EQ(a.active_cores, 16u);
  EXPECT_NEAR(a.core_utilization, 0.35, 1e-12);
}

}  // namespace
}  // namespace greenvis::vis
