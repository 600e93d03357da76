// Unit tests for the viewer-serving layer: frame keys, steering, fleets,
// and the session's determinism, render-sharing and exactly-once delivery
// contracts.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/workload.hpp"
#include "src/serve/session.hpp"
#include "src/serve/viewer.hpp"
#include "src/util/field.hpp"

namespace greenvis {
namespace {

core::CaseStudyConfig small_serve_base() {
  core::CaseStudyConfig config = core::case_study(1);
  config.iterations = 6;
  config.io_period = 2;
  config.problem.nx = 32;
  config.problem.ny = 32;
  config.problem.executed_sweeps = 6;
  return config;
}

serve::ServeConfig small_serve_config(int viewers, int groups) {
  serve::ServeConfig config;
  config.base = small_serve_base();
  serve::ViewParams base;
  base.width = 48;
  base.height = 40;
  config.viewers = serve::default_fleet(viewers, groups, base);
  return config;
}

TEST(FrameKey, DeterministicAndSensitiveToEveryParameter) {
  const serve::ViewParams base;
  const std::uint64_t digest = 0xABCDEF0123456789ULL;
  EXPECT_EQ(serve::frame_key(3, digest, base),
            serve::frame_key(3, digest, base));

  std::set<std::uint64_t> keys;
  keys.insert(serve::frame_key(3, digest, base));
  keys.insert(serve::frame_key(4, digest, base));
  keys.insert(serve::frame_key(3, digest + 1, base));
  serve::ViewParams p = base;
  p.width = 257;
  keys.insert(serve::frame_key(3, digest, p));
  p = base;
  p.iso_levels = 6;
  keys.insert(serve::frame_key(3, digest, p));
  p = base;
  p.palette = vis::Palette::kHot;
  keys.insert(serve::frame_key(3, digest, p));
  p = base;
  p.roi_x0 = 0.25;
  keys.insert(serve::frame_key(3, digest, p));
  EXPECT_EQ(keys.size(), 7u) << "step, field, and every view parameter must "
                                "land in the key";
}

TEST(FrameKey, FieldDigestTracksBits) {
  util::Field2D a(8, 8);
  util::Field2D b(8, 8);
  for (std::size_t k = 0; k < a.size(); ++k) {
    a.values()[k] = static_cast<double>(k) * 0.5;
    b.values()[k] = static_cast<double>(k) * 0.5;
  }
  EXPECT_EQ(serve::field_digest(a), serve::field_digest(b));
  b.at(3, 4) += 1e-12;
  EXPECT_NE(serve::field_digest(a), serve::field_digest(b));
}

TEST(CropRect, FullFieldByDefaultAndClampedUnderExtremeSteering) {
  const serve::ViewParams base;
  EXPECT_TRUE(serve::crop_rect(base, 48, 40).full(48, 40));

  serve::ViewParams tiny = base;
  tiny.roi_x0 = 0.999;
  tiny.roi_y0 = 0.999;
  tiny.roi_x1 = 0.9995;
  tiny.roi_y1 = 0.9995;
  const serve::CropRect r = serve::crop_rect(tiny, 48, 40);
  EXPECT_GE(r.nx, 2u);
  EXPECT_GE(r.ny, 2u);
  EXPECT_LE(r.i0 + r.nx, 48u);
  EXPECT_LE(r.j0 + r.ny, 40u);
}

TEST(ApplySteer, ClampsEveryPayload) {
  const serve::ViewParams base;
  serve::SteerCommand cmd;
  cmd.kind = serve::SteerKind::kIsoLevels;
  cmd.iso_levels = 0;
  EXPECT_GE(serve::apply_steer(base, cmd).iso_levels, 1u);

  cmd.kind = serve::SteerKind::kResolution;
  cmd.width = 1;
  cmd.height = 1;
  const serve::ViewParams res = serve::apply_steer(base, cmd);
  EXPECT_GE(res.width, 16u);
  EXPECT_GE(res.height, 16u);

  cmd.kind = serve::SteerKind::kRegion;
  cmd.x0 = 1.7;  // out of range and inverted
  cmd.x1 = -0.3;
  cmd.y0 = 0.9;
  cmd.y1 = 0.1;
  const serve::ViewParams reg = serve::apply_steer(base, cmd);
  EXPECT_GE(reg.roi_x0, 0.0);
  EXPECT_LE(reg.roi_x1, 1.0);
  EXPECT_LT(reg.roi_x0, reg.roi_x1);
  EXPECT_LT(reg.roi_y0, reg.roi_y1);

  cmd.kind = serve::SteerKind::kPalette;
  cmd.palette = vis::Palette::kGrayscale;
  EXPECT_EQ(serve::apply_steer(base, cmd).palette, vis::Palette::kGrayscale);
}

TEST(DefaultFleet, GroupsShareCanonicalViewsAndIdsAscend) {
  const std::vector<serve::ViewerSchedule> fleet = serve::default_fleet(8, 4);
  ASSERT_EQ(fleet.size(), 8u);
  std::set<std::string> texts;
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(fleet[static_cast<std::size_t>(i)].viewer, i);
    texts.insert(serve::canonical_view_text(
        fleet[static_cast<std::size_t>(i)].params));
    EXPECT_EQ(serve::canonical_view_text(
                  fleet[static_cast<std::size_t>(i)].params),
              serve::canonical_view_text(
                  fleet[static_cast<std::size_t>(i % 4)].params))
        << "viewer " << i << " must share its group's view";
  }
  EXPECT_EQ(texts.size(), 4u);
}

TEST(ServeSession, RerunIsByteIdentical) {
  const serve::ServeConfig config = small_serve_config(6, 3);
  const serve::ServeReport a = serve::run_serve_session(config);
  const serve::ServeReport b = serve::run_serve_session(config);
  EXPECT_EQ(a.duration.value(), b.duration.value());
  EXPECT_EQ(a.energy.value(), b.energy.value());
  EXPECT_EQ(a.final_field_digest, b.final_field_digest);
  ASSERT_EQ(a.deliveries.size(), b.deliveries.size());
  for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
    EXPECT_EQ(a.deliveries[i].digest, b.deliveries[i].digest);
    EXPECT_EQ(a.deliveries[i].key, b.deliveries[i].key);
  }
  std::ostringstream ja;
  std::ostringstream jb;
  serve::write_serve_profile_json(ja, config, a);
  serve::write_serve_profile_json(jb, config, b);
  EXPECT_EQ(ja.str(), jb.str());
  EXPECT_NE(ja.str().find("greenvis.serve_profile.v1"), std::string::npos);
}

TEST(ServeSession, JoinLeaveWindowsGateDeliveryExactlyOnce) {
  serve::ServeConfig config = small_serve_config(3, 2);
  config.viewers[1].join_step = 2;   // misses frame step 0
  config.viewers[2].leave_step = 4;  // misses frame steps >= 4
  const serve::ServeReport report = serve::run_serve_session(config);

  std::map<int, std::map<int, int>> per_step_viewer;
  for (const serve::Delivery& d : report.deliveries) {
    ++per_step_viewer[d.step][d.viewer];
  }
  for (int step = 0; step < config.base.iterations; ++step) {
    if (!config.base.is_io_step(step)) {
      EXPECT_EQ(per_step_viewer.count(step), 0u);
      continue;
    }
    for (const serve::ViewerSchedule& v : config.viewers) {
      const int got = per_step_viewer[step][v.viewer];
      EXPECT_EQ(got, v.active_at(step) ? 1 : 0)
          << "step " << step << " viewer " << v.viewer;
    }
  }
  EXPECT_EQ(report.frames_delivered, report.deliveries.size());
}

TEST(ServeSession, SharersReuseTheLeadRender) {
  // 6 viewers, 2 view groups: per frame step the host renders twice and
  // fans out six frames; sharers' pixels match their group lead's.
  const serve::ServeConfig config = small_serve_config(6, 2);
  const serve::ServeReport report = serve::run_serve_session(config);
  EXPECT_EQ(report.frame_steps, 3);
  EXPECT_EQ(report.host_renders, 6u);  // 2 groups x 3 frame steps
  EXPECT_EQ(report.frames_delivered, 18u);
  EXPECT_EQ(report.cache.hits, 12u);
  EXPECT_EQ(report.cache.misses, 6u);

  std::map<std::uint64_t, std::uint64_t> payload;
  for (const serve::Delivery& d : report.deliveries) {
    const auto [it, fresh] = payload.emplace(d.key, d.digest);
    if (!fresh) {
      EXPECT_EQ(it->second, d.digest) << "shared key served stale pixels";
    }
  }
  EXPECT_EQ(payload.size(), report.host_renders);
}

TEST(ServeSession, SixteenViewersInFourViewsRenderFourPerStep) {
  // The fleet the perf harness times: each frame step renders the 4
  // unique views once and delivers 16 frames.
  serve::ServeConfig config;
  config.base = small_serve_base();
  config.viewers = serve::default_fleet(16, 4);
  const serve::ServeReport report = serve::run_serve_session(config);
  const auto steps = static_cast<std::uint64_t>(report.frame_steps);
  EXPECT_EQ(report.frame_steps, 3);
  EXPECT_EQ(report.host_renders, 4 * steps);
  EXPECT_EQ(report.frames_delivered, 16 * steps);
}

TEST(ServeSession, BaselineFillsMarginalJoules) {
  const serve::ServeConfig config = small_serve_config(4, 2);
  const serve::ServeReport report = serve::run_serve_with_baseline(config);
  ASSERT_EQ(report.viewers.size(), 4u);
  EXPECT_GT(report.single_viewer_j, 0.0);
  EXPECT_GT(report.energy.value(), report.single_viewer_j);
  const double expect_marginal =
      (report.energy.value() - report.single_viewer_j) / 3.0;
  EXPECT_DOUBLE_EQ(report.marginal_j_per_viewer, expect_marginal);
  // Sharing amortizes the fixed bill: adding a viewer costs less than the
  // whole single-viewer session.
  EXPECT_LT(report.marginal_j_per_viewer, report.single_viewer_j);
}

TEST(ServeSession, SteeringSplitsAViewerOffItsGroup) {
  serve::ServeConfig config = small_serve_config(4, 2);
  serve::SteerCommand cmd;
  cmd.step = 2;
  cmd.viewer = 0;
  cmd.kind = serve::SteerKind::kIsoLevels;
  cmd.iso_levels = 11;
  config.commands.push_back(cmd);
  const serve::ServeReport steered = serve::run_serve_session(config);
  config.commands.clear();
  const serve::ServeReport plain = serve::run_serve_session(config);
  // Steps 2 and 4 gain one extra unique view (viewer 0 left group 0).
  EXPECT_EQ(steered.host_renders, plain.host_renders + 2);
  EXPECT_EQ(steered.frames_delivered, plain.frames_delivered);
}

}  // namespace
}  // namespace greenvis
