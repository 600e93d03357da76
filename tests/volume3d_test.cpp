// 3-D solver + volume renderer tests.
#include <gtest/gtest.h>

#include <cmath>

#include "src/heat/solver3d.hpp"
#include "src/util/error.hpp"
#include "src/util/thread_pool.hpp"
#include "src/vis/volume.hpp"
#include "tests/heat_balance.hpp"
#include "tests/wrapped_blobs.hpp"

namespace greenvis {
namespace {

// ---------- Field3D ----------

TEST(Field3D, IndexingAndRoundTrip) {
  util::Field3D f(3, 4, 5);
  f.at(1, 2, 3) = 42.0;
  f.at(2, 3, 4) = -7.0;
  EXPECT_DOUBLE_EQ(f.at(1, 2, 3), 42.0);
  const util::Field3D g = util::Field3D::deserialize(f.serialize());
  EXPECT_EQ(f, g);
  EXPECT_DOUBLE_EQ(g.at(2, 3, 4), -7.0);
}

TEST(Field3D, RejectsCorruptBlob) {
  util::Field3D f(2, 2, 2);
  auto raw = f.serialize();
  raw.pop_back();
  EXPECT_THROW((void)util::Field3D::deserialize(raw),
               util::ContractViolation);
  // 24 + 2^61 * 4 * 2 * 8 wraps to 24: the header alone must not pass.
  EXPECT_THROW(
      (void)util::Field3D::deserialize(util::wrapped_field3d_blob()),
      util::ContractViolation);
}

// ---------- 3-D solver ----------

heat::HeatProblem3D small_problem() {
  heat::HeatProblem3D p;
  p.nx = 17;
  p.ny = 17;
  p.nz = 17;
  p.executed_sweeps = 90;
  return p;
}

TEST(HeatSolver3D, EigenmodeDecaysAtDiscreteRate) {
  heat::HeatSolver3D solver(small_problem(), nullptr);
  solver.set_eigenmode(1, 1, 1, 1.0);
  const double expected = solver.eigenmode_decay(1, 1, 1);
  const double before = solver.temperature().at(8, 8, 8);
  solver.step();
  EXPECT_NEAR(solver.temperature().at(8, 8, 8) / before, expected, 1e-5);
}

TEST(HeatSolver3D, HigherModesDecayFaster) {
  heat::HeatSolver3D solver(small_problem(), nullptr);
  EXPECT_LT(solver.eigenmode_decay(2, 2, 2), solver.eigenmode_decay(1, 1, 1));
}

TEST(HeatSolver3D, DirichletHeatBalance) {
  heat::HeatSolver3D solver(small_problem(), nullptr);
  // A hot block in the corner, against three faces.
  for (std::size_t k = 1; k < 6; ++k) {
    for (std::size_t j = 1; j < 6; ++j) {
      for (std::size_t i = 1; i < 6; ++i) {
        solver.temperature().at(i, j, k) = 25.0;
      }
    }
  }
  for (int s = 0; s < 5; ++s) {
    SCOPED_TRACE(s);
    heat::expect_balanced(heat::step_heat_balance(solver));
  }
}

TEST(HeatSolver3D, ThreadedMatchesSerial) {
  heat::HeatProblem3D p = small_problem();
  p.sources = {heat::HeatSource3D{8.0, 8.0, 8.0, 3.0, 80.0}};
  heat::HeatSolver3D serial(p, nullptr);
  util::ThreadPool pool(4);
  heat::HeatSolver3D threaded(p, &pool);
  for (int s = 0; s < 3; ++s) {
    serial.step();
    threaded.step();
  }
  EXPECT_EQ(serial.temperature(), threaded.temperature());
}

TEST(HeatSolver3D, SourceHeatsNeighborhood) {
  heat::HeatProblem3D p = small_problem();
  p.sources = {heat::HeatSource3D{8.0, 8.0, 8.0, 2.0, 100.0}};
  heat::HeatSolver3D solver(p, nullptr);
  for (int s = 0; s < 4; ++s) {
    solver.step();
  }
  EXPECT_DOUBLE_EQ(solver.temperature().at(8, 8, 8), 100.0);
  EXPECT_GT(solver.temperature().at(8, 8, 12), 0.0);
  EXPECT_LT(solver.temperature().at(8, 8, 12), 100.0);
}

TEST(HeatSolver3D, ActivityScalesWithVolume) {
  heat::HeatProblem3D small = small_problem();
  heat::HeatProblem3D big = small_problem();
  big.nx = big.ny = big.nz = 33;
  heat::HeatSolver3D a(small, nullptr), b(big, nullptr);
  EXPECT_GT(b.step_activity().flops, 7.0 * a.step_activity().flops);
}

// ---------- transfer function ----------

TEST(TransferFunction, IntensityClampsAndScales) {
  vis::TransferFunction tf;
  tf.lo = 10.0;
  tf.hi = 20.0;
  EXPECT_DOUBLE_EQ(tf.intensity(5.0), 0.0);
  EXPECT_DOUBLE_EQ(tf.intensity(15.0), 0.5);
  EXPECT_DOUBLE_EQ(tf.intensity(25.0), 1.0);
}

TEST(TransferFunction, OpacityMonotoneInValueAndStep) {
  vis::TransferFunction tf;
  tf.lo = 0.0;
  tf.hi = 1.0;
  EXPECT_LT(tf.opacity(0.3, 0.5), tf.opacity(0.9, 0.5));
  EXPECT_LT(tf.opacity(0.9, 0.25), tf.opacity(0.9, 0.5));
  EXPECT_DOUBLE_EQ(tf.opacity(-1.0, 0.5), 0.0);
  EXPECT_LE(tf.opacity(1.0, 1e9), 1.0);
}

// ---------- volume renderer ----------

TEST(Volume, TrilinearExactOnLinearField) {
  util::Field3D f(5, 5, 5);
  for (std::size_t k = 0; k < 5; ++k) {
    for (std::size_t j = 0; j < 5; ++j) {
      for (std::size_t i = 0; i < 5; ++i) {
        f.at(i, j, k) = static_cast<double>(i) + 2.0 * static_cast<double>(j) +
                        3.0 * static_cast<double>(k);
      }
    }
  }
  EXPECT_NEAR(vis::trilinear_sample(f, 1.5, 2.25, 0.75), 1.5 + 4.5 + 2.25,
              1e-12);
  // Clamped outside.
  EXPECT_NEAR(vis::trilinear_sample(f, -3.0, 0.0, 0.0), 0.0, 1e-12);
}

util::Field3D hot_ball(std::size_t n) {
  util::Field3D f(n, n, n, 0.0);
  const double c = static_cast<double>(n - 1) / 2.0;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < n; ++i) {
        const double d = std::hypot(
            std::hypot(static_cast<double>(i) - c, static_cast<double>(j) - c),
            static_cast<double>(k) - c);
        if (d < c * 0.4) {
          f.at(i, j, k) = 100.0;
        }
      }
    }
  }
  return f;
}

vis::VolumeConfig small_config() {
  vis::VolumeConfig config;
  config.width = 48;
  config.height = 48;
  config.tf.lo = 0.0;
  config.tf.hi = 100.0;
  config.tf.opacity_scale = 0.5;
  return config;
}

TEST(Volume, EmptyVolumeRendersBackground) {
  const util::Field3D f(16, 16, 16, 0.0);
  const vis::VolumeConfig config = small_config();
  const vis::Image img = vis::render_volume(f, config);
  for (std::size_t y = 0; y < img.height(); ++y) {
    for (std::size_t x = 0; x < img.width(); ++x) {
      ASSERT_EQ(img.at(x, y), config.background);
    }
  }
}

TEST(Volume, BallVisibleInCenterNotCorners) {
  const util::Field3D f = hot_ball(24);
  const vis::VolumeConfig config = small_config();
  const vis::Image img = vis::render_volume(f, config);
  EXPECT_NE(img.at(24, 24), config.background);
  EXPECT_EQ(img.at(0, 0), config.background);
  EXPECT_EQ(img.at(47, 47), config.background);
}

TEST(Volume, FrontToBackOrderMatters) {
  // Two opaque slabs along x: low-intensity at small x, high at large x.
  util::Field3D f(16, 16, 16, 0.0);
  for (std::size_t k = 6; k < 10; ++k) {
    for (std::size_t j = 6; j < 10; ++j) {
      f.at(2, j, k) = 30.0;   // dimmer slab near x=2
      f.at(13, j, k) = 95.0;  // brighter slab near x=13
    }
  }
  vis::VolumeConfig config = small_config();
  config.tf.opacity_scale = 5.0;  // effectively opaque surfaces
  config.camera.elevation_deg = 0.0;

  config.camera.azimuth_deg = 180.0;  // looking along +x: sees x=2 first
  const vis::Image from_minus_x = vis::render_volume(f, config);
  config.camera.azimuth_deg = 0.0;  // looking along -x: sees x=13 first
  const vis::Image from_plus_x = vis::render_volume(f, config);
  EXPECT_NE(from_minus_x.digest(), from_plus_x.digest());

  // The brighter (hot-colormap: more yellow/red) slab dominates only from
  // the +x side.
  const vis::Rgb center_minus = from_minus_x.at(24, 24);
  const vis::Rgb center_plus = from_plus_x.at(24, 24);
  EXPECT_GT(static_cast<int>(center_plus.g),
            static_cast<int>(center_minus.g));
}

TEST(Volume, ThreadedMatchesSerial) {
  const util::Field3D f = hot_ball(20);
  const vis::VolumeConfig config = small_config();
  util::ThreadPool pool(4);
  EXPECT_EQ(vis::render_volume(f, config, &pool).digest(),
            vis::render_volume(f, config).digest());
}

TEST(Volume, ZoomEnlargesSilhouette) {
  const util::Field3D f = hot_ball(24);
  vis::VolumeConfig config = small_config();
  auto coverage = [&](double zoom) {
    config.camera.zoom = zoom;
    const vis::Image img = vis::render_volume(f, config);
    std::size_t lit = 0;
    for (std::size_t y = 0; y < img.height(); ++y) {
      for (std::size_t x = 0; x < img.width(); ++x) {
        if (!(img.at(x, y) == config.background)) {
          ++lit;
        }
      }
    }
    return lit;
  };
  EXPECT_GT(coverage(2.0), coverage(1.0));
}

TEST(Volume, ActivityScalesWithResolutionAndStep) {
  const util::Field3D f(32, 32, 32);
  vis::VolumeConfig coarse = small_config();
  vis::VolumeConfig fine = small_config();
  fine.width = 96;
  fine.height = 96;
  EXPECT_GT(vis::volume_render_activity(f, fine).flops,
            3.0 * vis::volume_render_activity(f, coarse).flops);
  vis::VolumeConfig tiny_step = small_config();
  tiny_step.step = 0.25;
  EXPECT_GT(vis::volume_render_activity(f, tiny_step).flops,
            vis::volume_render_activity(f, coarse).flops);
}

}  // namespace
}  // namespace greenvis
