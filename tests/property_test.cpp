// Parameterized property sweeps across the substrates: invariants that must
// hold for whole families of inputs, not just the calibrated defaults.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/experiment.hpp"
#include "src/heat/solver.hpp"
#include "src/net/multinode.hpp"
#include "src/power/rapl.hpp"
#include "src/qa/registry.hpp"
#include "src/storage/filesystem.hpp"
#include "src/storage/hdd.hpp"
#include "src/trace/clock.hpp"
#include "src/util/rng.hpp"
#include "src/vis/filters.hpp"
#include "src/vis/volume.hpp"
#include "tests/heat_balance.hpp"

namespace greenvis {
namespace {

// ---------- generative sweeps from the qa property registry ----------
//
// The strongest of the old hand-rolled sweeps (HDD throughput/settle,
// compression round trip) now live in src/qa/properties.cpp on qa::Gen:
// each run covers ~100 generated parameter combinations instead of five
// hand-picked ones, and a failure shrinks to a minimal counterexample and
// writes a reproducer file replayable via `greenvis verify --qa-repro=`.

class QaRegistrySweep : public ::testing::TestWithParam<const char*> {};

TEST_P(QaRegistrySweep, HoldsForGeneratedInputs) {
  qa::register_builtin_properties();
  qa::Config config = qa::Config::from_env();
  const qa::CheckResult r =
      qa::PropertyRegistry::global().run(GetParam(), config);
  EXPECT_TRUE(r.passed) << r.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Builtins, QaRegistrySweep,
    ::testing::Values("hdd.seq_throughput_block_invariant",
                      "hdd.random_service_settle_bound",
                      "compress.lossy_round_trip",
                      "codec.container_round_trip",
                      "codec.decode_flip_robust",
                      "replay.trace_flip_robust",
                      "pipeline.async_matches_sync",
                      "campaign.replay_identical",
                      "energy.conservation",
                      "simd.stencil_rows_match_scalar",
                      "simd.codec_kernels_match_scalar",
                      "simd.trilinear_match_scalar",
                      "serve.schedule_invariants",
                      "vis.raster_matches_reference"),
    [](const ::testing::TestParamInfo<const char*>& param_info) {
      std::string name = param_info.param;
      for (char& c : name) {
        if (c == '.' || c == '-') {
          c = '_';
        }
      }
      return name;
    });

// ---------- heat: eigenmode decay across the spectrum ----------

struct ModePair {
  int p;
  int q;
};

class EigenmodeSweep : public ::testing::TestWithParam<ModePair> {};

TEST_P(EigenmodeSweep, DiscreteDecayExact) {
  const auto [p, q] = GetParam();
  heat::HeatProblem problem;
  problem.nx = 33;
  problem.ny = 33;
  problem.executed_sweeps = 120;
  heat::HeatSolver solver(problem, nullptr);
  solver.set_eigenmode(p, q, 2.0);
  const double expected = solver.eigenmode_decay(p, q);
  const double before = solver.temperature().at(7, 11);
  solver.step();
  const double after = solver.temperature().at(7, 11);
  if (std::abs(before) > 1e-6) {
    EXPECT_NEAR(after / before, expected, 2e-5)
        << "mode (" << p << "," << q << ")";
  }
  EXPECT_LT(expected, 1.0);
  EXPECT_GT(expected, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Modes, EigenmodeSweep,
                         ::testing::Values(ModePair{1, 1}, ModePair{1, 2},
                                           ModePair{2, 2}, ModePair{3, 1},
                                           ModePair{4, 4}, ModePair{5, 2}));

// ---------- heat: Dirichlet balance across grid sizes and timesteps ----------

struct ConservationCase {
  std::size_t n;
  double dt;
};

class ConservationSweep
    : public ::testing::TestWithParam<ConservationCase> {};

TEST_P(ConservationSweep, DirichletHeatBalanced) {
  const auto [n, dt] = GetParam();
  heat::HeatProblem problem;
  problem.nx = n;
  problem.ny = n;
  problem.dt = dt;
  problem.executed_sweeps = 150;
  heat::HeatSolver solver(problem, nullptr);
  util::Xoshiro256 rng{n * 7 + 1};
  for (std::size_t j = 1; j + 1 < n; ++j) {
    for (std::size_t i = 1; i + 1 < n; ++i) {
      solver.temperature().at(i, j) = rng.uniform(0.0, 10.0);
    }
  }
  for (int s = 0; s < 5; ++s) {
    SCOPED_TRACE(::testing::Message() << "n=" << n << " dt=" << dt
                                      << " step " << s);
    heat::expect_balanced(heat::step_heat_balance(solver));
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, ConservationSweep,
                         ::testing::Values(ConservationCase{9, 0.1},
                                           ConservationCase{17, 0.25},
                                           ConservationCase{33, 0.25},
                                           ConservationCase{33, 2.0},
                                           ConservationCase{65, 0.5}));

// ---------- filesystem: round trip across policies, modes, sizes ----------

struct FsCase {
  storage::AllocationPolicy policy;
  storage::WriteMode mode;
  std::size_t bytes;
};

class FsRoundTripSweep : public ::testing::TestWithParam<FsCase> {};

TEST_P(FsRoundTripSweep, PayloadBitExact) {
  const FsCase c = GetParam();
  trace::VirtualClock clock;
  storage::HddModel hdd{storage::HddParams{}};
  storage::FsParams params;
  params.allocation = c.policy;
  storage::Filesystem fs(hdd, clock, params);

  std::vector<std::uint8_t> data(c.bytes);
  util::Xoshiro256 rng{c.bytes};
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng.next() & 0xFF);
  }
  auto fd = fs.create("f.bin");
  fs.write(fd, data, c.mode);
  fs.close(fd);
  fs.drop_caches();

  fd = fs.open("f.bin");
  std::vector<std::uint8_t> back(c.bytes);
  EXPECT_EQ(fs.pread(fd, back, 0, storage::ReadMode::kDirect), c.bytes);
  fs.close(fd);
  EXPECT_EQ(back, data);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FsRoundTripSweep,
    ::testing::Values(
        FsCase{storage::AllocationPolicy::kContiguous,
               storage::WriteMode::kBuffered, 1},
        FsCase{storage::AllocationPolicy::kContiguous,
               storage::WriteMode::kSync, 4095},
        FsCase{storage::AllocationPolicy::kAged,
               storage::WriteMode::kBuffered, 4097},
        FsCase{storage::AllocationPolicy::kAged, storage::WriteMode::kSync,
               65536},
        FsCase{storage::AllocationPolicy::kAged,
               storage::WriteMode::kBuffered, 300001}));

// ---------- RAPL: exact accounting across power magnitudes ----------

class RaplSweep : public ::testing::TestWithParam<double> {};

TEST_P(RaplSweep, ReaderIntegratesExactly) {
  const double watts = GetParam();
  power::RaplInterface rapl;
  power::RaplReader reader(rapl);
  reader.sample(power::RaplDomain::kDram, util::Seconds{0.0});
  double recovered = 0.0;
  for (int s = 1; s <= 600; ++s) {
    rapl.deposit(power::RaplDomain::kDram, util::Watts{watts} *
                                               util::Seconds{1.0});
    recovered += reader.sample(power::RaplDomain::kDram,
                               util::Seconds{static_cast<double>(s)})
                     .value();
  }
  EXPECT_NEAR(recovered, watts * 600.0, std::max(0.01, watts * 1e-6));
}

INSTANTIATE_TEST_SUITE_P(Powers, RaplSweep,
                         ::testing::Values(0.5, 10.0, 107.0, 150.0, 400.0));

// ---------- sampling: reconstruction error monotone in stride ----------

class StrideSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StrideSweep, CoarserSamplingNeverImproves) {
  const std::size_t stride = GetParam();
  util::Field2D f(65, 65);
  for (std::size_t j = 0; j < 65; ++j) {
    for (std::size_t i = 0; i < 65; ++i) {
      f.at(i, j) = std::sin(0.3 * static_cast<double>(i)) *
                   std::cos(0.2 * static_cast<double>(j));
    }
  }
  const double err = vis::rms_difference(
      f, vis::resample(vis::downsample(f, stride), 65, 65));
  const double err_next = vis::rms_difference(
      f, vis::resample(vis::downsample(f, stride * 2), 65, 65));
  EXPECT_LE(err, err_next + 1e-12) << "stride=" << stride;
}

INSTANTIATE_TEST_SUITE_P(Strides, StrideSweep,
                         ::testing::Values(1u, 2u, 4u, 8u));

// ---------- volume renderer: invariants across camera angles ----------

class CameraSweep : public ::testing::TestWithParam<double> {};

TEST_P(CameraSweep, BallSilhouetteStableUnderRotation) {
  const double azimuth = GetParam();
  util::Field3D ball(20, 20, 20, 0.0);
  for (std::size_t k = 4; k < 16; ++k) {
    for (std::size_t j = 4; j < 16; ++j) {
      for (std::size_t i = 4; i < 16; ++i) {
        const double d = std::hypot(std::hypot(static_cast<double>(i) - 9.5,
                                               static_cast<double>(j) - 9.5),
                                    static_cast<double>(k) - 9.5);
        if (d < 5.0) {
          ball.at(i, j, k) = 100.0;
        }
      }
    }
  }
  vis::VolumeConfig config;
  config.width = 40;
  config.height = 40;
  config.tf.lo = 0.0;
  config.tf.hi = 100.0;
  config.tf.opacity_scale = 1.0;
  config.camera.azimuth_deg = azimuth;
  const vis::Image img = vis::render_volume(ball, config);
  std::size_t lit = 0;
  for (const auto& p : img.pixels()) {
    if (!(p == config.background)) {
      ++lit;
    }
  }
  // A sphere's silhouette is rotation invariant: ~pi r^2 over the
  // (2 * bounding-radius)^2 view square ~ 9.5% of the pixels.
  const double frac =
      static_cast<double>(lit) / static_cast<double>(40 * 40);
  EXPECT_GT(frac, 0.07) << "azimuth " << azimuth;
  EXPECT_LT(frac, 0.13) << "azimuth " << azimuth;
}

INSTANTIATE_TEST_SUITE_P(Angles, CameraSweep,
                         ::testing::Values(0.0, 45.0, 90.0, 135.0, 222.0,
                                           301.0));

// ---------- multi-node: savings grow monotonically with scale ----------

class NodeCountSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NodeCountSweep, InSituSavingsGrowWithNodes) {
  const std::size_t nodes = GetParam();
  net::ClusterSpec small;
  small.compute_nodes = nodes;
  net::ClusterSpec big;
  big.compute_nodes = nodes * 4;
  const auto workload = core::case_study(1);
  auto savings = [&](const net::ClusterSpec& c) {
    const net::MultiNodeStudy study(c, workload);
    return 1.0 - study.in_situ().energy.value() /
                     study.post_processing().energy.value();
  };
  EXPECT_LT(savings(small), savings(big)) << nodes << " nodes";
}

INSTANTIATE_TEST_SUITE_P(Scales, NodeCountSweep,
                         ::testing::Values(2u, 4u, 8u, 16u));

// ---------- pipelines: invariants across I/O periods ----------

class IoPeriodSweep : public ::testing::TestWithParam<int> {};

TEST_P(IoPeriodSweep, InSituAlwaysFasterNeverDifferentScience) {
  const int period = GetParam();
  core::CaseStudyConfig config = core::case_study(1);
  config.io_period = period;
  config.iterations = 8;
  config.vis.width = 64;
  config.vis.height = 64;
  core::PipelineOptions options;
  options.host_threads = 2;
  options.frame_digests = true;

  core::Testbed post_bed, insitu_bed;
  const auto post = core::run_pipeline(
      post_bed, core::PipelineKind::kPostProcessing, config, options);
  const auto insitu = core::run_pipeline(
      insitu_bed, core::PipelineKind::kInSitu, config, options);
  EXPECT_LT(insitu_bed.clock().now().value(),
            post_bed.clock().now().value());
  EXPECT_TRUE(core::same_frames(post, insitu));
  EXPECT_EQ(post.visualized_steps, config.io_steps());
}

INSTANTIATE_TEST_SUITE_P(Periods, IoPeriodSweep,
                         ::testing::Values(1, 2, 3, 4, 8));

}  // namespace
}  // namespace greenvis
