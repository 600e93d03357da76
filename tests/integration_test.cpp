// Cross-module integration: pipelines + meters + analysis working together
// on scaled-down workloads.
#include <gtest/gtest.h>

#include "src/analysis/metrics.hpp"
#include "src/analysis/whatif.hpp"
#include "src/core/experiment.hpp"
#include "src/storage/layout.hpp"

namespace greenvis {
namespace {

core::CaseStudyConfig small_case(int period, int iterations = 10) {
  core::CaseStudyConfig c = core::case_study(1);
  c.io_period = period;
  c.iterations = iterations;
  c.vis.width = 64;
  c.vis.height = 64;
  return c;
}

core::PipelineOptions opts() {
  core::PipelineOptions o;
  o.host_threads = 2;
  return o;
}

TEST(Integration, FullComparisonHasPaperShape) {
  const core::Experiment exp;
  const auto config = small_case(1);
  core::PipelineOptions options = opts();
  options.frame_digests = true;
  const auto post =
      exp.run(core::PipelineKind::kPostProcessing, config, options);
  const auto insitu = exp.run(core::PipelineKind::kInSitu, config, options);

  // Identical science.
  EXPECT_TRUE(core::same_frames(post.output, insitu.output));

  const auto c = analysis::compare(post, insitu);
  EXPECT_GT(c.time_reduction(), 0.0);
  EXPECT_GT(c.energy_savings(), 0.0);
  EXPECT_GT(c.avg_power_increase(), 0.0);
  // Peak power roughly equal (both peak during simulation).
  EXPECT_NEAR(c.peak_power_insitu.value(), c.peak_power_post.value(),
              0.06 * c.peak_power_post.value());
}

TEST(Integration, TimelineCoversWholeRun) {
  core::Testbed bed;
  const auto config = small_case(2);
  (void)core::run_pipeline(bed, core::PipelineKind::kPostProcessing, config,
                           opts());
  const double recorded = bed.phases().total_recorded().value();
  const double total = bed.clock().now().value();
  // Phases account for essentially all wall time (no hidden gaps).
  EXPECT_NEAR(recorded, total, total * 0.01);
}

TEST(Integration, TraceEnergyMatchesPhaseEnergies) {
  const core::Experiment exp;
  const auto m =
      exp.run(core::PipelineKind::kPostProcessing, small_case(2), opts());
  const auto stats = analysis::phase_power_stats(m.trace, m.timeline);
  double sum = 0.0;
  for (const auto& [name, ps] : stats) {
    sum += ps.energy.value();
  }
  EXPECT_NEAR(sum, m.energy.value(), m.energy.value() * 1e-6);
}

TEST(Integration, SimulationPhaseHottestReadColdest) {
  const core::Experiment exp;
  const auto m =
      exp.run(core::PipelineKind::kPostProcessing, small_case(1), opts());
  const auto stats = analysis::phase_power_stats(m.trace, m.timeline);
  ASSERT_TRUE(stats.contains(core::stage::kSimulation));
  ASSERT_TRUE(stats.contains(core::stage::kRead));
  EXPECT_GT(stats.at(core::stage::kSimulation).average_power.value(),
            stats.at(core::stage::kRead).average_power.value() + 20.0);
}

TEST(Integration, SavingsBreakdownStaticDominates) {
  const core::Experiment exp;
  const auto config = small_case(1, 16);
  const auto post =
      exp.run(core::PipelineKind::kPostProcessing, config, opts());
  const auto insitu = exp.run(core::PipelineKind::kInSitu, config, opts());
  const auto wr = exp.run_write_stage(config, 8);
  const util::Watts io_dyn = wr.average_dynamic_power;
  const auto b = analysis::savings_breakdown(post, insitu, io_dyn);
  EXPECT_GT(b.total_savings.value(), 0.0);
  EXPECT_GT(b.static_fraction(), 0.75);
  EXPECT_GT(b.dynamic_fraction(), 0.0);
}

TEST(Integration, ReorganizationRecoversReadPerformance) {
  // End-to-end Sec. V-D demonstration on the storage stack: a fragmented
  // dataset's cold read cost drops sharply after reorganization.
  core::Testbed bed;
  auto& fs = bed.fs();
  const auto fd = fs.create("sim_output.bin");
  std::vector<std::uint8_t> payload(512 * 1024, 0x5A);
  fs.write(fd, payload, storage::WriteMode::kBuffered);
  fs.fsync(fd);
  fs.close(fd);
  EXPECT_GT(fs.fragmentation("sim_output.bin"), 0.5);

  auto cold_scan = [&] {
    fs.drop_caches();
    const double t0 = bed.clock().now().value();
    const auto h = fs.open("sim_output.bin");
    for (std::uint64_t off = 0; off < payload.size(); off += 4096) {
      fs.pread_timed(h, off, 4096, storage::ReadMode::kDirect);
    }
    fs.close(h);
    return bed.clock().now().value() - t0;
  };
  const double before = cold_scan();
  storage::layout::Reorganizer reorg(fs);
  const auto report = reorg.reorganize("sim_output.bin");
  const double after = cold_scan();
  EXPECT_LT(after, before / 3.0);
  EXPECT_GT(report.duration.value(), 0.0);
  EXPECT_LT(report.duration.value(), 2.0 * before);
}

TEST(Integration, CsvArtifactsAreWritable) {
  const core::Experiment exp;
  const auto m = exp.run(core::PipelineKind::kInSitu, small_case(2), opts());
  std::ostringstream trace_csv, timeline_csv;
  m.trace.write_csv(trace_csv);
  m.timeline.write_csv(timeline_csv);
  EXPECT_GT(trace_csv.str().size(), 100u);
  EXPECT_GT(timeline_csv.str().size(), 50u);
}

}  // namespace
}  // namespace greenvis
