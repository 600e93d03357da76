#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/attribution.hpp"
#include "src/core/adaptor.hpp"
#include "src/core/batch_runner.hpp"
#include "src/core/cinema.hpp"
#include "src/core/experiment.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/testbed.hpp"
#include "src/core/workload.hpp"
#include "src/util/checksum.hpp"

namespace greenvis::core {
namespace {

CaseStudyConfig fast_case(int io_period) {
  CaseStudyConfig c = case_study(1);
  c.io_period = io_period;
  c.iterations = 4;
  c.vis.width = 64;
  c.vis.height = 64;
  return c;
}

PipelineOptions serial_options() {
  PipelineOptions o;
  o.host_threads = 2;
  o.frame_digests = true;  // the tests below compare frame digests
  return o;
}

TEST(Workload, CaseStudiesMatchPaper) {
  EXPECT_EQ(case_study(1).io_period, 1);
  EXPECT_EQ(case_study(2).io_period, 2);
  EXPECT_EQ(case_study(3).io_period, 8);
  EXPECT_EQ(case_study(1).iterations, 50);
  EXPECT_EQ(case_study(2).problem.nx, 128u);
}

TEST(Workload, IoStepSchedule) {
  const CaseStudyConfig c3 = case_study(3);
  EXPECT_TRUE(c3.is_io_step(0));
  EXPECT_FALSE(c3.is_io_step(1));
  EXPECT_TRUE(c3.is_io_step(8));
  EXPECT_EQ(c3.io_steps(), 7);
  EXPECT_EQ(case_study(1).io_steps(), 50);
  EXPECT_EQ(case_study(2).io_steps(), 25);
}

TEST(Testbed, RunComputeAdvancesClockAndRecords) {
  Testbed bed;
  machine::ActivityRecord a;
  // One second of 16-core work at the calibrated sustained rate.
  a.flops = bed.config().cost.sustained_flops_per_core * 16;
  a.active_cores = 16;
  bed.run_compute(a, stage::kSimulation);
  EXPECT_NEAR(bed.clock().now().value(), 1.0, 1e-9);
  EXPECT_EQ(bed.loads().segment_count(), 1u);
  EXPECT_NEAR(bed.phases().total(stage::kSimulation).value(), 1.0, 1e-9);
}

TEST(Testbed, RunIoRecordsSpanOfBody) {
  Testbed bed;
  bed.run_io(stage::kWrite, 3.0, 0.5,
             [&] { bed.clock().advance(util::Seconds{2.0}); });
  EXPECT_NEAR(bed.phases().total(stage::kWrite).value(), 2.0, 1e-9);
  EXPECT_EQ(bed.loads().segment_count(), 1u);
}

TEST(Pipelines, ProduceIdenticalImages) {
  const CaseStudyConfig config = fast_case(2);
  Testbed post_bed, insitu_bed;
  const PipelineOutput post = run_pipeline(
      post_bed, PipelineKind::kPostProcessing, config, serial_options());
  const PipelineOutput insitu = run_pipeline(
      insitu_bed, PipelineKind::kInSitu, config, serial_options());
  EXPECT_TRUE(same_frames(post, insitu));
  EXPECT_EQ(post.final_field, insitu.final_field);
}

TEST(Pipelines, InSituNeverTouchesTheDisk) {
  const CaseStudyConfig config = fast_case(1);
  Testbed bed;
  (void)run_pipeline(bed, PipelineKind::kInSitu, config, serial_options());
  EXPECT_EQ(bed.device().counters().reads, 0u);
  EXPECT_EQ(bed.device().counters().writes, 0u);
}

TEST(Pipelines, PostProcessingWritesOneFilePerIoStep) {
  const CaseStudyConfig config = fast_case(2);
  Testbed bed;
  (void)run_pipeline(bed, PipelineKind::kPostProcessing, config,
                     serial_options());
  EXPECT_EQ(bed.fs().list_files().size(),
            static_cast<std::size_t>(config.io_steps()));
  EXPECT_GT(bed.device().counters().bytes_written.value(), 0u);
}

TEST(Pipelines, InSituFasterAndPhaseStructureCorrect) {
  const CaseStudyConfig config = fast_case(1);
  Testbed post_bed, insitu_bed;
  (void)run_pipeline(post_bed, PipelineKind::kPostProcessing, config,
                     serial_options());
  (void)run_pipeline(insitu_bed, PipelineKind::kInSitu, config,
                     serial_options());
  EXPECT_LT(insitu_bed.clock().now().value(),
            post_bed.clock().now().value());
  // Post-processing has all four stages; in-situ only two.
  EXPECT_GT(post_bed.phases().total(stage::kWrite).value(), 0.0);
  EXPECT_GT(post_bed.phases().total(stage::kRead).value(), 0.0);
  EXPECT_DOUBLE_EQ(insitu_bed.phases().total(stage::kWrite).value(), 0.0);
  EXPECT_DOUBLE_EQ(insitu_bed.phases().total(stage::kRead).value(), 0.0);
  // Both simulate the same amount.
  EXPECT_NEAR(insitu_bed.phases().total(stage::kSimulation).value(),
              post_bed.phases().total(stage::kSimulation).value(), 1e-6);
}

TEST(Pipelines, FrameDigestsAreOnDemandAndChangeNothingElse) {
  // Case 1 post-processing with and without frame digests: the flag only
  // decides whether image_digests is filled.
  const CaseStudyConfig config = case_study(1);
  const auto profile_json = [&](const PipelineMetrics& m) {
    std::ostringstream os;
    analysis::write_energy_profile_json(os, m.attribution, m.pipeline_name,
                                        m.case_name);
    return os.str();
  };
  const auto disk_bytes = [](Testbed& bed) {
    std::map<std::string, std::vector<std::uint8_t>> files;
    for (const std::string& name : bed.fs().list_files()) {
      std::vector<std::uint8_t> bytes(bed.fs().file_size(name).value());
      const auto fd = bed.fs().open(name);
      (void)bed.fs().pread(fd, bytes, 0, storage::ReadMode::kBuffered);
      bed.fs().close(fd);
      files.emplace(name, std::move(bytes));
    }
    return files;
  };
  PipelineOptions off;
  off.host_threads = 2;
  PipelineOptions on = off;
  on.frame_digests = true;

  const Experiment experiment;
  const PipelineMetrics m_off =
      experiment.run(PipelineKind::kPostProcessing, config, off);
  const PipelineMetrics m_on =
      experiment.run(PipelineKind::kPostProcessing, config, on);
  EXPECT_TRUE(m_off.output.image_digests.empty());
  EXPECT_EQ(m_off.output.visualized_steps, 50);
  EXPECT_EQ(m_on.output.image_digests.size(), 50u);
  EXPECT_FALSE(same_frames(m_off.output, m_off.output));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(m_off.duration.value()),
            std::bit_cast<std::uint64_t>(m_on.duration.value()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(m_off.energy.value()),
            std::bit_cast<std::uint64_t>(m_on.energy.value()));
  EXPECT_EQ(profile_json(m_off), profile_json(m_on));
  EXPECT_EQ(m_off.output.final_field, m_on.output.final_field);

  Testbed bed_off, bed_on;
  (void)run_pipeline(bed_off, PipelineKind::kPostProcessing, config, off);
  (void)run_pipeline(bed_on, PipelineKind::kPostProcessing, config, on);
  const auto files = disk_bytes(bed_off);
  EXPECT_FALSE(files.empty());
  EXPECT_EQ(files, disk_bytes(bed_on));
}

TEST(Pipelines, AsyncStagingOverlapsWritesWithoutChangingResults) {
  // Case study 1 writes every step — the configuration where overlap pays
  // the most. Async must finish strictly sooner on the virtual clock while
  // producing the same images, field, files, and byte accounting.
  CaseStudyConfig config = case_study(1);
  config.iterations = 12;
  config.vis.width = 64;
  config.vis.height = 64;
  Testbed sync_bed, async_bed;
  const PipelineOutput sync_out = run_pipeline(
      sync_bed, PipelineKind::kPostProcessing, config, serial_options());
  const PipelineOutput async_out = run_pipeline(
      async_bed, PipelineKind::kPostProcessingAsync, config, serial_options());
  EXPECT_LT(async_bed.clock().now().value(), sync_bed.clock().now().value());
  EXPECT_TRUE(same_frames(async_out, sync_out));
  EXPECT_EQ(async_out.final_field, sync_out.final_field);
  EXPECT_EQ(async_bed.fs().list_files().size(),
            sync_bed.fs().list_files().size());
  EXPECT_EQ(async_out.snapshot_bytes_written.value(),
            sync_out.snapshot_bytes_written.value());
  EXPECT_EQ(async_out.snapshot_bytes_read.value(),
            sync_out.snapshot_bytes_read.value());
  // The write phase still exists — it just runs concurrently with the
  // simulation instead of extending the critical path.
  EXPECT_GT(async_bed.phases().total(stage::kWrite).value(), 0.0);
  EXPECT_NEAR(async_bed.phases().total(stage::kSimulation).value(),
              sync_bed.phases().total(stage::kSimulation).value(), 1e-9);
}

TEST(Pipelines, AsyncStagingSingleBufferStillDrainsCorrectly) {
  // buffers=1 forces backpressure on every lap — the degenerate ring must
  // still write every file with the right bytes.
  CaseStudyConfig config = fast_case(1);
  PipelineOptions options = serial_options();
  options.stage_buffers = 1;
  Testbed sync_bed, async_bed;
  const PipelineOutput sync_out =
      run_pipeline(sync_bed, PipelineKind::kPostProcessing, config, options);
  const PipelineOutput async_out = run_pipeline(
      async_bed, PipelineKind::kPostProcessingAsync, config, options);
  EXPECT_TRUE(same_frames(async_out, sync_out));
  EXPECT_EQ(async_out.snapshot_bytes_written.value(),
            sync_out.snapshot_bytes_written.value());
  EXPECT_EQ(async_bed.fs().list_files().size(),
            sync_bed.fs().list_files().size());
}

TEST(Pipelines, VisualizedStepCountsFollowPeriod) {
  for (int period : {1, 2, 8}) {
    CaseStudyConfig config = fast_case(period);
    config.iterations = 9;
    Testbed bed;
    const PipelineOutput out =
        run_pipeline(bed, PipelineKind::kInSitu, config, serial_options());
    EXPECT_EQ(out.visualized_steps, config.io_steps());
  }
}

TEST(Experiment, MetricsAreInternallyConsistent) {
  Experiment exp;
  const PipelineMetrics m =
      exp.run(PipelineKind::kInSitu, fast_case(1), serial_options());
  EXPECT_GT(m.duration.value(), 0.0);
  EXPECT_NEAR(m.energy.value(),
              m.average_power.value() * m.trace.duration().value(),
              m.energy.value() * 0.01);
  EXPECT_GE(m.peak_power.value(), m.average_power.value());
  EXPECT_GT(m.efficiency, 0.0);
}

TEST(Experiment, DeterministicRuns) {
  Experiment exp;
  const auto a = exp.run(PipelineKind::kInSitu, fast_case(2), serial_options());
  const auto b = exp.run(PipelineKind::kInSitu, fast_case(2), serial_options());
  EXPECT_DOUBLE_EQ(a.duration.value(), b.duration.value());
  EXPECT_DOUBLE_EQ(a.energy.value(), b.energy.value());
  EXPECT_TRUE(same_frames(a.output, b.output));
}

TEST(Experiment, MetricsIdenticalForAnyPoolSize) {
  // Host parallelism must never leak into the virtual-clock results: a full
  // case-study-1 run produces byte-identical metrics whether the solver and
  // renderer run on 1, 4, or hardware_concurrency threads.
  const Experiment experiment;
  const CaseStudyConfig config = case_study(1);
  for (PipelineKind kind :
       {PipelineKind::kPostProcessing, PipelineKind::kPostProcessingAsync,
        PipelineKind::kInSitu}) {
    PipelineOptions one;
    one.host_threads = 1;
    one.frame_digests = true;
    const PipelineMetrics reference = experiment.run(kind, config, one);
    for (std::size_t threads : {std::size_t{4}, std::size_t{0}}) {
      PipelineOptions options;
      options.host_threads = threads;
      options.frame_digests = true;
      const PipelineMetrics m = experiment.run(kind, config, options);
      EXPECT_EQ(m.duration.value(), reference.duration.value());
      EXPECT_EQ(m.energy.value(), reference.energy.value());
      EXPECT_EQ(m.average_power.value(), reference.average_power.value());
      EXPECT_EQ(m.peak_power.value(), reference.peak_power.value());
      EXPECT_TRUE(same_frames(m.output, reference.output));
      EXPECT_EQ(m.output.final_field, reference.output.final_field);
    }
  }
}

TEST(BatchRunner, ConcurrentBatchMatchesSerialInJobOrder) {
  const Experiment experiment;
  std::vector<BatchJob> jobs;
  for (int period : {1, 2}) {
    BatchJob job;
    job.kind = period == 1 ? PipelineKind::kPostProcessing
                           : PipelineKind::kInSitu;
    job.config = fast_case(period);
    job.options = serial_options();
    jobs.push_back(job);
  }
  const auto serial = BatchRunner(1).run(experiment, jobs);
  const auto concurrent = BatchRunner(4).run(experiment, jobs);
  ASSERT_EQ(serial.size(), concurrent.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].pipeline_name, concurrent[i].pipeline_name);
    EXPECT_EQ(serial[i].duration.value(), concurrent[i].duration.value());
    EXPECT_EQ(serial[i].energy.value(), concurrent[i].energy.value());
    EXPECT_TRUE(same_frames(serial[i].output, concurrent[i].output));
  }
}

TEST(BatchRunner, TestbedOverrideAppliesPerJob) {
  const Experiment experiment;  // nominal 2.4 GHz base
  BatchJob nominal;
  nominal.config = fast_case(1);
  nominal.options = serial_options();
  BatchJob slow = nominal;
  TestbedConfig bed;
  bed.frequency_ghz = 1.2;
  slow.testbed = bed;
  const auto metrics = BatchRunner(2).run(experiment, {nominal, slow});
  EXPECT_GT(metrics[1].duration.value(), metrics[0].duration.value());
}

TEST(BatchRunner, JobExceptionSurfacesAfterDrain) {
  const Experiment experiment;
  BatchJob good;
  good.config = fast_case(1);
  good.options = serial_options();
  BatchJob bad = good;
  bad.config.problem.nx = 1;  // violates the solver's nx >= 3 contract
  EXPECT_THROW((void)BatchRunner(2).run(experiment, {good, bad}),
               util::ContractViolation);
}

TEST(Experiment, StageRunsProduceIoBoundPower) {
  Experiment exp;
  CaseStudyConfig config = fast_case(1);
  const StageRun wr = exp.run_write_stage(config, 6);
  const StageRun rd = exp.run_read_stage(config, 6);
  EXPECT_GT(wr.duration.value(), 0.0);
  EXPECT_GT(rd.duration.value(), 0.0);
  // I/O stages sit a little above the idle floor (Table II: ~115 vs ~105 W),
  // far below the simulation's ~150 W.
  EXPECT_GT(wr.average_dynamic_power.value(), 2.0);
  EXPECT_LT(wr.average_dynamic_power.value(), 20.0);
  EXPECT_GT(rd.average_dynamic_power.value(), 2.0);
  EXPECT_LT(rd.average_dynamic_power.value(), 20.0);
}

TEST(Pipelines, SampledVariantWritesLessAndErrsBounded) {
  const CaseStudyConfig config = fast_case(1);
  Testbed exact_bed, sampled_bed;
  const auto exact = run_pipeline(exact_bed, PipelineKind::kPostProcessing,
                                  config, serial_options(), Sampling{1});
  const auto sampled = run_pipeline(sampled_bed, PipelineKind::kPostProcessing,
                                    config, serial_options(), Sampling{4});
  EXPECT_DOUBLE_EQ(exact.mean_rms_error, 0.0);
  EXPECT_GT(sampled.mean_rms_error, 0.0);
  EXPECT_LT(sampled.snapshot_bytes_written.value(),
            exact.snapshot_bytes_written.value() / 8);
  EXPECT_LT(sampled_bed.clock().now().value(),
            exact_bed.clock().now().value());
}

TEST(Pipelines, CompressedVariantLosslessMatchesExactImages) {
  const CaseStudyConfig config = fast_case(2);
  Testbed plain_bed, comp_bed;
  const auto plain = run_pipeline(plain_bed, PipelineKind::kPostProcessing,
                                  config, serial_options());
  const auto comp = run_pipeline(comp_bed, PipelineKind::kPostProcessing,
                                 config, serial_options(), Predictive{});
  EXPECT_DOUBLE_EQ(comp.max_abs_error, 0.0);
  EXPECT_TRUE(same_frames(comp, plain));
}

TEST(Pipelines, CompressedVariantLossyBoundedAndSmaller) {
  const CaseStudyConfig config = fast_case(2);
  Testbed bed;
  const auto out = run_pipeline(bed, PipelineKind::kPostProcessing, config,
                                serial_options(), Predictive{0.01});
  EXPECT_LE(out.max_abs_error, 0.01 * (1.0 + 1e-9));
  EXPECT_GT(out.mean_compression_ratio, 2.0);
}

TEST(Pipelines, InSituRejectsSnapshotTransforms) {
  Testbed bed;
  EXPECT_THROW((void)run_pipeline(bed, PipelineKind::kInSitu, fast_case(1),
                                  serial_options(), Sampling{2}),
               util::ContractViolation);
}

TEST(Pipelines, OnlyTheConfigCodecPathValidatesSnapshotCodec) {
  // Delta with tolerance 0 is an invalid codec, but only runs that encode
  // with it may reject it.
  CaseStudyConfig config = fast_case(2);
  config.snapshot_codec.kind = codec::Kind::kDelta;
  config.snapshot_codec.tolerance = 0.0;
  for (const PipelineKind kind :
       {PipelineKind::kPostProcessing, PipelineKind::kPostProcessingAsync}) {
    Testbed bed;
    EXPECT_THROW((void)run_pipeline(bed, kind, config, serial_options()),
                 util::ContractViolation);
  }
  Testbed insitu_bed, sampled_bed, predictive_bed;
  EXPECT_EQ(run_pipeline(insitu_bed, PipelineKind::kInSitu, config,
                         serial_options())
                .visualized_steps,
            2);
  EXPECT_EQ(run_pipeline(sampled_bed, PipelineKind::kPostProcessing, config,
                         serial_options(), Sampling{2})
                .visualized_steps,
            2);
  EXPECT_EQ(run_pipeline(predictive_bed, PipelineKind::kPostProcessing, config,
                         serial_options(), Predictive{})
                .visualized_steps,
            2);
}

// The sampling and predictive transforms, pinned exactly: virtual clock
// bits, bytes written, quality fields and an FNV-1a over the image digests
// for case 1 (4 iterations, every step written).
TEST(Pipelines, TransformResultsPinned) {
  struct Pinned {
    SnapshotTransform transform;
    const char* name;
    std::uint64_t clock_bits;
    std::uint64_t bytes_written;
    std::uint64_t rms_bits;
    std::uint64_t max_err_bits;
    std::uint64_t ratio_bits;
    std::uint64_t digests_fnv;
  };
  const Pinned cases[] = {
      {Sampling{4}, "Post-processing (sampled 1/4)", 0x401ffd89bdb9a2beULL,
       32832, 0x4014a1938e68d1a2ULL, 0, 0, 0x338f8176b85dbc77ULL},
      {Predictive{}, "Post-processing (lossless compression)",
       0x4031af2dd3d051b4ULL, 476025, 0, 0, 0x3ff23c48bf69ca5fULL,
       0x7fcc1f91ae3eceabULL},
      {Predictive{0.01}, "Post-processing (lossy, eb=0.010000)",
       0x40217bc83fbcc5bbULL, 66800, 0, 0x3f84658c52553a70ULL,
       0x401f66046a21ce28ULL, 0x8dc991b76c381855ULL},
  };
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const Pinned& p : cases) {
    Testbed bed;
    const PipelineOutput out = run_pipeline(
        bed, PipelineKind::kPostProcessing, fast_case(1), serial_options(),
        p.transform);
    EXPECT_EQ(out.pipeline_name, p.name);
    EXPECT_EQ(bits(bed.clock().now().value()), p.clock_bits) << p.name;
    EXPECT_EQ(out.snapshot_bytes_written.value(), p.bytes_written) << p.name;
    EXPECT_EQ(bits(out.mean_rms_error), p.rms_bits) << p.name;
    EXPECT_EQ(bits(out.max_abs_error), p.max_err_bits) << p.name;
    EXPECT_EQ(bits(out.mean_compression_ratio), p.ratio_bits) << p.name;
    const auto& digests = out.image_digests;
    ASSERT_EQ(digests.size(), static_cast<std::size_t>(out.visualized_steps))
        << p.name;
    EXPECT_EQ(util::fnv1a64(std::span<const std::uint8_t>(
                  reinterpret_cast<const std::uint8_t*>(digests.data()),
                  digests.size() * sizeof(std::uint64_t))),
              p.digests_fnv)
        << p.name;
  }
}

// ---------- in-situ adaptor ----------

TEST(Adaptor, PeriodicTriggerMatchesPipelineSchedule) {
  Testbed bed;
  util::ThreadPool pool(2);
  vis::VisConfig vis_config;
  vis_config.width = 32;
  vis_config.height = 32;
  InSituAdaptor adaptor(bed, vis_config, &pool);
  adaptor.add_trigger(std::make_unique<PeriodicTrigger>(3));
  util::Field2D field(16, 16, 1.0);
  for (int step = 0; step < 10; ++step) {
    EXPECT_EQ(adaptor.process(step, field), step % 3 == 0);
  }
  EXPECT_EQ(adaptor.steps_offered(), 10);
  EXPECT_EQ(adaptor.steps_rendered(), 4);
}

TEST(Adaptor, ChangeTriggerSkipsQuiescence) {
  ChangeTrigger trigger(1.0);
  util::Field2D f(8, 8, 0.0);
  EXPECT_TRUE(trigger.fires(0, f));   // first offer always renders
  EXPECT_FALSE(trigger.fires(1, f));  // unchanged
  util::Field2D g(8, 8, 5.0);
  EXPECT_TRUE(trigger.fires(2, g));   // big drift
  EXPECT_FALSE(trigger.fires(3, g));  // settled at the new state
}

TEST(Adaptor, RequiresAtLeastOneTrigger) {
  Testbed bed;
  vis::VisConfig vis_config;
  InSituAdaptor adaptor(bed, vis_config, nullptr);
  util::Field2D field(8, 8);
  EXPECT_THROW((void)adaptor.process(0, field), util::ContractViolation);
}

TEST(Adaptor, ChargesTestbedForRenderedStepsOnly) {
  Testbed dense_bed, sparse_bed;
  vis::VisConfig vis_config;
  vis_config.width = 32;
  vis_config.height = 32;
  util::Field2D field(16, 16, 1.0);
  InSituAdaptor dense(dense_bed, vis_config, nullptr);
  dense.add_trigger(std::make_unique<PeriodicTrigger>(1));
  InSituAdaptor sparse(sparse_bed, vis_config, nullptr);
  sparse.add_trigger(std::make_unique<PeriodicTrigger>(10));
  for (int step = 0; step < 10; ++step) {
    (void)dense.process(step, field);
    (void)sparse.process(step, field);
  }
  EXPECT_GT(dense_bed.clock().now().value(),
            5.0 * sparse_bed.clock().now().value());
}

// ---------- Cinema image database ----------

util::Field3D cinema_field() {
  util::Field3D f(16, 16, 16, 0.0);
  for (std::size_t k = 5; k < 11; ++k) {
    for (std::size_t j = 5; j < 11; ++j) {
      for (std::size_t i = 5; i < 11; ++i) {
        f.at(i, j, k) = 80.0;
      }
    }
  }
  return f;
}

CinemaConfig small_cinema() {
  CinemaConfig config = CinemaConfig::orbit(4);
  config.volume.width = 32;
  config.volume.height = 32;
  config.volume.tf.lo = 0.0;
  config.volume.tf.hi = 100.0;
  return config;
}

TEST(Cinema, OrbitSpansAzimuths) {
  const CinemaConfig config = CinemaConfig::orbit(8, 30.0);
  ASSERT_EQ(config.views.size(), 8u);
  EXPECT_DOUBLE_EQ(config.views[0].azimuth_deg, 0.0);
  EXPECT_DOUBLE_EQ(config.views[4].azimuth_deg, 180.0);
  EXPECT_DOUBLE_EQ(config.views[3].elevation_deg, 30.0);
}

TEST(Cinema, ImagesRoundTripBitExactThroughStorage) {
  Testbed bed;
  util::ThreadPool pool(2);
  const CinemaConfig config = small_cinema();
  const util::Field3D field = cinema_field();

  CinemaWriter writer(bed, config, &pool);
  writer.write_step(0, field);
  writer.write_step(1, field);
  writer.finalize();
  EXPECT_EQ(writer.images_written(), 8u);

  // What the browser loads post-hoc is exactly what was rendered in situ.
  vis::VolumeConfig direct = config.volume;
  direct.camera = config.views[2];
  const auto expected = vis::render_volume(field, direct, &pool).serialize();
  io::TimestepReader reader(bed.fs(), config.dataset);
  EXPECT_EQ(reader.read_step(cinema_key(1, 2, config.views.size())),
            expected);
}

TEST(Cinema, DifferentViewsDifferentImages) {
  Testbed bed;
  util::ThreadPool pool(2);
  const CinemaConfig config = small_cinema();
  CinemaWriter writer(bed, config, &pool);
  // Asymmetric field so views differ.
  util::Field3D field = cinema_field();
  field.at(2, 8, 8) = 100.0;
  field.at(3, 8, 8) = 100.0;
  writer.write_step(0, field);
  io::TimestepReader reader(bed.fs(), config.dataset);
  const std::size_t views = config.views.size();
  EXPECT_NE(reader.read_step(cinema_key(0, 0, views)),
            reader.read_step(cinema_key(0, 1, views)));
}

TEST(Cinema, CatalogEnablesDiscovery) {
  Testbed bed;
  util::ThreadPool pool(2);
  const CinemaConfig config = small_cinema();
  CinemaWriter writer(bed, config, &pool);
  writer.write_step(0, cinema_field());
  writer.finalize();
  const auto catalog = io::DatasetCatalog::load(bed.fs(), config.dataset);
  EXPECT_EQ(catalog.size(), 4u);  // one entry per view
  EXPECT_EQ(catalog.total_payload_bytes(), writer.total_bytes().value());
}

TEST(Cinema, ImageDatabaseSmallerThanRawFields) {
  // The Cinema premise: V small images beat one raw 3-D field.
  const util::Field3D field(64, 64, 64);
  const CinemaConfig config = small_cinema();  // 4 views of 32x32
  const std::size_t images_bytes =
      config.views.size() * (16 + 32 * 32 * 3);
  EXPECT_LT(images_bytes * 10, field.serialized_bytes());
}

TEST(Testbed, PackageCapThrottlesAndCapsPower) {
  machine::ActivityRecord hot;
  hot.flops = 1e9;
  hot.active_cores = 16;

  TestbedConfig capped_config;
  capped_config.package_cap = util::Watts{50.0};
  Testbed capped(capped_config);
  EXPECT_LT(capped.governed_frequency(hot), 2.4);

  Testbed uncapped;
  EXPECT_DOUBLE_EQ(uncapped.governed_frequency(hot), 2.4);

  // A generous cap admits full speed.
  TestbedConfig loose_config;
  loose_config.package_cap = util::Watts{500.0};
  Testbed loose(loose_config);
  EXPECT_DOUBLE_EQ(loose.governed_frequency(hot), 2.4);

  // Light work fits under the cap even when heavy work does not.
  machine::ActivityRecord light;
  light.flops = 1e6;
  light.active_cores = 1;
  EXPECT_DOUBLE_EQ(capped.governed_frequency(light), 2.4);
}

TEST(Testbed, RejectsNonFiniteOrNegativeCapAndIoClock) {
  for (const double bad : {std::nan(""), -5.0, HUGE_VAL}) {
    TestbedConfig cap;
    cap.package_cap = util::Watts{bad};
    EXPECT_THROW(Testbed{cap}, util::ContractViolation) << bad;
    TestbedConfig io;
    io.io_frequency_ghz = bad;
    EXPECT_THROW(Testbed{io}, util::ContractViolation) << bad;
  }
}

TEST(Experiment, PackageCapLowersPeakRaisesTime) {
  CaseStudyConfig config = fast_case(2);
  TestbedConfig capped;
  capped.package_cap = util::Watts{55.0};
  const Experiment exp_capped(capped);
  const Experiment exp_free;
  const auto free_run =
      exp_free.run(PipelineKind::kInSitu, config, serial_options());
  const auto capped_run =
      exp_capped.run(PipelineKind::kInSitu, config, serial_options());
  EXPECT_LT(capped_run.peak_power.value(), free_run.peak_power.value());
  EXPECT_GT(capped_run.duration.value(), free_run.duration.value());
}

TEST(Experiment, DvfsReducesComputePowerButSlowsIt) {
  CaseStudyConfig config = fast_case(8);
  TestbedConfig nominal;
  TestbedConfig slow;
  slow.frequency_ghz = 1.2;
  const Experiment exp_fast(nominal), exp_slow(slow);
  const auto fast = exp_fast.run(PipelineKind::kInSitu, config,
                                 serial_options());
  const auto slowed = exp_slow.run(PipelineKind::kInSitu, config,
                                   serial_options());
  EXPECT_GT(slowed.duration.value(), 1.5 * fast.duration.value());
  EXPECT_LT(slowed.peak_power.value(), fast.peak_power.value());
}

}  // namespace
}  // namespace greenvis::core
