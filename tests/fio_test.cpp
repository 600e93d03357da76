#include <gtest/gtest.h>

#include "src/fio/runner.hpp"

namespace greenvis::fio {
namespace {

// Scaled-down jobs so each test runs in a fraction of a second.
FioJob small_job(RwMode mode) {
  FioJob job = table3_job(mode);
  job.total_size = util::mebibytes(64);
  return job;
}

TEST(FioJob, Table3Defaults) {
  const FioJob seq = table3_job(RwMode::kSequentialRead);
  EXPECT_EQ(seq.total_size.value(), util::gibibytes(4).value());
  EXPECT_EQ(seq.block_size.value(), util::mebibytes(1).value());
  const FioJob rnd = table3_job(RwMode::kRandomRead);
  EXPECT_EQ(rnd.block_size.value(), util::kibibytes(16).value());
  EXPECT_FALSE(rnd.end_fsync);
}

TEST(FioRunner, SequentialReadStreamsNearMediaRate) {
  const FioRunner runner;
  const auto out = runner.run(small_job(RwMode::kSequentialRead));
  const double mbps = out.result.bytes_transferred.megabytes() /
                      out.result.execution_time.value();
  // 114 MiB/s nominal +/- zoning and syscall overhead.
  EXPECT_GT(mbps, 90.0);
  EXPECT_LT(mbps, 145.0);
}

TEST(FioRunner, RandomReadOrdersOfMagnitudeSlower) {
  const FioRunner runner;
  const auto seq = runner.run(small_job(RwMode::kSequentialRead));
  const auto rnd = runner.run(small_job(RwMode::kRandomRead));
  EXPECT_GT(rnd.result.execution_time.value(),
            20.0 * seq.result.execution_time.value());
}

TEST(FioRunner, SequentialWriteFasterThanSequentialRead) {
  const FioRunner runner;
  const auto rd = runner.run(small_job(RwMode::kSequentialRead));
  const auto wr = runner.run(small_job(RwMode::kSequentialWrite));
  EXPECT_LT(wr.result.execution_time.value(),
            rd.result.execution_time.value());
}

TEST(FioRunner, RandomWriteAbsorbedByCaches) {
  const FioRunner runner;
  const auto rnd_wr = runner.run(small_job(RwMode::kRandomWrite));
  const auto rnd_rd = runner.run(small_job(RwMode::kRandomRead));
  // Buffered random writes complete orders of magnitude faster than cold
  // random reads — the page cache and elevator absorb them.
  EXPECT_LT(rnd_wr.result.execution_time.value(),
            rnd_rd.result.execution_time.value() / 10.0);
}

TEST(FioRunner, SequentialReadDrawsTransferPower) {
  const FioRunner runner;
  // Long enough that 1 Hz sampling windows are fully covered by the job.
  FioJob job = table3_job(RwMode::kSequentialRead);
  job.total_size = util::mebibytes(512);
  const auto out = runner.run(job);
  // Disk dynamic power close to the read-transfer rail (13.5 W).
  EXPECT_GT(out.result.disk_dynamic_power.value(), 10.0);
  EXPECT_LE(out.result.disk_dynamic_power.value(), 14.5);
}

TEST(FioRunner, RandomReadDrawsLittleDynamicPower) {
  const FioRunner runner;
  const auto out = runner.run(small_job(RwMode::kRandomRead));
  // Mostly waiting on rotation: Table III reports only 2.5 W.
  EXPECT_LT(out.result.disk_dynamic_power.value(), 6.0);
}

TEST(FioRunner, EnergyEqualsPowerTimesTime) {
  const FioRunner runner;
  const auto out = runner.run(small_job(RwMode::kSequentialWrite));
  EXPECT_NEAR(out.result.full_system_energy.value(),
              out.result.full_system_power.value() *
                  out.result.execution_time.value(),
              1e-6);
}

TEST(FioRunner, DeterministicAcrossRuns) {
  const FioRunner runner;
  const auto a = runner.run(small_job(RwMode::kRandomRead));
  const auto b = runner.run(small_job(RwMode::kRandomRead));
  EXPECT_DOUBLE_EQ(a.result.execution_time.value(),
                   b.result.execution_time.value());
  EXPECT_DOUBLE_EQ(a.result.full_system_energy.value(),
                   b.result.full_system_energy.value());
}

TEST(FioRunner, SsdCollapsesRandomPenalty) {
  FioRunnerConfig hdd_config;
  FioRunnerConfig ssd_config;
  ssd_config.device = DeviceKind::kSsd;
  const FioRunner hdd_runner(hdd_config), ssd_runner(ssd_config);
  const auto hdd_rnd = hdd_runner.run(small_job(RwMode::kRandomRead));
  const auto ssd_rnd = ssd_runner.run(small_job(RwMode::kRandomRead));
  EXPECT_LT(ssd_rnd.result.execution_time.value(),
            hdd_rnd.result.execution_time.value() / 20.0);
}

TEST(FioRunner, NvramFasterThanSsd) {
  FioRunnerConfig ssd_config;
  ssd_config.device = DeviceKind::kSsd;
  FioRunnerConfig nv_config;
  nv_config.device = DeviceKind::kNvram;
  const auto ssd = FioRunner(ssd_config).run(small_job(RwMode::kRandomRead));
  const auto nv = FioRunner(nv_config).run(small_job(RwMode::kRandomRead));
  EXPECT_LT(nv.result.execution_time.value(),
            ssd.result.execution_time.value());
}

TEST(FioRunner, RejectsMisalignedJob) {
  const FioRunner runner;
  FioJob bad = small_job(RwMode::kSequentialRead);
  bad.total_size = util::Bytes{bad.block_size.value() * 3 + 1};
  EXPECT_THROW((void)runner.run(bad), util::ContractViolation);
}

TEST(FioRunner, RejectsAJobBeyondTheContiguousRegionBeforeLayout) {
  // The job's file is laid out contiguously; past the region the layout
  // would run for seconds and then trip the filesystem's allocator
  // invariant. The runner refuses the job first, naming both sizes.
  for (const DeviceKind device :
       {DeviceKind::kHdd, DeviceKind::kSsd, DeviceKind::kNvram}) {
    FioRunnerConfig config;
    config.device = device;
    for (const RwMode mode :
         {RwMode::kSequentialRead, RwMode::kSequentialWrite}) {
      FioJob job = table3_job(mode);
      job.total_size = util::mebibytes(1000000);
      try {
        (void)FioRunner(config).run(job);
        FAIL() << "a 1000000 MiB job ran";
      } catch (const util::ContractViolation& e) {
        const std::string what = e.what();
        EXPECT_EQ(what.rfind("fio job of 1000000 MiB does not fit the "
                             "device's ",
                             0),
                  0u)
            << what;
        EXPECT_NE(what.find(" MiB contiguous region"), std::string::npos)
            << what;
        EXPECT_EQ(what.find("failed:"), std::string::npos) << what;
      }
    }
  }
}

}  // namespace
}  // namespace greenvis::fio
