// Fault-injection tests: degraded disks slow the pipeline honestly, and
// hard errors surface loudly through every layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/io/dataset.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/registry.hpp"
#include "src/sched/staging.hpp"
#include "src/storage/async_device.hpp"
#include "src/storage/fault.hpp"
#include "src/util/field.hpp"
#include "src/storage/filesystem.hpp"
#include "src/storage/hdd.hpp"
#include "src/trace/clock.hpp"

namespace greenvis::storage {
namespace {

TEST(FaultyDisk, HealthyConfigIsTransparent) {
  HddModel inner{HddParams{}};
  FaultyDisk disk(inner, FaultConfig{});
  const Seconds t =
      disk.service(IoRequest{IoKind::kRead, 4096, 4096}, Seconds{0.0});
  EXPECT_GT(t.value(), 0.0);
  EXPECT_EQ(disk.retries_injected(), 0u);
  EXPECT_EQ(disk.hard_errors(), 0u);
}

TEST(FaultyDisk, RetriesCostFullRotations) {
  HddModel healthy_inner{HddParams{}};
  FaultConfig always_retry;
  always_retry.retry_probability = 1.0;
  always_retry.retries = 2;
  HddModel faulty_inner{HddParams{}};
  FaultyDisk faulty(faulty_inner, always_retry);

  const IoRequest req{IoKind::kRead, util::gibibytes(10).value(), 4096};
  const double healthy = healthy_inner.service(req, Seconds{0.0}).value();
  const double degraded = faulty.service(req, Seconds{0.0}).value();
  // Two retries ~ two extra rotations (8.33 ms each) on this drive.
  EXPECT_GT(degraded, healthy + 0.012);
  EXPECT_EQ(faulty.retries_injected(), 2u);
}

TEST(FaultyDisk, BadRangeThrowsOnReadAfterConsumingTime) {
  HddModel inner{HddParams{}};
  FaultConfig config;
  config.bad_ranges = {{util::gibibytes(1).value(), 8192}};
  config.retries = 3;
  FaultyDisk disk(inner, config);

  EXPECT_THROW(
      (void)disk.service(
          IoRequest{IoKind::kRead, util::gibibytes(1).value() + 100, 512},
          Seconds{0.0}),
      DeviceError);
  EXPECT_EQ(disk.hard_errors(), 1u);
  // The failed attempts still spun the platter.
  EXPECT_GT(inner.activity().totals().total().value(), 0.0);
}

TEST(FaultyDisk, WritesToBadRangeSucceed) {
  HddModel inner{HddParams{}};
  FaultConfig config;
  config.bad_ranges = {{0, 1u << 20}};
  FaultyDisk disk(inner, config);
  EXPECT_NO_THROW(
      (void)disk.service(IoRequest{IoKind::kWrite, 4096, 4096}, Seconds{0.0}));
}

TEST(FaultyDisk, ReadsOutsideBadRangesFine) {
  HddModel inner{HddParams{}};
  FaultConfig config;
  config.bad_ranges = {{0, 4096}};
  FaultyDisk disk(inner, config);
  EXPECT_NO_THROW((void)disk.service(
      IoRequest{IoKind::kRead, util::mebibytes(1).value(), 4096},
      Seconds{0.0}));
}

TEST(FaultyDisk, DeterministicInjection) {
  FaultConfig config;
  config.retry_probability = 0.3;
  HddModel inner_a{HddParams{}}, inner_b{HddParams{}};
  FaultyDisk a(inner_a, config), b(inner_b, config);
  Seconds ta{0.0}, tb{0.0};
  for (int k = 0; k < 50; ++k) {
    const IoRequest req{IoKind::kRead,
                        static_cast<std::uint64_t>(k) * (1u << 20), 4096};
    ta = a.service(req, ta);
    tb = b.service(req, tb);
  }
  EXPECT_DOUBLE_EQ(ta.value(), tb.value());
  EXPECT_EQ(a.retries_injected(), b.retries_injected());
  EXPECT_GT(a.retries_injected(), 0u);
}

TEST(FaultyDisk, DegradedDiskSlowsColdReadsThroughFilesystem) {
  auto cold_read_time = [](double retry_probability) {
    trace::VirtualClock clock;
    HddModel inner{HddParams{}};
    FaultConfig config;
    config.retry_probability = retry_probability;
    config.retries = 2;
    FaultyDisk disk(inner, config);
    FsParams params;
    params.allocation = AllocationPolicy::kAged;
    Filesystem fs(disk, clock, params);
    const auto fd = fs.create("x.bin");
    std::vector<std::uint8_t> data(131072, 0x3C);
    fs.write(fd, data, WriteMode::kBuffered);
    fs.fsync(fd);
    fs.drop_caches();
    const double t0 = clock.now().value();
    for (std::uint64_t off = 0; off < data.size(); off += 4096) {
      fs.pread_timed(fd, off, 4096, ReadMode::kDirect);
    }
    fs.close(fd);
    return clock.now().value() - t0;
  };
  EXPECT_GT(cold_read_time(0.5), 1.15 * cold_read_time(0.0));
}

TEST(FaultyDisk, HardErrorSurfacesThroughDatasetLayer) {
  trace::VirtualClock clock;
  HddModel inner{HddParams{}};
  FaultyDisk disk(inner, FaultConfig{});
  Filesystem fs(disk, clock, FsParams{});

  io::DatasetConfig dataset;
  io::TimestepWriter writer(fs, dataset);
  util::Field2D field(32, 32, 7.0);
  writer.write_step(0, field.serialize());
  fs.drop_caches();

  // The media degrades under the written frame; the cold read must fail
  // loudly all the way up through the dataset layer — never return garbage.
  const auto extents = fs.extents(io::step_file_name(dataset, 0));
  ASSERT_FALSE(extents.empty());
  disk.mark_bad(extents.front().device_offset, 4096);
  io::TimestepReader reader(fs, dataset);
  EXPECT_THROW((void)reader.read_step(0), DeviceError);
}

// After a read on `fs` threw DeviceError, the filesystem clock stands at or
// past the failed request's completion, and a read of a healthy file
// succeeds and starts no earlier than that.
void expect_next_read_follows_the_fault(Filesystem& fs, FaultyDisk& disk,
                                        ReadMode mode) {
  const auto& segments = disk.activity().segments();
  ASSERT_FALSE(segments.empty());
  const Seconds failed_end = segments.back().end;
  const std::size_t logged = segments.size();
  EXPECT_GE(fs.clock().now().value(), failed_end.value());

  const auto fd = fs.create("good.bin");
  const std::vector<std::uint8_t> data(8192, 0xC3);
  fs.write(fd, data, WriteMode::kSync);
  fs.drop_caches();
  std::vector<std::uint8_t> back(data.size());
  EXPECT_EQ(fs.pread(fd, back, 0, mode), data.size());
  EXPECT_EQ(back, data);
  ASSERT_GT(segments.size(), logged);
  for (std::size_t i = logged; i < segments.size(); ++i) {
    EXPECT_GE(segments[i].begin.value(), failed_end.value())
        << "segment " << i;
  }
}

TEST(FaultyDisk, DirectReadFaultIsCountedByTheQueue) {
  struct ObsGuard {
    ~ObsGuard() { obs::set_enabled(false); }
  } guard;
  trace::VirtualClock clock;
  HddModel inner{HddParams{}};
  FaultyDisk disk(inner, FaultConfig{});
  Filesystem fs(disk, clock, FsParams{});
  const auto fd = fs.create("bad.bin");
  fs.write(fd, std::vector<std::uint8_t>(4096, 0x5A), WriteMode::kBuffered);
  fs.fsync(fd);  // the metadata block stays resident: one device read below
  disk.mark_bad(fs.extents("bad.bin").front().device_offset, 4096);

  obs::set_enabled(true);
  auto& registry = obs::Registry::global();
  const std::uint64_t completed0 =
      registry.counter("storage.async.completed").value();
  const std::uint64_t errors0 =
      registry.counter("storage.async.errors").value();
  std::vector<std::uint8_t> buf(4096);
  EXPECT_THROW((void)fs.pread(fd, buf, 0, ReadMode::kDirect), DeviceError);
  EXPECT_EQ(disk.hard_errors(), 1u);
  EXPECT_EQ(registry.counter("storage.async.completed").value(),
            completed0 + 1);
  EXPECT_EQ(registry.counter("storage.async.errors").value(), errors0 + 1);
  expect_next_read_follows_the_fault(fs, disk, ReadMode::kDirect);
}

TEST(FaultyDisk, BufferedReadFaultLeavesTheClockAtItsCompletion) {
  trace::VirtualClock clock;
  HddModel inner{HddParams{}};
  FaultyDisk disk(inner, FaultConfig{});
  Filesystem fs(disk, clock, FsParams{});
  const auto fd = fs.create("bad.bin");
  fs.write(fd, std::vector<std::uint8_t>(4096, 0x5A), WriteMode::kBuffered);
  fs.drop_caches();
  disk.mark_bad(fs.extents("bad.bin").front().device_offset, 4096);

  std::vector<std::uint8_t> buf(4096);
  EXPECT_THROW((void)fs.pread(fd, buf, 0, ReadMode::kBuffered), DeviceError);
  EXPECT_EQ(disk.hard_errors(), 1u);
  expect_next_read_follows_the_fault(fs, disk, ReadMode::kBuffered);
}

TEST(FaultyDisk, FailWritesSurfacesOnTheWritePath) {
  HddModel inner{HddParams{}};
  FaultConfig config;
  config.fail_writes = true;
  FaultyDisk disk(inner, config);
  disk.mark_bad(util::mebibytes(8).value(), 4096);

  // Writes outside the bad range are fine...
  EXPECT_NO_THROW(
      (void)disk.service(IoRequest{IoKind::kWrite, 0, 4096}, Seconds{0.0}));
  // ...but a write touching dead media fails, and the outcome form pins it.
  const IoRequest bad{IoKind::kWrite, util::mebibytes(8).value(), 4096};
  const IoOutcome outcome = disk.service_outcome(bad, Seconds{1.0});
  EXPECT_FALSE(outcome.ok);
  EXPECT_GE(outcome.end.value(), 1.0);
  EXPECT_GE(disk.hard_errors(), 1u);
}

TEST(FaultyDisk, AsyncStagerRethrowsMidDrainDeviceError) {
  // The stager's writer hands each snapshot to the request queue over
  // degraded media, through a 4-slot ring. The error fires on the third
  // snapshot — mid-drain, after two writes already landed — and must
  // surface as DeviceError from the stager API, not hang the ring or report
  // success.
  HddModel inner{HddParams{}};
  FaultConfig config;
  config.fail_writes = true;
  FaultyDisk disk(inner, config);
  const std::uint64_t mib = util::mebibytes(1).value();
  disk.mark_bad(2 * mib, 4096);
  AsyncBlockDevice queue(disk);

  sched::AsyncStager stager(
      4, [&](sched::StagedSnapshot& snap, Seconds start) {
        const IoRequest write{IoKind::kWrite,
                              static_cast<std::uint64_t>(snap.step) * mib,
                              static_cast<std::uint32_t>(snap.payload.size())};
        return queue.run_batch(std::span<const IoRequest>(&write, 1), start);
      });

  EXPECT_THROW(
      {
        for (int step = 0; step < 4; ++step) {
          sched::AsyncStager::Slot slot = stager.acquire();
          slot.snapshot->step = step;
          slot.snapshot->payload.assign(4096, 0xAB);
          stager.submit(Seconds{0.1 * static_cast<double>(step)});
        }
        (void)stager.drain();
      },
      DeviceError);
}

}  // namespace
}  // namespace greenvis::storage
