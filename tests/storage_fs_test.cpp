#include <gtest/gtest.h>

#include <numeric>

#include "src/storage/filesystem.hpp"
#include "src/storage/hdd.hpp"
#include "src/storage/layout.hpp"
#include "src/trace/clock.hpp"
#include "src/util/error.hpp"

namespace greenvis::storage {
namespace {

struct FsFixture {
  explicit FsFixture(AllocationPolicy policy = AllocationPolicy::kContiguous)
      : hdd(HddParams{}), fs(hdd, clock, make_params(policy)) {}
  static FsParams make_params(AllocationPolicy policy) {
    FsParams p;
    p.allocation = policy;
    return p;
  }
  trace::VirtualClock clock;
  HddModel hdd;
  Filesystem fs;
};

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t base = 0) {
  std::vector<std::uint8_t> v(n);
  std::iota(v.begin(), v.end(), base);
  return v;
}

TEST(Filesystem, WriteReadRoundTrip) {
  FsFixture f;
  const auto data = pattern(10000);
  auto fd = f.fs.create("a.bin");
  f.fs.write(fd, data, WriteMode::kBuffered);
  f.fs.close(fd);

  fd = f.fs.open("a.bin");
  std::vector<std::uint8_t> back(10000);
  EXPECT_EQ(f.fs.read(fd, back, ReadMode::kBuffered), 10000u);
  f.fs.close(fd);
  EXPECT_EQ(back, data);
}

TEST(Filesystem, RoundTripSurvivesSyncAndDropCaches) {
  FsFixture f(AllocationPolicy::kAged);
  const auto data = pattern(33333, 7);
  auto fd = f.fs.create("b.bin");
  f.fs.write(fd, data, WriteMode::kBuffered);
  f.fs.fsync(fd);
  f.fs.close(fd);
  f.fs.drop_caches();

  fd = f.fs.open("b.bin");
  std::vector<std::uint8_t> back(33333);
  EXPECT_EQ(f.fs.pread(fd, back, 0, ReadMode::kDirect), 33333u);
  f.fs.close(fd);
  EXPECT_EQ(back, data);
}

TEST(Filesystem, SyntheticContentIsDeterministic) {
  FsFixture f;
  auto fd = f.fs.create("syn.bin");
  f.fs.write_synthetic(fd, util::mebibytes(1), WriteMode::kBuffered);
  std::vector<std::uint8_t> a(100), b(100);
  f.fs.pread(fd, a, 5000, ReadMode::kBuffered);
  f.fs.pread(fd, b, 5000, ReadMode::kBuffered);
  f.fs.close(fd);
  EXPECT_EQ(a, b);
}

TEST(Filesystem, MixingRealAndSyntheticRejected) {
  FsFixture f;
  auto fd = f.fs.create("mix.bin");
  f.fs.write(fd, pattern(100), WriteMode::kBuffered);
  EXPECT_THROW(f.fs.write_synthetic(fd, util::Bytes{100}, WriteMode::kBuffered),
               util::ContractViolation);
}

TEST(Filesystem, SyncWriteIsFarSlowerThanBuffered) {
  FsFixture buffered;
  auto fd = buffered.fs.create("x.bin");
  buffered.fs.write(fd, pattern(4096), WriteMode::kBuffered);
  const double t_buffered = buffered.clock.now().value();

  FsFixture sync;
  fd = sync.fs.create("x.bin");
  sync.fs.write(fd, pattern(4096), WriteMode::kSync);
  const double t_sync = sync.clock.now().value();

  EXPECT_GT(t_sync, 50.0 * t_buffered);
  // A sync 4 KiB write on this drive costs tens of milliseconds (data flush
  // + journal commit with a missed rotation).
  EXPECT_GT(t_sync, 0.015);
  EXPECT_LT(t_sync, 0.100);
}

TEST(Filesystem, FsyncIdempotentWhenClean) {
  FsFixture f;
  auto fd = f.fs.create("c.bin");
  f.fs.write(fd, pattern(8192), WriteMode::kBuffered);
  f.fs.fsync(fd);
  const double t1 = f.clock.now().value();
  const auto commits = f.fs.counters().journal_commits;
  f.fs.fsync(fd);  // nothing dirty: no journal commit
  EXPECT_EQ(f.fs.counters().journal_commits, commits);
  EXPECT_NEAR(f.clock.now().value(), t1, 1e-3);
}

TEST(Filesystem, DropCachesForcesColdReads) {
  FsFixture f;
  const auto data = pattern(65536);
  auto fd = f.fs.create("d.bin");
  f.fs.write(fd, data, WriteMode::kBuffered);
  f.fs.fsync(fd);

  // Warm read: no device reads.
  const auto reads_before = f.hdd.counters().reads;
  std::vector<std::uint8_t> buf(65536);
  f.fs.pread(fd, buf, 0, ReadMode::kBuffered);
  EXPECT_EQ(f.hdd.counters().reads, reads_before);

  f.fs.drop_caches();
  f.fs.pread(fd, buf, 0, ReadMode::kBuffered);
  EXPECT_GT(f.hdd.counters().reads, reads_before);
  f.fs.close(fd);
}

TEST(Filesystem, DirectReadsBypassCache) {
  FsFixture f;
  auto fd = f.fs.create("e.bin");
  f.fs.write(fd, pattern(16384), WriteMode::kBuffered);
  f.fs.fsync(fd);
  f.fs.drop_caches();

  std::vector<std::uint8_t> buf(4096);
  f.fs.pread(fd, buf, 0, ReadMode::kDirect);
  const auto reads1 = f.hdd.counters().reads;
  f.fs.pread(fd, buf, 0, ReadMode::kDirect);  // no caching: hits device again
  EXPECT_GT(f.hdd.counters().reads, reads1);
  f.fs.close(fd);
}

TEST(Filesystem, DirectReadOverFourGibRunIsNotTruncated) {
  // 1 MiB blocks keep the 5 GiB file to 5120 pages; the run is one extent.
  trace::VirtualClock clock;
  HddModel hdd{HddParams{}};
  FsParams params;
  params.block_size = util::mebibytes(1);
  params.cache.page_size = util::mebibytes(1);
  Filesystem fs(hdd, clock, params);
  const std::uint64_t size = util::gibibytes(5).value();
  auto fd = fs.create("huge.bin", /*force_contiguous=*/true);
  fs.write_synthetic(fd, util::Bytes{size}, WriteMode::kBuffered);
  ASSERT_EQ(fs.extents("huge.bin").size(), 1u);

  const std::uint64_t before = hdd.counters().bytes_read.value();
  EXPECT_EQ(fs.pread_timed(fd, 0, size, ReadMode::kDirect), size);
  EXPECT_EQ(hdd.counters().bytes_read.value() - before, size);
}

TEST(Filesystem, AgedAllocationFragmentsFiles) {
  FsFixture aged(AllocationPolicy::kAged);
  auto fd = aged.fs.create("frag.bin");
  aged.fs.write(fd, pattern(65536), WriteMode::kBuffered);
  aged.fs.close(fd);
  EXPECT_GT(aged.fs.fragmentation("frag.bin"), 0.9);

  FsFixture fresh(AllocationPolicy::kContiguous);
  fd = fresh.fs.create("frag.bin");
  fresh.fs.write(fd, pattern(65536), WriteMode::kBuffered);
  fresh.fs.close(fd);
  EXPECT_DOUBLE_EQ(fresh.fs.fragmentation("frag.bin"), 0.0);
}

TEST(Filesystem, ContiguousOverrideOnAgedFilesystem) {
  FsFixture aged(AllocationPolicy::kAged);
  auto fd = aged.fs.create("big.bin", /*force_contiguous=*/true);
  aged.fs.write_synthetic(fd, util::mebibytes(8), WriteMode::kBuffered);
  aged.fs.close(fd);
  EXPECT_DOUBLE_EQ(aged.fs.fragmentation("big.bin"), 0.0);
  EXPECT_EQ(aged.fs.extents("big.bin").size(), 1u);
}

TEST(Filesystem, ColdFragmentedReadsSlowerThanContiguous) {
  auto run = [](AllocationPolicy policy) {
    FsFixture f(policy);
    auto fd = f.fs.create("r.bin");
    f.fs.write(fd, pattern(131072), WriteMode::kBuffered);
    f.fs.fsync(fd);
    f.fs.drop_caches();
    const double t0 = f.clock.now().value();
    std::vector<std::uint8_t> buf(4096);
    for (std::uint64_t off = 0; off < 131072; off += 4096) {
      f.fs.pread(fd, buf, off, ReadMode::kDirect);
    }
    f.fs.close(fd);
    return f.clock.now().value() - t0;
  };
  const double aged = run(AllocationPolicy::kAged);
  const double fresh = run(AllocationPolicy::kContiguous);
  EXPECT_GT(aged, 2.0 * fresh);
}

TEST(Filesystem, CreateOpenRemoveLifecycle) {
  FsFixture f;
  EXPECT_FALSE(f.fs.exists("x"));
  auto fd = f.fs.create("x");
  EXPECT_TRUE(f.fs.exists("x"));
  EXPECT_THROW(f.fs.create("x"), util::ContractViolation);
  f.fs.write(fd, pattern(10), WriteMode::kBuffered);
  EXPECT_EQ(f.fs.file_size("x").value(), 10u);
  f.fs.close(fd);
  EXPECT_THROW(f.fs.close(fd), util::ContractViolation);
  f.fs.remove("x");
  EXPECT_FALSE(f.fs.exists("x"));
  EXPECT_THROW(f.fs.open("x"), util::ContractViolation);
}

TEST(Filesystem, CursorSemantics) {
  FsFixture f;
  auto fd = f.fs.create("cur");
  f.fs.write(fd, pattern(100), WriteMode::kBuffered);
  EXPECT_EQ(f.fs.tell(fd), 100u);
  f.fs.seek_to(fd, 50);
  std::vector<std::uint8_t> buf(100);
  EXPECT_EQ(f.fs.read(fd, buf, ReadMode::kBuffered), 50u);  // short at EOF
  EXPECT_EQ(f.fs.tell(fd), 100u);
  EXPECT_EQ(buf[0], 50);
}

TEST(Filesystem, ListFiles) {
  FsFixture f;
  f.fs.close(f.fs.create("one"));
  f.fs.close(f.fs.create("two"));
  const auto names = f.fs.list_files();
  EXPECT_EQ(names.size(), 2u);
}

// ---------- reorganizer ----------

TEST(Reorganizer, DefragmentsAndSpeedsUpReads) {
  FsFixture f(AllocationPolicy::kAged);
  auto fd = f.fs.create("data.bin");
  f.fs.write(fd, pattern(262144), WriteMode::kBuffered);
  f.fs.fsync(fd);
  f.fs.close(fd);
  f.fs.drop_caches();

  auto cold_read_time = [&]() {
    f.fs.drop_caches();
    const double t0 = f.clock.now().value();
    auto h = f.fs.open("data.bin");
    for (std::uint64_t off = 0; off < 262144; off += 4096) {
      f.fs.pread_timed(h, off, 4096, ReadMode::kDirect);
    }
    f.fs.close(h);
    return f.clock.now().value() - t0;
  };

  const double before = cold_read_time();
  layout::Reorganizer reorg(f.fs);
  const auto report = reorg.reorganize("data.bin");
  EXPECT_GT(report.fragmentation_before, 0.9);
  EXPECT_DOUBLE_EQ(report.fragmentation_after, 0.0);
  EXPECT_GT(report.duration.value(), 0.0);
  const double after = cold_read_time();
  EXPECT_LT(after, before / 2.0);

  // Payload unchanged.
  auto h = f.fs.open("data.bin");
  std::vector<std::uint8_t> back(262144);
  f.fs.pread(h, back, 0, ReadMode::kBuffered);
  f.fs.close(h);
  EXPECT_EQ(back, pattern(262144));
}

}  // namespace
}  // namespace greenvis::storage
