#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>

#include "src/io/catalog.hpp"
#include "src/io/dataset.hpp"
#include "src/util/checksum.hpp"
#include "src/storage/hdd.hpp"
#include "src/trace/clock.hpp"
#include "src/util/error.hpp"
#include "src/util/field.hpp"

namespace greenvis::io {
namespace {

struct IoFixture {
  IoFixture() : hdd(storage::HddParams{}), fs(hdd, clock, params()) {}
  static storage::FsParams params() {
    storage::FsParams p;
    p.allocation = storage::AllocationPolicy::kAged;
    return p;
  }
  trace::VirtualClock clock;
  storage::HddModel hdd;
  storage::Filesystem fs;
};

std::vector<std::uint8_t> demo_payload() {
  util::Field2D f(32, 32);
  for (std::size_t j = 0; j < 32; ++j) {
    for (std::size_t i = 0; i < 32; ++i) {
      f.at(i, j) = static_cast<double>(i * j) * 0.25;
    }
  }
  return f.serialize();
}

TEST(Dataset, WriteThenReadRoundTrips) {
  IoFixture f;
  const DatasetConfig config;
  const auto payload = demo_payload();
  TimestepWriter writer(f.fs, config);
  writer.write_step(0, payload);
  writer.write_step(5, payload);
  EXPECT_EQ(writer.steps_written(), 2u);

  f.fs.drop_caches();
  TimestepReader reader(f.fs, config);
  EXPECT_TRUE(reader.has_step(0));
  EXPECT_TRUE(reader.has_step(5));
  EXPECT_FALSE(reader.has_step(1));
  EXPECT_EQ(reader.read_step(0), payload);
  EXPECT_EQ(reader.read_step(5), payload);
  EXPECT_EQ(reader.steps_read(), 2u);
}

TEST(Dataset, FieldSurvivesFullRoundTrip) {
  IoFixture f;
  const DatasetConfig config;
  util::Field2D field(128, 128);
  for (std::size_t j = 0; j < 128; ++j) {
    for (std::size_t i = 0; i < 128; ++i) {
      field.at(i, j) = std::sin(0.05 * static_cast<double>(i * j));
    }
  }
  TimestepWriter writer(f.fs, config);
  writer.write_step(7, field.serialize());
  f.fs.drop_caches();
  TimestepReader reader(f.fs, config);
  const util::Field2D back = util::Field2D::deserialize(reader.read_step(7));
  EXPECT_EQ(field, back);
}

TEST(Dataset, DetectsCorruptedStep) {
  IoFixture f;
  DatasetConfig config;
  // Forge a step file with a valid-looking size but garbage header bytes.
  const auto fd = f.fs.create(step_file_name(config, 1));
  const std::vector<std::uint8_t> garbage(4096, 0xAB);
  f.fs.write(fd, garbage, storage::WriteMode::kBuffered);
  f.fs.close(fd);

  TimestepReader reader(f.fs, config);
  EXPECT_TRUE(reader.has_step(1));
  EXPECT_THROW((void)reader.read_step(1), util::ContractViolation);
}

// Rewrites step `step`'s stored frame after `edit` changes its bytes: read
// the file back, then remove, create and write it again.
void tamper_with_step(storage::Filesystem& fs, const DatasetConfig& config,
                      int step,
                      const std::function<void(std::vector<std::uint8_t>&)>&
                          edit) {
  const std::string name = step_file_name(config, step);
  std::vector<std::uint8_t> frame(fs.file_size(name).value());
  const auto in = fs.open(name);
  ASSERT_EQ(fs.pread(in, frame, 0, storage::ReadMode::kBuffered),
            frame.size());
  fs.close(in);
  edit(frame);
  fs.remove(name);
  const auto out = fs.create(name);
  fs.write(out, frame, storage::WriteMode::kBuffered);
  fs.close(out);
}

/// The ContractViolation message read_step throws, or "" if it returns.
std::string read_step_error(TimestepReader& reader, int step) {
  try {
    (void)reader.read_step(step);
  } catch (const util::ContractViolation& e) {
    return e.what();
  }
  return "";
}

TEST(Dataset, FlippedPayloadBitFailsTheChecksum) {
  IoFixture f;
  const DatasetConfig config;
  TimestepWriter writer(f.fs, config);
  writer.write_step(0, demo_payload());
  tamper_with_step(f.fs, config, 0, [](std::vector<std::uint8_t>& frame) {
    frame[32 + 1000] ^= 0x10;  // one bit of the payload
  });
  TimestepReader reader(f.fs, config);
  EXPECT_NE(read_step_error(reader, 0).find("checksum mismatch"),
            std::string::npos);
  EXPECT_EQ(reader.steps_read(), 0u);
}

TEST(Dataset, FlippedHeaderChecksumBitFailsTheChecksum) {
  IoFixture f;
  const DatasetConfig config;
  TimestepWriter writer(f.fs, config);
  writer.write_step(3, demo_payload());
  tamper_with_step(f.fs, config, 3, [](std::vector<std::uint8_t>& frame) {
    frame[24 + 5] ^= 0x01;  // bytes 24..31 hold the checksum
  });
  TimestepReader reader(f.fs, config);
  EXPECT_NE(read_step_error(reader, 3).find("checksum mismatch"),
            std::string::npos);
}

TEST(Dataset, FrameWithTheFnvEraMagicFailsOnBadMagic) {
  IoFixture f;
  const DatasetConfig config;
  TimestepWriter writer(f.fs, config);
  writer.write_step(1, demo_payload());
  tamper_with_step(f.fs, config, 1, [](std::vector<std::uint8_t>& frame) {
    const std::uint64_t old_magic = 0x475645'48454154ULL;  // "GVE-HEAT"
    for (int i = 0; i < 8; ++i) {
      frame[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(old_magic >> (8 * i));
    }
  });
  TimestepReader reader(f.fs, config);
  EXPECT_NE(read_step_error(reader, 1).find("bad magic"), std::string::npos);
}

TEST(Dataset, MissingStepThrows) {
  IoFixture f;
  TimestepReader reader(f.fs, DatasetConfig{});
  EXPECT_THROW((void)reader.read_step(9), util::ContractViolation);
}

TEST(Dataset, RejectsDuplicateStep) {
  IoFixture f;
  TimestepWriter writer(f.fs, DatasetConfig{});
  writer.write_step(0, demo_payload());
  EXPECT_THROW(writer.write_step(0, demo_payload()),
               util::ContractViolation);
}

TEST(Dataset, SyncWritesAreDurableAndSlow) {
  IoFixture f;
  DatasetConfig config;  // default: kSync chunks
  TimestepWriter writer(f.fs, config);
  const double t0 = f.clock.now().value();
  writer.write_step(0, demo_payload());  // 8 KiB payload + header
  const double elapsed = f.clock.now().value() - t0;
  // Per-4KiB-chunk sync writes on the HDD: tens of ms each.
  EXPECT_GT(elapsed, 0.03);
  // Nothing left dirty.
  EXPECT_EQ(f.fs.cache().dirty_pages(), 0u);
}

TEST(Dataset, BufferedModeDefersAndFsyncsOnce) {
  IoFixture f;
  DatasetConfig config;
  config.write_mode = storage::WriteMode::kBuffered;
  TimestepWriter writer(f.fs, config);
  const auto commits_before = f.fs.counters().journal_commits;
  writer.write_step(0, demo_payload());
  EXPECT_EQ(f.fs.counters().journal_commits, commits_before + 1);
}

TEST(Dataset, StepFileNamesAreDistinct) {
  DatasetConfig config;
  config.basename = "run42";
  EXPECT_EQ(step_file_name(config, 3), "run42_t3.bin");
  EXPECT_NE(step_file_name(config, 3), step_file_name(config, 13));
}

TEST(Dataset, ReaderChargesRecordProcessingGaps) {
  IoFixture f;
  DatasetConfig config;
  TimestepWriter writer(f.fs, config);
  writer.write_step(0, demo_payload());
  f.fs.drop_caches();

  // A reader with a large processing gap must take longer overall.
  DatasetConfig slow = config;
  slow.record_processing = util::milliseconds(10.0);
  const double t0 = f.clock.now().value();
  TimestepReader reader(f.fs, slow);
  (void)reader.read_step(0);
  const double with_gap = f.clock.now().value() - t0;
  const std::uint64_t payload_bytes = demo_payload().size() + 32;
  const double min_gap_time =
      0.010 * std::floor(static_cast<double>(payload_bytes) / 1024.0);
  EXPECT_GT(with_gap, min_gap_time);
}

// ---------- catalog ----------

TEST(Catalog, RecordsAndSerializesRoundTrip) {
  DatasetCatalog catalog;
  catalog.record(0, 1024, 0xDEADBEEFULL);
  catalog.record(4, 2048, 0x1234ULL);
  catalog.record(2, 512, 0x42ULL);
  EXPECT_EQ(catalog.size(), 3u);
  EXPECT_EQ(catalog.total_payload_bytes(), 3584u);
  EXPECT_EQ(catalog.steps(), (std::vector<int>{0, 2, 4}));

  const DatasetCatalog back = DatasetCatalog::parse(catalog.serialize());
  EXPECT_EQ(back.size(), 3u);
  ASSERT_TRUE(back.entry(4).has_value());
  EXPECT_EQ(back.entry(4)->payload_bytes, 2048u);
  EXPECT_EQ(back.entry(4)->checksum, 0x1234ULL);
  EXPECT_FALSE(back.entry(1).has_value());
}

TEST(Catalog, RejectsDuplicatesAndGarbage) {
  DatasetCatalog catalog;
  catalog.record(1, 10, 1);
  EXPECT_THROW(catalog.record(1, 10, 1), util::ContractViolation);
  EXPECT_THROW((void)DatasetCatalog::parse("not a catalog"),
               util::ContractViolation);
  // Version 1 recorded FNV-1a checksums under `fnv`.
  EXPECT_THROW((void)DatasetCatalog::parse("greenvis-catalog 1\n"),
               util::ContractViolation);
  EXPECT_THROW((void)DatasetCatalog::parse(
                   "greenvis-catalog 2\nstep 0 bytes 8 fnv 1f\n"),
               util::ContractViolation);
}

TEST(Catalog, WriterMaintainsItAndItPersists) {
  IoFixture f;
  const DatasetConfig config;
  TimestepWriter writer(f.fs, config);
  const auto payload = demo_payload();
  writer.write_step(0, payload);
  writer.write_step(6, payload);
  EXPECT_EQ(writer.catalog().size(), 2u);
  EXPECT_TRUE(writer.catalog().contains(6));
  writer.catalog().save(f.fs, config);
  f.fs.drop_caches();

  const DatasetCatalog loaded = DatasetCatalog::load(f.fs, config);
  EXPECT_EQ(loaded.steps(), (std::vector<int>{0, 6}));
  // The cataloged checksum matches what the reader verifies.
  TimestepReader reader(f.fs, config);
  const auto back = reader.read_step(6);
  EXPECT_EQ(util::wide_checksum64(back), loaded.entry(6)->checksum);
}

TEST(Catalog, DiscoversStepsWithoutProbing) {
  IoFixture f;
  DatasetConfig config;
  config.basename = "discover";
  TimestepWriter writer(f.fs, config);
  for (int step : {0, 3, 9}) {
    writer.write_step(step, demo_payload());
  }
  writer.catalog().save(f.fs, config);

  // A fresh tool with no schedule knowledge reads everything back.
  const DatasetCatalog catalog = DatasetCatalog::load(f.fs, config);
  TimestepReader reader(f.fs, config);
  std::size_t read = 0;
  for (int step : catalog.steps()) {
    EXPECT_EQ(reader.read_step(step).size(),
              catalog.entry(step)->payload_bytes);
    ++read;
  }
  EXPECT_EQ(read, 3u);
}

}  // namespace
}  // namespace greenvis::io
