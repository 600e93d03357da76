// Request-queue tests: a batch is the chained sync path, and a fault inside
// a batch lands on the record of the request that hit it.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/storage/async_device.hpp"
#include "src/storage/fault.hpp"
#include "src/storage/hdd.hpp"
#include "src/util/rng.hpp"

namespace greenvis::storage {
namespace {

using util::Seconds;

std::vector<IoRequest> mixed_stream(std::uint64_t seed, int count) {
  util::Xoshiro256 rng{seed};
  std::vector<IoRequest> requests;
  for (int i = 0; i < count; ++i) {
    IoRequest r;
    r.kind = (rng.next() & 1) != 0 ? IoKind::kWrite : IoKind::kRead;
    r.offset = rng.uniform_index(32 * 1024) * 4096;
    r.length =
        static_cast<std::uint32_t>((1 + rng.uniform_index(64)) * 4096);
    requests.push_back(r);
  }
  return requests;
}

TEST(AsyncQueue, BatchMatchesSyncChain) {
  const std::vector<IoRequest> stream = mixed_stream(0xBEEF, 24);

  HddModel sync_dev{HddParams{}};
  std::vector<Seconds> expected;
  Seconds cursor{0.0};
  for (const IoRequest& r : stream) {
    cursor = sync_dev.service(r, cursor);
    expected.push_back(cursor);
  }

  HddModel async_dev{HddParams{}};
  AsyncBlockDevice queue(async_dev);
  const Seconds end = queue.run_batch(stream, Seconds{0.0});
  const std::vector<CompletionRecord>& records = queue.last_batch();

  ASSERT_EQ(records.size(), expected.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].offset, stream[i].offset) << i;  // FIFO
    EXPECT_EQ(records[i].complete.value(), expected[i].value()) << i;
  }
  EXPECT_EQ(end.value(), expected.back().value());
  EXPECT_EQ(sync_dev.counters().bytes_written.value(),
            async_dev.counters().bytes_written.value());
  EXPECT_EQ(sync_dev.activity().segments().size(),
            async_dev.activity().segments().size());
}

TEST(AsyncQueue, FaultAtDepthLandsOnTheCorrectRecord) {
  HddModel inner{HddParams{}};
  FaultConfig config;
  const std::uint64_t bad = util::gibibytes(2).value();
  config.bad_ranges = {{bad, 1u << 20}};
  FaultyDisk disk(inner, config);
  AsyncBlockDevice queue(disk);

  const std::uint64_t mib = util::mebibytes(1).value();
  const std::vector<IoRequest> batch{
      {IoKind::kRead, 10 * mib, 4096},
      {IoKind::kRead, bad + 4096, 4096},
      {IoKind::kRead, 20 * mib, 4096},
      {IoKind::kRead, 30 * mib, 4096}};
  EXPECT_THROW((void)queue.run_batch(batch, Seconds{0.0}), DeviceError);
  const std::vector<CompletionRecord>& records = queue.last_batch();
  ASSERT_EQ(records.size(), 4u);  // the rest of the batch was serviced
  int errors = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const CompletionRecord& r = records[i];
    if (!r.ok) {
      ++errors;
      EXPECT_EQ(r.offset, bad + 4096);  // the fault pinned the right request
      EXPECT_EQ(i, 1u);
      EXPECT_GE(r.complete.value(), r.start.value());  // time still passed
    }
  }
  EXPECT_EQ(errors, 1);
}

}  // namespace
}  // namespace greenvis::storage
