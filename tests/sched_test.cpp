// Async staging ring tests: submission-order writes at modeled virtual
// times, backpressure blocking with freed_at/stall reporting, slot reuse
// across ring laps, writer-exception propagation to the producer, and the
// drain contract.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "src/sched/staging.hpp"
#include "src/util/error.hpp"
#include "src/util/units.hpp"

namespace greenvis::sched {
namespace {

using util::Seconds;

/// Writer that charges `cost` virtual seconds per write and logs
/// (step, virtual start) pairs. The log is written on the writer thread and
/// only read after drain(), which joins it.
struct RecordingWriter {
  double cost{1.0};
  std::vector<std::pair<int, double>> log;

  AsyncStager::WriteFn fn() {
    return [this](StagedSnapshot& snap, Seconds start) {
      log.emplace_back(snap.step, start.value());
      return start + Seconds{cost};
    };
  }
};

void stage_one(AsyncStager& stager, int step, std::size_t bytes,
               Seconds ready) {
  AsyncStager::Slot slot = stager.acquire();
  slot.snapshot->step = step;
  slot.snapshot->payload.assign(bytes, static_cast<std::uint8_t>(step));
  stager.submit(ready);
}

TEST(AsyncStager, WritesInSubmissionOrderBackToBack) {
  RecordingWriter writer;
  writer.cost = 1.0;
  AsyncStager stager(2, writer.fn());
  for (int step = 0; step < 5; ++step) {
    stage_one(stager, step, 16, Seconds{0.0});
  }
  const Seconds end = stager.drain();
  // All snapshots ready at t=0: writes queue back to back, one virtual
  // second each, in exactly submission order.
  EXPECT_DOUBLE_EQ(end.value(), 5.0);
  ASSERT_EQ(writer.log.size(), 5u);
  for (int step = 0; step < 5; ++step) {
    EXPECT_EQ(writer.log[static_cast<std::size_t>(step)].first, step);
    EXPECT_DOUBLE_EQ(writer.log[static_cast<std::size_t>(step)].second,
                     static_cast<double>(step));
  }
  EXPECT_EQ(stager.stats().staged, 5u);
  EXPECT_EQ(stager.stats().bytes_staged, 5u * 16u);
  EXPECT_DOUBLE_EQ(stager.stats().last_write_end.value(), 5.0);
}

TEST(AsyncStager, WriteNeverStartsBeforeItsSnapshotIsReady) {
  RecordingWriter writer;
  writer.cost = 0.5;
  AsyncStager stager(3, writer.fn());
  for (int step = 0; step < 4; ++step) {
    stage_one(stager, step, 8, Seconds{2.0 * step});
  }
  const Seconds end = stager.drain();
  ASSERT_EQ(writer.log.size(), 4u);
  for (int step = 0; step < 4; ++step) {
    // ready dominates the previous write end (2k vs 2(k-1)+0.5): each write
    // starts exactly when its encode finished.
    EXPECT_DOUBLE_EQ(writer.log[static_cast<std::size_t>(step)].second,
                     2.0 * step);
  }
  EXPECT_DOUBLE_EQ(end.value(), 6.5);
}

TEST(AsyncStager, BackpressureBlocksUntilTheWriterFreesASlot) {
  std::atomic<bool> release{false};
  AsyncStager stager(1, [&](StagedSnapshot&, Seconds start) -> Seconds {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return start + Seconds{2.0};
  });
  stage_one(stager, 0, 16, Seconds{0.5});
  // The ring is full and the writer is gated: the next acquire must block,
  // report the stall, and come back with the virtual end of write 0.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release.store(true);
  });
  AsyncStager::Slot slot = stager.acquire();
  releaser.join();
  EXPECT_TRUE(slot.stalled);
  EXPECT_DOUBLE_EQ(slot.freed_at.value(), 2.5);  // max(0, 0.5) + 2.0
  slot.snapshot->step = 1;
  slot.snapshot->payload.assign(8, 1);
  stager.submit(Seconds{1.0});
  const Seconds end = stager.drain();
  EXPECT_DOUBLE_EQ(end.value(), 4.5);  // max(2.5, 1.0) + 2.0
  EXPECT_EQ(stager.stats().stalls, 1u);
  EXPECT_EQ(stager.stats().staged, 2u);
}

TEST(AsyncStager, SlotsAreReusedAcrossRingLaps) {
  RecordingWriter writer;
  writer.cost = 0.1;
  AsyncStager stager(2, writer.fn());
  AsyncStager::Slot first = stager.acquire();
  StagedSnapshot* slot0 = first.snapshot;
  first.snapshot->step = 0;
  first.snapshot->payload.assign(4, 0);
  stager.submit(Seconds{0.0});
  stage_one(stager, 1, 4, Seconds{0.0});
  // Third acquire laps the ring: same slot object (its payload is
  // slot-owned and reused), freed by a completed write.
  AsyncStager::Slot third = stager.acquire();
  EXPECT_EQ(third.snapshot, slot0);
  EXPECT_GT(third.freed_at.value(), 0.0);
  third.snapshot->step = 2;
  third.snapshot->payload.assign(4, 2);
  stager.submit(Seconds{0.0});
  (void)stager.drain();
  EXPECT_EQ(stager.stats().staged, 3u);
}

TEST(AsyncStager, WriterExceptionReachesTheProducer) {
  AsyncStager stager(2, [](StagedSnapshot&, Seconds) -> Seconds {
    throw std::runtime_error("disk on fire");
  });
  stage_one(stager, 0, 16, Seconds{0.0});
  // The failure surfaces at the latest on drain (earlier acquires/submits
  // may also observe it; they rethrow the same exception).
  try {
    for (int step = 1; step < 4; ++step) {
      stage_one(stager, step, 16, Seconds{0.0});
    }
    (void)stager.drain();
    FAIL() << "writer exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "disk on fire");
  }
}

TEST(AsyncStager, DrainWithoutStagingReturnsZero) {
  RecordingWriter writer;
  writer.cost = 1.0;
  AsyncStager stager(2, writer.fn());
  const Seconds end = stager.drain();
  EXPECT_DOUBLE_EQ(end.value(), 0.0);
  EXPECT_EQ(stager.stats().staged, 0u);
  EXPECT_TRUE(writer.log.empty());
}

TEST(AsyncStager, ContractViolationsThrow) {
  EXPECT_THROW(AsyncStager(0, [](StagedSnapshot&, Seconds s) { return s; }),
               util::ContractViolation);
  RecordingWriter writer;
  writer.cost = 1.0;
  AsyncStager stager(2, writer.fn());
  AsyncStager::Slot slot = stager.acquire();
  (void)slot;
  // Acquiring a second slot before submitting the first is a producer bug.
  EXPECT_THROW((void)stager.acquire(), util::ContractViolation);
}

}  // namespace
}  // namespace greenvis::sched
