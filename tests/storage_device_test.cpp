#include <gtest/gtest.h>

#include "src/storage/activity_log.hpp"
#include "src/storage/hdd.hpp"
#include "src/storage/solid_state.hpp"
#include "src/util/error.hpp"

namespace greenvis::storage {
namespace {

HddModel make_hdd() { return HddModel{HddParams{}}; }

// ---------- activity log ----------

TEST(ActivityLog, TotalsAndWindows) {
  DiskActivityLog log;
  log.record(DiskPhase::kSeek, Seconds{0.0}, Seconds{1.0});
  log.record(DiskPhase::kReadTransfer, Seconds{1.0}, Seconds{4.0});
  EXPECT_DOUBLE_EQ(log.totals().of(DiskPhase::kSeek).value(), 1.0);
  EXPECT_DOUBLE_EQ(log.totals().of(DiskPhase::kReadTransfer).value(), 3.0);

  const auto w = log.duty_in(Seconds{0.5}, Seconds{2.0});
  EXPECT_DOUBLE_EQ(w.of(DiskPhase::kSeek).value(), 0.5);
  EXPECT_DOUBLE_EQ(w.of(DiskPhase::kReadTransfer).value(), 1.0);
  EXPECT_DOUBLE_EQ(w.total().value(), 1.5);
}

TEST(ActivityLog, WindowOutsideActivityIsIdle) {
  DiskActivityLog log;
  log.record(DiskPhase::kSeek, Seconds{5.0}, Seconds{6.0});
  EXPECT_DOUBLE_EQ(log.duty_in(Seconds{0.0}, Seconds{5.0}).total().value(),
                   0.0);
  EXPECT_DOUBLE_EQ(log.duty_in(Seconds{6.0}, Seconds{7.0}).total().value(),
                   0.0);
}

TEST(ActivityLog, ZeroLengthSegmentsIgnored) {
  DiskActivityLog log;
  log.record(DiskPhase::kFlush, Seconds{1.0}, Seconds{1.0});
  EXPECT_TRUE(log.segments().empty());
}

// ---------- HDD mechanics ----------

TEST(Hdd, SequentialReadStreamsAtMediaRate) {
  HddModel hdd = make_hdd();
  // 512 MiB of back-to-back 1 MiB reads starting at LBA 0.
  const std::uint64_t chunk = util::mebibytes(1).value();
  Seconds t{0.0};
  for (std::uint64_t off = 0; off < 512 * chunk; off += chunk) {
    t = hdd.service(IoRequest{IoKind::kRead, off,
                              static_cast<std::uint32_t>(chunk)},
                    t);
  }
  // Outer-zone rate ~ sustained * 1.18 (minus a first rotational wait).
  const double outer_rate =
      hdd.params().spec.sustained_rate.value() * 1.175;  // ~LBA 0 zone
  const double expected = 512.0 * static_cast<double>(chunk) / outer_rate;
  EXPECT_NEAR(t.value(), expected, expected * 0.05);
  // No seeks at all.
  EXPECT_DOUBLE_EQ(hdd.activity().totals().of(DiskPhase::kSeek).value(), 0.0);
}

TEST(Hdd, RandomReadPaysSeekAndRotation) {
  HddModel hdd = make_hdd();
  const std::uint64_t far = util::gibibytes(200).value();
  Seconds t = hdd.service(IoRequest{IoKind::kRead, 0, 4096}, Seconds{0.0});
  const Seconds t2 = hdd.service(IoRequest{IoKind::kRead, far, 4096}, t);
  const double service = (t2 - t).value();
  // At least the settle time, at most full stroke + full rotation + slack.
  EXPECT_GT(service, hdd.params().spec.settle_time.value());
  EXPECT_LT(service, 0.030);
  EXPECT_GT(hdd.activity().totals().of(DiskPhase::kSeek).value(), 0.0);
}

TEST(Hdd, SeekTimeGrowsWithDistance) {
  HddModel hdd = make_hdd();
  const double near = hdd.seek_time(0, util::gibibytes(1).value()).value();
  const double far = hdd.seek_time(0, util::gibibytes(400).value()).value();
  EXPECT_GT(far, near);
  EXPECT_LE(far, hdd.params().spec.full_stroke_seek.value() + 1e-9);
}

TEST(Hdd, ShortSkipsAreSeekFree) {
  HddModel hdd = make_hdd();
  EXPECT_DOUBLE_EQ(hdd.seek_time(0, util::kibibytes(64).value()).value(), 0.0);
}

TEST(Hdd, ZonedRecordingOuterFasterThanInner) {
  HddModel hdd = make_hdd();
  const double outer = hdd.media_rate(0, IoKind::kRead).value();
  const double inner =
      hdd.media_rate(hdd.capacity().value() - 1, IoKind::kRead).value();
  EXPECT_GT(outer, inner);
  const double mid = hdd.media_rate(hdd.capacity().value() / 2,
                                    IoKind::kRead).value();
  EXPECT_NEAR(mid, hdd.params().spec.sustained_rate.value(),
              hdd.params().spec.sustained_rate.value() * 0.01);
}

TEST(Hdd, WritesFasterThanReads) {
  HddModel hdd = make_hdd();
  const double r = hdd.media_rate(0, IoKind::kRead).value();
  const double w = hdd.media_rate(0, IoKind::kWrite).value();
  EXPECT_NEAR(w / r, 35.9 / 27.0, 1e-9);
}

TEST(Hdd, WriteCacheAbsorbsSmallWritesQuickly) {
  HddModel hdd = make_hdd();
  const Seconds t =
      hdd.service(IoRequest{IoKind::kWrite, util::gibibytes(100).value(), 4096},
                  Seconds{0.0});
  // Interface-speed absorption: far faster than any mechanical access.
  EXPECT_LT(t.value(), 1e-3);
  EXPECT_EQ(hdd.cached_write_bytes().value(), 4096u);
  // Nothing mechanical happened yet.
  EXPECT_DOUBLE_EQ(hdd.activity().totals().total().value(), 0.0);
}

TEST(Hdd, FlushDrainsCacheMechanically) {
  HddModel hdd = make_hdd();
  Seconds t = hdd.service(
      IoRequest{IoKind::kWrite, util::gibibytes(100).value(), 4096},
      Seconds{0.0});
  t = hdd.flush(t);
  EXPECT_EQ(hdd.cached_write_bytes().value(), 0u);
  EXPECT_GT(hdd.activity().totals().of(DiskPhase::kWriteTransfer).value(),
            0.0);
  EXPECT_GT(t.value(), hdd.params().spec.settle_time.value());
  // Flush with an empty cache is free.
  EXPECT_DOUBLE_EQ(hdd.flush(t).value(), t.value());
}

TEST(Hdd, FlushWritesInElevatorOrder) {
  HddModel hdd = make_hdd();
  // Three cached writes in descending LBA order.
  Seconds t{0.0};
  for (std::uint64_t g : {300ULL, 200ULL, 100ULL}) {
    t = hdd.service(IoRequest{IoKind::kWrite, util::gibibytes(g).value(), 4096},
                    t);
  }
  const Seconds sorted_end = hdd.flush(t);

  // The same writes serviced mechanically in submission order seek more.
  HddModel unsorted = make_hdd();
  HddParams no_cache = unsorted.params();
  no_cache.write_cache = util::Bytes{0};
  HddModel direct{no_cache};
  Seconds t2{0.0};
  for (std::uint64_t g : {300ULL, 200ULL, 100ULL}) {
    t2 = direct.service(
        IoRequest{IoKind::kWrite, util::gibibytes(g).value(), 4096}, t2);
  }
  EXPECT_LT(
      hdd.activity().totals().of(DiskPhase::kSeek).value(),
      direct.activity().totals().of(DiskPhase::kSeek).value());
  (void)sorted_end;
}

TEST(Hdd, StreamingBrokenByHostGapPaysRotation) {
  HddModel hdd = make_hdd();
  const std::uint32_t len = 4096;
  Seconds t = hdd.service(IoRequest{IoKind::kRead, 0, len}, Seconds{0.0});
  // Continue immediately: free.
  const Seconds t2 = hdd.service(IoRequest{IoKind::kRead, len, len}, t);
  EXPECT_LT((t2 - t).value(), 1e-3);
  // Continue after a 2 ms host gap: the platter rotated past.
  const Seconds gap = t2 + util::milliseconds(2.0);
  const Seconds t3 = hdd.service(IoRequest{IoKind::kRead, 2 * len, len}, gap);
  EXPECT_GT((t3 - gap).value(), 1e-3);
}

TEST(Hdd, RejectsOutOfRangeRequest) {
  HddModel hdd = make_hdd();
  EXPECT_THROW(
      hdd.service(IoRequest{IoKind::kRead, hdd.capacity().value(), 4096},
                  Seconds{0.0}),
      util::ContractViolation);
}

TEST(Hdd, CountersTrackTraffic) {
  HddModel hdd = make_hdd();
  Seconds t = hdd.service(IoRequest{IoKind::kRead, 0, 8192}, Seconds{0.0});
  t = hdd.service(IoRequest{IoKind::kWrite, 0, 4096}, t);
  hdd.flush(t);
  EXPECT_EQ(hdd.counters().reads, 1u);
  EXPECT_EQ(hdd.counters().writes, 1u);
  EXPECT_EQ(hdd.counters().bytes_read.value(), 8192u);
  EXPECT_EQ(hdd.counters().bytes_written.value(), 4096u);
}

// ---------- solid state ----------

TEST(SolidState, LatencyPlusBandwidth) {
  SolidStateModel ssd{sata_ssd_params()};
  const auto p = sata_ssd_params();
  const Seconds t =
      ssd.service(IoRequest{IoKind::kRead, 0, 1u << 20}, Seconds{0.0});
  const double expected =
      p.read_latency.value() + (1 << 20) / p.read_rate.value();
  EXPECT_NEAR(t.value(), expected, 1e-9);
}

TEST(SolidState, RandomEqualsSequentialCost) {
  SolidStateModel ssd{sata_ssd_params()};
  Seconds seq{0.0};
  for (int i = 0; i < 10; ++i) {
    seq = ssd.service(IoRequest{IoKind::kRead,
                                static_cast<std::uint64_t>(i) * 4096, 4096},
                      seq);
  }
  SolidStateModel ssd2{sata_ssd_params()};
  Seconds rnd{0.0};
  for (int i = 0; i < 10; ++i) {
    rnd = ssd2.service(
        IoRequest{IoKind::kRead,
                  util::gibibytes((static_cast<std::uint64_t>(i) * 37) % 400)
                      .value(),
                  4096},
        rnd);
  }
  EXPECT_NEAR(seq.value(), rnd.value(), 1e-12);
}

TEST(SolidState, NvramFasterThanSsd) {
  SolidStateModel ssd{sata_ssd_params()};
  SolidStateModel nvram{nvram_params()};
  const Seconds ts =
      ssd.service(IoRequest{IoKind::kRead, 0, 65536}, Seconds{0.0});
  const Seconds tn =
      nvram.service(IoRequest{IoKind::kRead, 0, 65536}, Seconds{0.0});
  EXPECT_LT(tn.value(), ts.value());
}

TEST(SolidState, FlushIsFree) {
  SolidStateModel ssd{sata_ssd_params()};
  EXPECT_DOUBLE_EQ(ssd.flush(Seconds{3.0}).value(), 3.0);
}

}  // namespace
}  // namespace greenvis::storage
