#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <sstream>
#include <stdexcept>

#include "src/util/args.hpp"
#include "src/util/checksum.hpp"
#include "src/util/csv.hpp"
#include "src/util/error.hpp"
#include "src/util/field.hpp"
#include "src/util/rng.hpp"
#include "src/util/table.hpp"
#include "src/util/thread_pool.hpp"
#include "src/util/units.hpp"
#include "tests/wrapped_blobs.hpp"

namespace greenvis::util {
namespace {

// ---------- units ----------

TEST(Units, PowerTimesTimeIsEnergy) {
  const Joules e = Watts{100.0} * Seconds{30.0};
  EXPECT_DOUBLE_EQ(e.value(), 3000.0);
}

TEST(Units, EnergyOverTimeIsPower) {
  const Watts p = Joules{250.0} / Seconds{5.0};
  EXPECT_DOUBLE_EQ(p.value(), 50.0);
}

TEST(Units, EnergyOverPowerIsTime) {
  const Seconds t = Joules{250.0} / Watts{5.0};
  EXPECT_DOUBLE_EQ(t.value(), 50.0);
}

TEST(Units, LikeQuantityRatioIsDimensionless) {
  EXPECT_DOUBLE_EQ(Seconds{10.0} / Seconds{4.0}, 2.5);
}

TEST(Units, QuantityArithmetic) {
  Watts w{10.0};
  w += Watts{5.0};
  w -= Watts{3.0};
  w *= 2.0;
  EXPECT_DOUBLE_EQ(w.value(), 24.0);
  EXPECT_LT(Watts{1.0}, Watts{2.0});
  EXPECT_DOUBLE_EQ((-Watts{3.0}).value(), -3.0);
}

TEST(Units, ByteHelpers) {
  EXPECT_EQ(kibibytes(4).value(), 4096u);
  EXPECT_EQ(mebibytes(1).value(), 1048576u);
  EXPECT_EQ(gibibytes(1).value(), 1073741824u);
  EXPECT_DOUBLE_EQ(mebibytes(3).megabytes(), 3.0);
}

TEST(Units, TransferTime) {
  const Seconds t = transfer_time(mebibytes(114), mebibytes_per_second(114.0));
  EXPECT_NEAR(t.value(), 1.0, 1e-12);
}

// ---------- error/contracts ----------

TEST(Contracts, RequireThrowsWithContext) {
  try {
    GREENVIS_REQUIRE_MSG(false, "the detail");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("the detail"), std::string::npos);
  }
}

TEST(Contracts, RequirePassesSilently) {
  EXPECT_NO_THROW(GREENVIS_REQUIRE(1 + 1 == 2));
}

// ---------- rng ----------

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a{42}, b{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a{1}, b{2};
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, UniformInRange) {
  Xoshiro256 rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, UniformIndexBounded) {
  Xoshiro256 rng{9};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform_index(17), 17u);
  }
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Xoshiro256 rng{11};
  constexpr int kSamples = 20000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kSamples;
  const double variance = (sum_sq - kSamples * mean * mean) / (kSamples - 1);
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(std::sqrt(variance), 2.0, 0.1);
}

// ---------- csv ----------

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesRows) {
  std::ostringstream os;
  CsvWriter w{os};
  w.row({"a", "b"});
  w.field(1.5);
  w.field(static_cast<long long>(7));
  w.end_row();
  EXPECT_EQ(os.str(), "a,b\n1.500000,7\n");
  EXPECT_EQ(w.rows_written(), 2u);
}

// ---------- table ----------

TEST(Table, RendersAligned) {
  TextTable t({"Metric", "Value"});
  t.add_row({"time", "35.9"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Metric"), std::string::npos);
  EXPECT_NE(out.find("35.9"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, RejectsRaggedRows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), ContractViolation);
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(cell(3.14159, 2), "3.14");
  EXPECT_EQ(cell_percent(0.43), "43%");
}

// ---------- thread pool ----------

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.parallel_for(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      ++hits[i];
    }
  });
  for (int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ManySmallDispatches) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(0, 7, [&](std::size_t lo, std::size_t hi) {
      total += static_cast<int>(hi - lo);
    });
  }
  EXPECT_EQ(total.load(), 350);
}

TEST(ThreadPool, RangeSmallerThanWorkerCount) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      ++hits[i];
    }
  });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, BackwardsRangeViolatesContract) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(5, 4, [](std::size_t, std::size_t) {}),
               ContractViolation);
}

TEST(ThreadPool, BodyExceptionPropagatesWithoutDeadlock) {
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(
        pool.parallel_for(0, 1000,
                          [&](std::size_t lo, std::size_t) {
                            if (lo >= 256) {
                              throw std::runtime_error("boom");
                            }
                          }),
        std::runtime_error);
    // The pool must stay fully usable after a failed dispatch.
    std::atomic<int> covered{0};
    pool.parallel_for(0, 100, [&](std::size_t lo, std::size_t hi) {
      covered += static_cast<int>(hi - lo);
    });
    EXPECT_EQ(covered.load(), 100);
  }
}

TEST(ThreadPool, ReuseAcrossManyDispatches) {
  ThreadPool pool(4);
  std::vector<int> hits(257, 0);
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        ++hits[i];
      }
    });
  }
  for (int h : hits) {
    EXPECT_EQ(h, 200);
  }
}

TEST(ThreadPool, ParallelReduceMatchesSerialFold) {
  ThreadPool pool(4);
  const std::size_t n = 10001;
  auto body = [](std::size_t lo, std::size_t hi, double acc) {
    for (std::size_t i = lo; i < hi; ++i) {
      acc += static_cast<double>(i) * 1e-3;
    }
    return acc;
  };
  const double parallel = pool.parallel_reduce(
      std::size_t{0}, n, 0.0, body, [](double a, double b) { return a + b; });
  // The chunk plan is pool-size-independent, so any pool reproduces the
  // same chunked fold bit-for-bit.
  ThreadPool serial(1);
  const double chunked_serial = serial.parallel_reduce(
      std::size_t{0}, n, 0.0, body, [](double a, double b) { return a + b; });
  EXPECT_EQ(parallel, chunked_serial);
  EXPECT_NEAR(parallel, body(0, n, 0.0), 1e-6);
}

TEST(ThreadPool, ParallelReduceEmptyRangeReturnsInit) {
  ThreadPool pool(2);
  const double r = pool.parallel_reduce(
      std::size_t{7}, std::size_t{7}, -1.5,
      [](std::size_t, std::size_t, double acc) { return acc + 1.0; },
      [](double a, double b) { return a + b; });
  EXPECT_DOUBLE_EQ(r, -1.5);
}

// ---------- args ----------

TEST(Args, ParsesOptionsFlagsAndPositionals) {
  // Note the greedy-value rule: an option consumes the next token unless
  // that token is itself an option — so trailing flags must come last.
  const char* argv[] = {"prog", "run",  "file.trace",
                        "--case", "2", "--verbose"};
  const ArgParser args(6, argv);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "run");
  EXPECT_EQ(args.positional()[1], "file.trace");
  EXPECT_EQ(args.get("case", std::string{}), "2");
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get("verbose", std::string{"x"}), "");
}

TEST(Args, OptionGreedilyConsumesNextToken) {
  const char* argv[] = {"prog", "--verbose", "file.trace"};
  const ArgParser args(3, argv);
  EXPECT_EQ(args.get("verbose", std::string{}), "file.trace");
  EXPECT_TRUE(args.positional().empty());
}

TEST(Args, StrictModeRejectsUnknownOptions) {
  const char* argv[] = {"prog", "--typo", "1"};
  const ArgParser args(3, argv);
  EXPECT_THROW(args.allow_only({"case", "size"}), ContractViolation);
  EXPECT_NO_THROW(args.allow_only({"typo"}));
}

TEST(Args, FlagFollowedByOption) {
  const char* argv[] = {"prog", "--dry-run", "--case", "3"};
  const ArgParser args(4, argv);
  EXPECT_TRUE(args.has("dry-run"));
  EXPECT_EQ(args.get("dry-run", std::string{"?"}), "");
  EXPECT_EQ(args.get("case", std::string{}), "3");
}

TEST(Args, EqualsSyntaxBindsValueInSameToken) {
  const char* argv[] = {"prog", "--trace-out=trace.json", "--case=2",
                        "positional"};
  const ArgParser args(4, argv);
  EXPECT_EQ(args.get("trace-out", std::string{}), "trace.json");
  EXPECT_EQ(args.get("case", std::string{}), "2");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
}

TEST(Args, EqualsSyntaxAllowsEmptyValueAndLiteralEquals) {
  // `--key=` is an explicit empty value (unlike a bare flag it never
  // consumes the next token); later '=' characters stay in the value.
  const char* argv[] = {"prog", "--out=", "next", "--expr=a=b"};
  const ArgParser args(4, argv);
  EXPECT_TRUE(args.has("out"));
  EXPECT_EQ(args.get("out", std::string{"?"}), "");
  EXPECT_EQ(args.get("expr", std::string{}), "a=b");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "next");
}

TEST(Args, EmptyOptionNameThrowsWithoutSourceLocation) {
  for (const char* token : {"--", "--=value"}) {
    const char* argv[] = {"prog", token};
    try {
      (void)ArgParser(2, argv);
      FAIL() << token << " parsed";
    } catch (const ContractViolation& e) {
      EXPECT_EQ(std::string(e.what()),
                "empty option name '" + std::string(token) + "'");
    }
  }
}

TEST(Args, BareFlagDistinguishableFromExplicitEmpty) {
  // The regression this guards: `--key=` used to be indistinguishable from
  // a bare `--key` flag. has_value() now tells them apart.
  const char* argv[] = {"prog", "--flag", "--empty=", "--full", "v"};
  const ArgParser args(5, argv);
  EXPECT_TRUE(args.has("flag"));
  EXPECT_FALSE(args.has_value("flag"));
  EXPECT_TRUE(args.has("empty"));
  EXPECT_TRUE(args.has_value("empty"));
  EXPECT_TRUE(args.has_value("full"));
  EXPECT_FALSE(args.has_value("absent"));
  // String getter still maps the bare flag to "" for convenience.
  EXPECT_EQ(args.get("flag", std::string{"?"}), "");
  EXPECT_EQ(args.get("empty", std::string{"?"}), "");
}

TEST(Args, RepeatedOptionLastWins) {
  const char* argv[] = {"prog", "--case=1", "--case", "2", "--case=3"};
  const ArgParser args(5, argv);
  EXPECT_EQ(args.get("case", std::string{}), "3");
  const char* argv2[] = {"prog", "--case=1", "--case"};
  const ArgParser args2(3, argv2);
  // A trailing bare repeat demotes the option back to a flag: last wins
  // applies to the whole occurrence, not just its value.
  EXPECT_TRUE(args2.has("case"));
  EXPECT_FALSE(args2.has_value("case"));
}

TEST(Args, UnknownOptionDiagnosticNamesTheOption) {
  const char* argv[] = {"prog", "--typox", "1"};
  const ArgParser args(3, argv);
  try {
    args.allow_only({"case"});
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("--typox"), std::string::npos);
  }
}

// ---------- checksum ----------

TEST(Checksum, StableAndSensitive) {
  const std::vector<std::uint8_t> a{1, 2, 3};
  const std::vector<std::uint8_t> b{1, 2, 4};
  EXPECT_EQ(fnv1a64(a), fnv1a64(a));
  EXPECT_NE(fnv1a64(a), fnv1a64(b));
}

std::vector<std::uint8_t> checksum_input(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  return out;
}

// The layout wide_checksum64 documents, written out lane by lane: lane k
// hashes words k, k+8, ... with FNV-1a, the tail seeds the final state
// byte by byte, and the lanes fold into it in order.
std::uint64_t wide_checksum_by_lanes(std::span<const std::uint8_t> data) {
  const std::size_t words = data.size() / 64 * 8;
  std::vector<std::uint64_t> lanes(8, 0xCBF29CE484222325ULL);
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t word = 0;
    for (std::size_t i = 8; i-- > 0;) {
      word = (word << 8) | data[8 * w + i];
    }
    lanes[w % 8] = (lanes[w % 8] ^ word) * 0x100000001B3ULL;
  }
  std::uint64_t h = fnv1a64(data.subspan(8 * words));
  for (const std::uint64_t lane : lanes) {
    h = (h ^ lane) * 0x100000001B3ULL;
  }
  return h;
}

TEST(Checksum, WideChecksumKnownAnswers) {
  EXPECT_EQ(wide_checksum64({}), 0x52fcc39ebac1808dULL);
  EXPECT_EQ(wide_checksum64(checksum_input(1000)), 0x47dd699c4443eb25ULL);
  for (const std::size_t n : {0, 1, 7, 8, 63, 64, 65, 127, 128, 129, 1000}) {
    const auto data = checksum_input(n);
    EXPECT_EQ(wide_checksum64(data), wide_checksum_by_lanes(data)) << n;
  }
}

TEST(Checksum, WideChecksumCatchesEverySingleBitFlip) {
  // Flips `bit` of `data`, checksums, and flips it back.
  const auto flip_changes_sum = [](std::vector<std::uint8_t>& data,
                                   std::uint64_t clean, std::size_t bit) {
    const auto mask = static_cast<std::uint8_t>(1U << (bit % 8));
    data[bit / 8] ^= mask;
    const bool changed = wide_checksum64(data) != clean;
    data[bit / 8] ^= mask;
    return changed;
  };
  for (const std::size_t n : {1, 7, 8, 63, 64, 65, 127, 129, 1000}) {
    auto data = checksum_input(n);
    const std::uint64_t clean = wide_checksum64(data);
    for (std::size_t bit = 0; bit < 8 * n; ++bit) {
      ASSERT_TRUE(flip_changes_sum(data, clean, bit))
          << n << " bytes, bit " << bit;
    }
  }
  auto frame = checksum_input(128 * 1024);
  const std::uint64_t clean = wide_checksum64(frame);
  for (std::size_t bit = 0; bit < 8 * frame.size(); bit += 97) {
    ASSERT_TRUE(flip_changes_sum(frame, clean, bit)) << "128 KiB, bit " << bit;
  }
}

// ---------- field ----------

TEST(Field, RoundTripsThroughSerialization) {
  Field2D f(5, 3);
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t i = 0; i < 5; ++i) {
      f.at(i, j) = static_cast<double>(i) * 10.0 + static_cast<double>(j);
    }
  }
  const auto raw = f.serialize();
  EXPECT_EQ(raw.size(), f.serialized_bytes());
  const Field2D g = Field2D::deserialize(raw);
  EXPECT_EQ(f, g);
}

TEST(Field, MinMaxSum) {
  Field2D f(2, 2, 1.0);
  f.at(1, 1) = -4.0;
  EXPECT_DOUBLE_EQ(f.min_value(), -4.0);
  EXPECT_DOUBLE_EQ(f.max_value(), 1.0);
  EXPECT_DOUBLE_EQ(f.sum(), -1.0);
}

TEST(Field, DeserializeRejectsCorruptSize) {
  Field2D f(4, 4);
  auto raw = f.serialize();
  raw.pop_back();
  EXPECT_THROW(Field2D::deserialize(raw), ContractViolation);
  // 16 + 2^62 * 4 * 8 wraps to 16: the header alone must not pass.
  EXPECT_THROW(Field2D::deserialize(wrapped_field2d_blob()),
               ContractViolation);
}

}  // namespace
}  // namespace greenvis::util
