#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/obs.hpp"
#include "src/obs/registry.hpp"
#include "src/qa/domains.hpp"
#include "src/qa/gen.hpp"
#include "src/qa/oracle.hpp"
#include "src/qa/property.hpp"
#include "src/qa/registry.hpp"
#include "src/util/error.hpp"

namespace greenvis::qa {
namespace {

// ---------- choice tape ----------

TEST(Choices, FreshModeIsSeedDeterministic) {
  Choices a{42};
  Choices b{42};
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.draw_range(0, 1000), b.draw_range(0, 1000));
  }
  EXPECT_EQ(a.tape(), b.tape());
  Choices c{43};
  bool any_different = false;
  for (int i = 0; i < 32; ++i) {
    any_different |= c.draw_range(0, 1000) != a.tape()[static_cast<std::size_t>(i)];
  }
  EXPECT_TRUE(any_different);
}

TEST(Choices, ReplayReproducesRecordedTape) {
  Choices fresh{7};
  std::vector<std::uint64_t> drawn;
  for (int i = 0; i < 10; ++i) {
    drawn.push_back(fresh.draw_range(5, 500));
  }
  Choices replay{fresh.tape()};
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(replay.draw_range(5, 500), drawn[static_cast<std::size_t>(i)]);
  }
}

TEST(Choices, ReplayIsTotal) {
  // Exhausted tape pads with the minimum; oversized words clamp to the
  // bound. Any mutated tape is therefore a valid generator input.
  Choices empty{Tape{}};
  EXPECT_EQ(empty.draw_range(3, 9), 3u);
  EXPECT_EQ(empty.draw_below(17), 0u);
  Choices oversized{Tape{1000}};
  EXPECT_EQ(oversized.draw_range(0, 10), 10u);
}

TEST(Choices, DrawsRespectBounds) {
  Choices c{99};
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t u = c.draw_range(10, 20);
    EXPECT_GE(u, 10u);
    EXPECT_LE(u, 20u);
    const double r = c.draw_real(-2.0, 3.0);
    EXPECT_GE(r, -2.0);
    EXPECT_LT(r, 3.0);
    const long long s = c.draw_int(-5, 5);
    EXPECT_GE(s, -5);
    EXPECT_LE(s, 5);
  }
}

// ---------- combinators ----------

TEST(Gen, CombinatorsAreTapePure) {
  const auto gen = tuple_of(
      uint_in(1, 100), real_in(0.0, 1.0),
      vector_of(int_in(-10, 10), 0, 5),
      element_of<std::string>({"raw", "delta", "rle"}));
  Choices fresh{123};
  const auto value = gen(fresh);
  Choices replay{fresh.tape()};
  EXPECT_EQ(gen(replay), value);
}

TEST(Gen, MinimalTapeYieldsMinimalValue) {
  // The all-zeros (empty) tape is every combinator's lower bound — the
  // shrinker's target.
  Choices empty{Tape{}};
  const auto value = tuple_of(uint_in(3, 9), int_in(-4, 4),
                              vector_of(uint_in(1, 5), 2, 6))(empty);
  EXPECT_EQ(std::get<0>(value), 3u);
  EXPECT_EQ(std::get<1>(value), -4);
  EXPECT_EQ(std::get<2>(value), (std::vector<std::uint64_t>{1, 1}));
}

TEST(Gen, FmapAndBindCompose) {
  const Gen<std::uint64_t> doubled =
      fmap(uint_in(1, 10), [](std::uint64_t v) { return v * 2; });
  const auto dependent = bind(uint_in(1, 4), [](std::uint64_t n) {
    return vector_of(uint_in(0, 9), n, n);
  });
  Choices c{5};
  const std::uint64_t d = doubled(c);
  EXPECT_GE(d, 2u);
  EXPECT_LE(d, 20u);
  EXPECT_EQ(d % 2, 0u);
  Choices c2{5};
  (void)doubled(c2);
  const auto vec = dependent(c2);
  EXPECT_GE(vec.size(), 1u);
  EXPECT_LE(vec.size(), 4u);
}

// ---------- domain generators ----------

TEST(Domains, SmoothFieldRespectsBounds) {
  const auto gen = smooth_field(1, 12, 5.0, 1.0);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Choices c{seed};
    const util::Field2D f = gen(c);
    EXPECT_GE(f.nx(), 1u);
    EXPECT_LE(f.nx(), 12u);
    EXPECT_GE(f.ny(), 1u);
    EXPECT_LE(f.ny(), 12u);
    for (const double v : f.values()) {
      EXPECT_LE(std::abs(v), 6.0);
    }
  }
}

TEST(Domains, IoRequestsAligned) {
  const auto gen = io_request(1ULL << 30, 1 << 20);
  Choices c{11};
  for (int i = 0; i < 10; ++i) {
    const storage::IoRequest r = gen(c);
    EXPECT_EQ(r.offset % 4096, 0u);
    EXPECT_EQ(r.length % 4096, 0u);
    EXPECT_GE(r.length, 4096u);
    EXPECT_LE(r.offset, 1ULL << 30);
    EXPECT_LE(r.length, 1u << 20);
  }
}

TEST(Domains, SmallCaseConfigStaysSmall) {
  Choices c{3};
  const core::CaseStudyConfig config = small_case_config()(c);
  EXPECT_GE(config.iterations, 1);
  EXPECT_LE(config.iterations, 8);
  EXPECT_LE(config.problem.nx, 48u);
  EXPECT_LE(config.vis.width, 64u);
}

// ---------- shrinking ----------

TEST(Shrink, ConvergesToBoundary) {
  // "values >= 500 fail": the shrunk counterexample must be *exactly* the
  // boundary, proving the shrinker reaches local minima rather than just
  // smaller values.
  const Gen<std::uint64_t> gen = uint_in(0, 100000);
  const Property<std::uint64_t> property = [](const std::uint64_t& v) {
    return v >= 500 ? "too big" : "";
  };
  Config config;
  config.repro_dir.clear();
  config.cases = 200;
  const CheckResult r = check<std::uint64_t>("shrink.boundary", gen, property,
                                             config);
  ASSERT_FALSE(r.passed);
  Choices replay{r.counterexample};
  EXPECT_EQ(gen(replay), 500u);
}

TEST(Shrink, DropsIrrelevantElements) {
  // A vector fails when it contains any element >= 50: the minimal
  // counterexample is a single-element vector holding exactly 50.
  const auto gen = vector_of(uint_in(0, 1000), 0, 20);
  const Property<std::vector<std::uint64_t>> property =
      [](const std::vector<std::uint64_t>& v) {
        for (const std::uint64_t x : v) {
          if (x >= 50) {
            return std::string("bad element");
          }
        }
        return std::string{};
      };
  Config config;
  config.repro_dir.clear();
  config.cases = 200;
  const CheckResult r =
      check<std::vector<std::uint64_t>>("shrink.vector", gen, property, config);
  ASSERT_FALSE(r.passed);
  Choices replay{r.counterexample};
  const auto shrunk = gen(replay);
  ASSERT_EQ(shrunk.size(), 1u);
  EXPECT_EQ(shrunk[0], 50u);
}

TEST(Shrink, DeterministicAcrossRuns) {
  const Gen<std::uint64_t> gen = uint_in(0, 1ULL << 40);
  const Property<std::uint64_t> property = [](const std::uint64_t& v) {
    return v % 7 == 3 ? "hit" : "";
  };
  Config config;
  config.repro_dir.clear();
  const CheckResult a = check<std::uint64_t>("shrink.det", gen, property,
                                             config);
  const CheckResult b = check<std::uint64_t>("shrink.det", gen, property,
                                             config);
  ASSERT_FALSE(a.passed);
  EXPECT_EQ(a.counterexample, b.counterexample);
  EXPECT_EQ(a.failure, b.failure);
}

// ---------- reproducer files ----------

TEST(Repro, TextRoundTrip) {
  const Repro repro{"codec.container_round_trip", 0xDEADBEEFULL,
                    Tape{1, 2, 3, 400, 5, 6, 7, 8, 9, 10}};
  const Repro back = repro_from_text(repro_to_text(repro));
  EXPECT_EQ(back.property, repro.property);
  EXPECT_EQ(back.seed, repro.seed);
  EXPECT_EQ(back.tape, repro.tape);
}

TEST(Repro, RejectsGarbage) {
  EXPECT_THROW((void)repro_from_text("not a repro"), util::ContractViolation);
  EXPECT_THROW((void)repro_from_text("greenvis-qa-repro v1\nproperty p\n"
                                     "seed 1\nwords 5\n1 2\n"),
               util::ContractViolation);
  EXPECT_THROW((void)load_repro("/nonexistent/path.qarepro"),
               util::ContractViolation);
}

TEST(Repro, FailureWritesReplayableFile) {
  // End to end: a forced failure writes a reproducer, and replaying it —
  // twice — lands on the identical shrunk counterexample.
  const std::string dir = ::testing::TempDir();
  const Gen<std::uint64_t> gen = uint_in(0, 100000);
  const Property<std::uint64_t> property = [](const std::uint64_t& v) {
    return v >= 1234 ? "over the line" : "";
  };
  Config config;
  config.repro_dir = dir;
  config.cases = 200;
  const CheckResult first =
      check<std::uint64_t>("qa.forced_failure", gen, property, config);
  ASSERT_FALSE(first.passed);
  ASSERT_FALSE(first.repro_file.empty());

  Config replay_config;
  replay_config.replay_file = first.repro_file;
  replay_config.repro_dir.clear();
  const CheckResult replay_a =
      check<std::uint64_t>("qa.forced_failure", gen, property, replay_config);
  const CheckResult replay_b =
      check<std::uint64_t>("qa.forced_failure", gen, property, replay_config);
  for (const CheckResult* r : {&replay_a, &replay_b}) {
    EXPECT_FALSE(r->passed);
    EXPECT_EQ(r->counterexample, first.counterexample);
    EXPECT_EQ(r->cases_run, 1u);
  }
  Choices choices{replay_a.counterexample};
  EXPECT_EQ(gen(choices), 1234u);
}

TEST(Repro, ReplayRejectsWrongProperty) {
  const std::string dir = ::testing::TempDir();
  const std::string path =
      write_repro(dir, Repro{"some.other.property", 1, Tape{5}});
  ASSERT_FALSE(path.empty());
  Config config;
  config.replay_file = path;
  const Gen<std::uint64_t> gen = uint_in(0, 10);
  const Property<std::uint64_t> property = [](const std::uint64_t&) {
    return std::string{};
  };
  EXPECT_THROW((void)check<std::uint64_t>("qa.mismatch", gen, property, config),
               util::ContractViolation);
}

// ---------- registry ----------

TEST(Registry, BuiltinsRegisteredAndRunnable) {
  register_builtin_properties();
  auto& registry = PropertyRegistry::global();
  for (const char* name :
       {"hdd.seq_throughput_block_invariant", "hdd.random_service_settle_bound",
        "compress.lossy_round_trip", "codec.container_round_trip",
        "codec.decode_flip_robust", "replay.trace_flip_robust"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
  EXPECT_THROW((void)registry.run("no.such.property", Config{}),
               util::ContractViolation);
}

TEST(Registry, ReplayReproFileDispatchesByName) {
  register_builtin_properties();
  PropertyRegistry::global().add(
      "qa.always_fails", [](const Config& config) {
        return check<std::uint64_t>(
            "qa.always_fails", uint_in(0, 1000),
            [](const std::uint64_t& v) {
              return v >= 10 ? "nope" : "";
            },
            config);
      });
  Config config;
  config.repro_dir = ::testing::TempDir();
  config.cases = 100;
  const CheckResult failed =
      PropertyRegistry::global().run("qa.always_fails", config);
  ASSERT_FALSE(failed.passed);
  ASSERT_FALSE(failed.repro_file.empty());
  const CheckResult replayed = replay_repro_file(failed.repro_file);
  EXPECT_FALSE(replayed.passed);
  EXPECT_EQ(replayed.counterexample, failed.counterexample);
}

// ---------- differential oracles ----------

class Oracles : public ::testing::Test {
 protected:
  void SetUp() override { register_builtin_oracles(); }

  void expect_ok(const std::string& name) {
    const OracleResult r = OracleRegistry::global().run(name);
    EXPECT_TRUE(r.ok) << name << ": " << r.detail;
  }
};

TEST_F(Oracles, SolverSerialVsPool) { expect_ok("solver.serial_vs_pool"); }
TEST_F(Oracles, PipelineSerialVsPool) { expect_ok("pipeline.serial_vs_pool"); }
TEST_F(Oracles, PipelineSyncVsAsync) { expect_ok("pipeline.sync_vs_async"); }
TEST_F(Oracles, BatchShardedVsSerial) { expect_ok("batch.sharded_vs_serial"); }
TEST_F(Oracles, CodecRawVsDelta) { expect_ok("codec.raw_vs_delta"); }
TEST_F(Oracles, CacheOnVsOff) {
  // Run the oracle with obs on: the buffered leg must surface page-cache
  // hit/miss traffic on the registry (the cold reads all miss; hits may or
  // may not occur depending on readahead coverage, so only misses are
  // required to advance).
  auto& hits = obs::Registry::global().counter("storage.page_cache.hits");
  auto& misses = obs::Registry::global().counter("storage.page_cache.misses");
  const std::uint64_t hits0 = hits.value();
  const std::uint64_t misses0 = misses.value();
  obs::set_enabled(true);
  expect_ok("storage.cache_on_vs_off");
  obs::set_enabled(false);
  EXPECT_GT(misses.value(), misses0);
  EXPECT_GE(hits.value(), hits0);
}
TEST_F(Oracles, StorageAsyncVsSync) { expect_ok("storage.async_vs_sync"); }
TEST_F(Oracles, ObsOnVsOff) { expect_ok("obs.on_vs_off"); }
TEST_F(Oracles, LegacyVsChunkedDecode) {
  expect_ok("codec.legacy_vs_chunked_decode");
}
TEST_F(Oracles, SimdScalarVsVector) { expect_ok("simd.scalar_vs_vector"); }
TEST_F(Oracles, ServeSharedVsSolo) { expect_ok("serve.shared_vs_solo"); }

TEST_F(Oracles, UnknownNameThrows) {
  EXPECT_THROW((void)OracleRegistry::global().run("no.such.oracle"),
               util::ContractViolation);
}

TEST_F(Oracles, ThrowingOracleBecomesFailure) {
  OracleRegistry::global().add("qa.throws", []() -> OracleResult {
    throw util::ContractViolation("boom");
  });
  const OracleResult r = OracleRegistry::global().run("qa.throws");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.detail.find("boom"), std::string::npos);
}

}  // namespace
}  // namespace greenvis::qa
