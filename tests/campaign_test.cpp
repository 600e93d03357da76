#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/campaign/cache.hpp"
#include "src/campaign/config.hpp"
#include "src/campaign/engine.hpp"
#include "src/campaign/hash.hpp"
#include "src/campaign/query.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/registry.hpp"
#include "src/util/error.hpp"

namespace greenvis::campaign {
namespace {

/// A sweep point small enough that a test can execute it in milliseconds.
CampaignConfig tiny_config() {
  CampaignConfig c;
  c.grid = 16;
  c.iterations = 2;
  c.sweeps = 8;
  c.frame = 32;
  return c;
}

// ---------------------------------------------------------------------------
// Canonical hashing
// ---------------------------------------------------------------------------

TEST(Hash, DefaultAndExplicitDefaultsHashEqual) {
  const CampaignConfig implicit{};  // all module defaults
  CampaignConfig explicit_cfg;
  explicit_cfg.sweeps = 40;             // the solver default, spelled out
  explicit_cfg.frame = 512;             // the vis default, spelled out
  explicit_cfg.io_frequency_ghz = 2.4;  // == frequency_ghz, i.e. "same"
  explicit_cfg.codec_tolerance = 123.0; // raw codec never reads tolerance
  explicit_cfg.chunk_edge = 7;          // raw codec never chunks
  EXPECT_EQ(config_key(implicit), config_key(explicit_cfg));
  EXPECT_EQ(canonical_text(implicit), canonical_text(explicit_cfg));
}

TEST(Hash, FieldAssignmentOrderIsIrrelevant) {
  CampaignConfig a;
  a.grid = 64;
  a.io_period = 4;
  a.device = core::StorageDeviceKind::kSsd;
  CampaignConfig b;
  b.device = core::StorageDeviceKind::kSsd;
  b.io_period = 4;
  b.grid = 64;
  EXPECT_EQ(config_key(a), config_key(b));
}

TEST(Hash, InSituDropsStorageOnlyKnobs) {
  CampaignConfig a;
  a.kind = core::PipelineKind::kInSitu;
  CampaignConfig b = a;
  b.codec_kind = codec::Kind::kDelta;  // storage codec: in-situ never writes
  b.codec_tolerance = 1e-2;
  b.io_frequency_ghz = 1.2;  // I/O-phase clock: no I/O phase exists
  EXPECT_EQ(config_key(a), config_key(b));
  // ...but the same knobs DO distinguish post-processing configs.
  a.kind = core::PipelineKind::kPostProcessing;
  b.kind = core::PipelineKind::kPostProcessing;
  EXPECT_NE(config_key(a), config_key(b));
}

TEST(Hash, EveryResultsChangingKnobChangesTheKey) {
  const CampaignConfig base{};
  std::set<std::string> keys{config_key(base)};
  auto insert_unique = [&](const CampaignConfig& c) {
    EXPECT_TRUE(keys.insert(config_key(c)).second)
        << "collision for " << canonical_text(c);
  };
  CampaignConfig c = base;
  c.kind = core::PipelineKind::kInSitu;
  insert_unique(c);
  c = base;
  c.kind = core::PipelineKind::kPostProcessingAsync;
  insert_unique(c);
  c = base;
  c.iterations = 51;
  insert_unique(c);
  c = base;
  c.io_period = 2;
  insert_unique(c);
  c = base;
  c.grid = 129;
  insert_unique(c);
  c = base;
  c.sweeps = 41;
  insert_unique(c);
  c = base;
  c.frame = 256;
  insert_unique(c);
  c = base;
  c.codec_kind = codec::Kind::kRle;
  insert_unique(c);
  c = base;
  c.codec_kind = codec::Kind::kDelta;
  insert_unique(c);
  CampaignConfig delta = c;
  c.codec_tolerance = 1e-4;
  insert_unique(c);
  c = delta;
  c.chunk_edge = 16;
  insert_unique(c);
  c = base;
  c.device = core::StorageDeviceKind::kSsd;
  insert_unique(c);
  c = base;
  c.device = core::StorageDeviceKind::kNvram;
  insert_unique(c);
  c = base;
  c.frequency_ghz = 1.6;
  insert_unique(c);
  c = base;
  c.io_frequency_ghz = 1.2;
  insert_unique(c);
  c = base;
  c.package_cap_w = 120.0;
  insert_unique(c);
  c = base;
  c.kind = core::PipelineKind::kPostProcessingAsync;
  c.stage_buffers = 4;
  insert_unique(c);
}

// Golden keys: the canonical hash is a persistence format (journals written
// by one build must resume under another), so these values are pinned. If a
// change legitimately alters them, bump the version tag in canonical_text()
// and re-pin.
TEST(Hash, GoldenKeysAreStable) {
  EXPECT_EQ(config_key(CampaignConfig{}), "900b61b268b30ffc");
  CampaignConfig c = tiny_config();
  c.kind = core::PipelineKind::kInSitu;
  c.device = core::StorageDeviceKind::kNvram;
  c.frequency_ghz = 1.6;
  EXPECT_EQ(config_key(c), "4068dadbb521c923");
  EXPECT_EQ(key_from_hash(0), "0000000000000000");
  EXPECT_EQ(key_from_hash(0xDEADBEEF01234567ULL), "deadbeef01234567");
}

TEST(Hash, CanonicalTextIsVersionedAndFixedOrder) {
  const std::string text = canonical_text(CampaignConfig{});
  EXPECT_EQ(text.rfind("greenvis.campaign.v1|", 0), 0u) << text;
  EXPECT_NE(text.find("|pipeline="), std::string::npos);
  EXPECT_NE(text.find("|grid=128|"), std::string::npos);
}

TEST(Canonicalize, RejectsNonsenseConfigs) {
  CampaignConfig c;
  c.iterations = 0;
  EXPECT_THROW(static_cast<void>(canonicalize(c)), util::ContractViolation);
  c = CampaignConfig{};
  c.grid = 2;
  EXPECT_THROW(static_cast<void>(canonicalize(c)), util::ContractViolation);
  c = CampaignConfig{};
  c.frequency_ghz = 0.0;
  EXPECT_THROW(static_cast<void>(canonicalize(c)), util::ContractViolation);
}

// ---------------------------------------------------------------------------
// Journal encode/decode + cache poisoning
// ---------------------------------------------------------------------------

ConfigResult sample_result() {
  ConfigResult r;
  r.key = "00c0ffee00c0ffee";
  r.duration_s = 1.0 / 3.0;  // not representable in decimal
  r.energy_j = 12345.6789;
  r.average_power_w = 103.25;
  r.peak_power_w = 144.5;
  r.efficiency = 0.1e-300;  // exercises extreme exponents
  r.image_digest = 0x0123456789ABCDEFULL;
  r.field_digest = 0xFEDCBA9876543210ULL;
  r.steps = 50;
  r.visualized_steps = 25;
  r.snapshot_bytes_written = 1u << 20;
  r.snapshot_bytes_read = 1u << 19;
  r.snapshot_bytes_raw = 1u << 21;
  r.energy_sim_j = 4000.0 / 7.0;  // attributed columns: also bit-exact
  r.energy_write_j = 1234.5678;
  r.energy_read_j = 987.0 / 13.0;
  r.energy_vis_j = 55.0e-30;
  r.energy_idle_j = 0.125;
  r.energy_other_j = 2.0 / 3.0;
  r.energy_static_j = 10101.0101;
  return r;
}

TEST(Journal, LineRoundTripsBitExactly) {
  const ConfigResult r = sample_result();
  const std::string line = encode_line(r);
  const auto decoded = decode_line(line);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, r);  // operator== compares doubles bit-for-bit here
}

TEST(Journal, ChecksumCatchesCorruption) {
  std::string line = encode_line(sample_result());
  // Flip one payload character (the first hex digit of the key field).
  const std::size_t pos = line.find(' ') + 1;
  line[pos] = line[pos] == '0' ? '1' : '0';
  EXPECT_FALSE(decode_line(line).has_value());
  EXPECT_FALSE(decode_line("not a journal line").has_value());
  EXPECT_FALSE(decode_line("").has_value());
}

TEST(Cache, LoadJournalRestoresResults) {
  const ConfigResult r = sample_result();
  std::stringstream journal;
  journal << encode_line(r) << '\n';
  ResultCache cache;
  EXPECT_EQ(cache.load_journal(journal), 1u);
  ASSERT_NE(cache.find(r.key), nullptr);
  EXPECT_EQ(*cache.find(r.key), r);
}

TEST(Cache, TornTrailingLineIsIgnored) {
  const ConfigResult r = sample_result();
  const std::string full = encode_line(r);
  std::stringstream journal;
  // A complete line, then a crash mid-append: no trailing newline.
  journal << full << '\n' << full.substr(0, full.size() / 2);
  ResultCache cache;
  EXPECT_EQ(cache.load_journal(journal), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(Cache, PoisonedCompleteLineThrowsNeverReturnsWrongResult) {
  std::string line = encode_line(sample_result());
  const std::size_t pos = line.find(' ') + 1;
  line[pos] = line[pos] == '0' ? '1' : '0';  // corrupt, newline-terminated
  std::stringstream journal;
  journal << line << '\n';
  ResultCache cache;
  EXPECT_THROW(static_cast<void>(cache.load_journal(journal)),
               util::ContractViolation);
  EXPECT_EQ(cache.size(), 0u);  // nothing partial leaked out
}

TEST(Cache, InsertIsFirstWriterWins) {
  ResultCache cache;
  ConfigResult r = sample_result();
  EXPECT_TRUE(cache.insert(r));
  ConfigResult imposter = r;
  imposter.energy_j = -1.0;
  EXPECT_FALSE(cache.insert(imposter));
  EXPECT_EQ(cache.find(r.key)->energy_j, r.energy_j);
}

// ---------------------------------------------------------------------------
// Engine: dedup, warm cache, resume, determinism
// ---------------------------------------------------------------------------

std::vector<CampaignConfig> tiny_sweep() {
  CampaignSpec spec;
  spec.pipelines = {core::PipelineKind::kPostProcessing,
                    core::PipelineKind::kInSitu};
  spec.io_periods = {1, 2};
  std::vector<CampaignConfig> configs = spec.expand();
  for (CampaignConfig& c : configs) {
    const CampaignConfig t = tiny_config();
    c.grid = t.grid;
    c.iterations = t.iterations;
    c.sweeps = t.sweeps;
    c.frame = t.frame;
  }
  return configs;
}

std::string render_json(const CampaignReport& report) {
  std::ostringstream os;
  write_campaign_json(os, report);
  return os.str();
}

TEST(Engine, DuplicatesExecuteOnce) {
  std::vector<CampaignConfig> configs = tiny_sweep();
  const std::size_t unique = configs.size();
  // Append semantic duplicates: one literal copy, one default-spelled twin.
  configs.push_back(configs.front());
  CampaignConfig spelled = configs.front();
  spelled.codec_tolerance = 99.0;  // raw codec: canonicalized away
  configs.push_back(spelled);

  ResultCache cache;
  const CampaignEngine engine(cache);
  const CampaignReport report = engine.run(configs);
  EXPECT_EQ(report.unique_configs, unique);
  EXPECT_EQ(report.duplicates, 2u);
  EXPECT_EQ(report.executed, unique);
  EXPECT_FALSE(report.interrupted);
  // The duplicate rows still carry the shared result.
  EXPECT_EQ(report.results.back(), report.results.front());
  ASSERT_EQ(report.completed.size(), configs.size());
  for (char done : report.completed) {
    EXPECT_NE(done, 0);
  }
}

TEST(Engine, WarmRepeatIsAtLeast20xFaster) {
  // Each side is the fastest of a few runs (noise only ever slows a run),
  // so one descheduled run on either side does not decide the ratio. Every
  // cold run starts from an empty cache.
  constexpr int kRuns = 3;
  const std::vector<CampaignConfig> configs = tiny_sweep();
  const auto timed_run = [&](ResultCache& cache, double& best_s) {
    const auto t0 = std::chrono::steady_clock::now();
    CampaignReport report = CampaignEngine(cache).run(configs);
    best_s = std::min(best_s, std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
    return report;
  };

  ResultCache cache;
  double cold_s = 1e300;
  const CampaignReport cold = timed_run(cache, cold_s);
  EXPECT_EQ(cold.executed, cold.unique_configs);
  for (int run = 1; run < kRuns; ++run) {
    ResultCache fresh;
    EXPECT_EQ(timed_run(fresh, cold_s).executed, cold.unique_configs);
  }
  double warm_s = 1e300;
  for (int run = 0; run < kRuns; ++run) {
    const CampaignReport warm = timed_run(cache, warm_s);
    EXPECT_EQ(warm.executed, 0u);
    EXPECT_EQ(warm.cache_hits, warm.unique_configs);
    EXPECT_EQ(render_json(cold), render_json(warm));
  }
  EXPECT_GE(cold_s, warm_s * 20.0)
      << "cold " << cold_s << " s vs warm " << warm_s << " s";
}

TEST(Engine, ResumedRunRendersByteIdenticalJson) {
  const std::vector<CampaignConfig> configs = tiny_sweep();

  // Reference: one uninterrupted run.
  ResultCache ref_cache;
  std::ostringstream ref_journal;
  const CampaignReport ref =
      CampaignEngine(ref_cache, &ref_journal).run(configs);
  const std::string ref_json = render_json(ref);

  // Interrupted run: stop after 1 executed config.
  ResultCache cold_cache;
  std::ostringstream journal;
  CampaignOptions limit;
  limit.job_limit = 1;
  const CampaignReport partial =
      CampaignEngine(cold_cache, &journal).run(configs, limit);
  EXPECT_TRUE(partial.interrupted);
  EXPECT_EQ(partial.executed, 1u);
  EXPECT_THROW(render_json(partial), util::ContractViolation);

  // Resume in a fresh process: new cache primed from the journal alone.
  ResultCache resumed_cache;
  std::istringstream replay(journal.str());
  EXPECT_EQ(resumed_cache.load_journal(replay), 1u);
  std::ostringstream journal_tail;
  const CampaignReport resumed =
      CampaignEngine(resumed_cache, &journal_tail).run(configs);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.cache_hits, 1u);
  EXPECT_EQ(resumed.executed + partial.executed, ref.executed);
  EXPECT_EQ(render_json(resumed), ref_json);
  // The stitched journal holds exactly the reference's result lines.
  EXPECT_EQ(journal.str().size() + journal_tail.str().size(),
            ref_journal.str().size());
}

TEST(Engine, ShardCountDoesNotChangeResults) {
  const std::vector<CampaignConfig> configs = tiny_sweep();
  ResultCache serial_cache;
  CampaignOptions serial;
  serial.threads = 1;
  const std::string serial_json = render_json(
      CampaignEngine(serial_cache).run(configs, serial));
  for (std::size_t shards : {2u, 5u}) {
    ResultCache cache;
    CampaignOptions options;
    options.threads = 4;
    options.shards = shards;
    const CampaignReport report =
        CampaignEngine(cache).run(configs, options);
    EXPECT_EQ(render_json(report), serial_json) << shards << " shards";
  }
}

TEST(Engine, DeviceKnobChangesPostProcessingResults) {
  CampaignConfig hdd = tiny_config();
  CampaignConfig ssd = tiny_config();
  ssd.device = core::StorageDeviceKind::kSsd;
  ResultCache cache;
  const CampaignReport report = CampaignEngine(cache).run({hdd, ssd});
  ASSERT_EQ(report.executed, 2u);
  // Same science, faster storage: identical images, shorter run.
  EXPECT_EQ(report.results[0].image_digest, report.results[1].image_digest);
  EXPECT_EQ(report.results[0].field_digest, report.results[1].field_digest);
  EXPECT_LT(report.results[1].duration_s, report.results[0].duration_s);
}

TEST(Engine, DeviceAxisSweepProducesOneDistinctRowPerDevice) {
  // The --devices= axis end to end: every requested backend yields a row,
  // the science is device-invariant, and the timings actually differ.
  CampaignSpec spec;
  spec.devices = {core::StorageDeviceKind::kHdd, core::StorageDeviceKind::kSsd,
                  core::StorageDeviceKind::kNvram};
  std::vector<CampaignConfig> configs = spec.expand();
  ASSERT_EQ(configs.size(), 3u);
  std::set<core::StorageDeviceKind> kinds;
  for (CampaignConfig& c : configs) {
    const CampaignConfig t = tiny_config();
    c.grid = t.grid;
    c.iterations = t.iterations;
    c.sweeps = t.sweeps;
    c.frame = t.frame;
    kinds.insert(c.device);
  }
  EXPECT_EQ(kinds.size(), 3u);

  ResultCache cache;
  const CampaignReport report = CampaignEngine(cache).run(configs);
  ASSERT_EQ(report.executed, 3u);
  ASSERT_EQ(report.results.size(), 3u);
  std::set<double> durations;
  std::ostringstream rows;
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    EXPECT_EQ(report.results[i].image_digest, report.results[0].image_digest);
    EXPECT_EQ(report.results[i].field_digest, report.results[0].field_digest);
    EXPECT_GT(report.results[i].duration_s, 0.0);
    durations.insert(report.results[i].duration_s);
    rows << core::storage_device_name(configs[i].device) << "="
         << report.results[i].duration_s << " ";
  }
  // hdd / ssd / nvram model genuinely different hardware; no two should
  // land on the same virtual runtime.
  EXPECT_EQ(durations.size(), 3u) << rows.str();
}

TEST(Engine, ObsCountersTrackHitsAndMisses) {
  obs::set_enabled(true);
  auto& hits = obs::Registry::global().counter("campaign.cache.hits");
  auto& misses = obs::Registry::global().counter("campaign.cache.misses");
  const std::uint64_t hits0 = hits.value();
  const std::uint64_t misses0 = misses.value();

  const std::vector<CampaignConfig> configs = tiny_sweep();
  ResultCache cache;
  const CampaignEngine engine(cache);
  const CampaignReport cold = engine.run(configs);
  const double cold_rate =
      obs::Registry::global().gauge("campaign.configs_per_s").value();
  const CampaignReport warm = engine.run(configs);
  obs::set_enabled(false);

  EXPECT_EQ(misses.value() - misses0, cold.executed);
  EXPECT_EQ(hits.value() - hits0, warm.cache_hits);
  EXPECT_GT(cold_rate, 0.0);
}

// ---------------------------------------------------------------------------
// Query layer: pipeline-switch pairing + advisor input
// ---------------------------------------------------------------------------

TEST(Query, PairsEveryPostConfigWithItsInSituTwin) {
  const std::vector<CampaignConfig> configs = tiny_sweep();
  ResultCache cache;
  const CampaignReport report = CampaignEngine(cache).run(configs);
  const std::vector<PipelineSwitchCase> cases = pipeline_switch_cases(report);
  ASSERT_EQ(cases.size(), 2u);  // one per io_period
  for (const PipelineSwitchCase& sc : cases) {
    EXPECT_EQ(report.configs[sc.post_index].kind,
              core::PipelineKind::kPostProcessing);
    EXPECT_EQ(report.configs[sc.insitu_index].kind,
              core::PipelineKind::kInSitu);
    EXPECT_EQ(report.configs[sc.post_index].io_period,
              report.configs[sc.insitu_index].io_period);
    EXPECT_EQ(sc.whatif.post_energy.value(),
              report.results[sc.post_index].energy_j);
    EXPECT_EQ(sc.whatif.insitu_energy.value(),
              report.results[sc.insitu_index].energy_j);
    // The paper's core claim holds pointwise: in-situ saves energy.
    EXPECT_GT(sc.whatif.energy_savings().value(), 0.0);
  }
}

TEST(Query, AccessPatternCountsWriteAndReadBack) {
  ConfigResult r = sample_result();
  r.visualized_steps = 10;
  const analysis::AccessPattern p = access_pattern_for(r);
  EXPECT_EQ(p.accesses, 20u);
  EXPECT_GT(p.bytes_per_access.value(), 0u);
}

TEST(Query, TopStageConsumersRanksDescendingAndSkipsZeros) {
  ConfigResult r = sample_result();
  r.energy_sim_j = 300.0;
  r.energy_write_j = 500.0;
  r.energy_read_j = 100.0;
  r.energy_vis_j = 0.0;  // zero columns never appear
  r.energy_idle_j = 400.0;
  r.energy_other_j = 0.0;
  const auto top = top_stage_consumers(r, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].stage, core::stage::kWrite);
  EXPECT_DOUBLE_EQ(top[0].joules, 500.0);
  EXPECT_EQ(top[1].stage, obs::kEnergyIdle);
  EXPECT_EQ(top[2].stage, core::stage::kSimulation);
  // n larger than the non-zero column count: no padding.
  EXPECT_EQ(top_stage_consumers(r, 10).size(), 4u);
}

// ---------------------------------------------------------------------------
// BatchRunner sizing (the oversubscription fix rides along with the engine)
// ---------------------------------------------------------------------------

TEST(BatchSizing, ThreadsPerJobDividesByJobsInFlight) {
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  auto share = [&](std::size_t in_flight) {
    return std::max<std::size_t>(1, cores / in_flight);
  };
  const core::BatchRunner r16(16);
  EXPECT_EQ(r16.host_threads_per_job(2), share(2));  // was share(16) pre-fix
  EXPECT_EQ(r16.host_threads_per_job(4), share(4));
  EXPECT_EQ(r16.host_threads_per_job(16), share(16));
  // More jobs than the cap: at most `concurrency` are ever in flight.
  EXPECT_EQ(r16.host_threads_per_job(100), share(16));
  EXPECT_EQ(r16.host_threads_per_job(0), share(16));  // unknown => saturated
  EXPECT_EQ(r16.host_threads_per_job(1), 0u);  // serial: pipeline default
  const core::BatchRunner r1(1);
  EXPECT_EQ(r1.host_threads_per_job(8), 0u);  // one job in flight at a time
  // The point of the fix: a small batch must never get fewer threads per
  // job than a saturating one.
  EXPECT_GE(r16.host_threads_per_job(2), r16.host_threads_per_job(16));
}

}  // namespace
}  // namespace greenvis::campaign
