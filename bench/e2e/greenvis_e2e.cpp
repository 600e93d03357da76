// greenvis_e2e — end-to-end host-cost benchmark with a traced per-layer
// ledger. See bench/e2e/README.md for the metrics, the workloads and why
// each was chosen.
//
//   greenvis_e2e --check-refs
//   greenvis_e2e --workload W --out DIR [--seed N] [--traced] [--smoke]
//                [--commit C]
//
// One process runs one workload as a closed loop: one client issues ops
// back to back with no think time. Every host-thread knob is set to
// T = min(4, nproc). setup_s is the median of kSetupReps cold starts, each
// a fresh process (`--cold-op`) timed from its spawn to the end of its
// first op. The process then sets the workload up itself, runs one cold
// op, and times ops until kRunSeconds have passed and at least kMinOps
// ops ran, checking each op's output after its timer stops.
//
// Untraced, the metrics are the end-to-end ones. Traced (--traced),
// untraced and traced ops alternate; traced ops switch on
// obs collection and the energy profiler, every op is wrapped in a root
// span `bench.op` and every public call it makes in a `bench.<call>` span,
// and the recorded spans and registry counters become the per-layer
// ledger. Nothing here adds a span or counter inside src/.
//
// Only stable public entry points are called, so the same file measures a
// parent commit and a change.
#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/analysis/attribution.hpp"
#include "src/campaign/cache.hpp"
#include "src/campaign/config.hpp"
#include "src/campaign/engine.hpp"
#include "src/campaign/hash.hpp"
#include "src/codec/field_codec.hpp"
#include "src/core/experiment.hpp"
#include "src/core/testbed.hpp"
#include "src/core/workload.hpp"
#include "src/heat/solver.hpp"
#include "src/heat/solver3d.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/registry.hpp"
#include "src/obs/tracer.hpp"
#include "src/serve/session.hpp"
#include "src/serve/viewer.hpp"
#include "src/util/checksum.hpp"
#include "src/util/numa.hpp"
#include "src/util/simd/simd.hpp"
#include "src/util/thread_pool.hpp"
#include "src/vis/volume.hpp"

namespace {

using namespace greenvis;
using Clock = std::chrono::steady_clock;

constexpr const char* kEnergyGolden = "tools/golden/ENERGY_profile_case1.json";
constexpr const char* kServeGolden = "tools/golden/SERVE_profile_case1.json";
constexpr const char* kRefDigests = "bench/e2e/refs/digests.txt";
constexpr const char* kRefJournal = "bench/e2e/refs/campaign_full.journal";
constexpr const char* kRefCampaignJson = "bench/e2e/refs/campaign_cold.json";

constexpr int kSetupReps = 3;
// The run length: BENCHMARK.json `run_seconds`.
constexpr double kRunSeconds = 15.0;
// The tail is the 75th percentile, which keeps >= 10 samples beyond it when
// at least 40 ops ran; peak RSS is read after exactly that many ops because
// RSS grows per op and a faster build must not be charged for running more.
constexpr std::size_t kMinOps = 40;
constexpr std::size_t kMinTracedPairs = 10;
constexpr std::size_t kSmokeOps = 2;
constexpr const char* kCatBench = "bench";

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile: at least (1 - p) * n samples lie at or beyond it.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw std::runtime_error("cannot read " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::uint64_t fnv1a64(std::string_view bytes) {
  return util::fnv1a64(std::span(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

/// `name hex` lines of refs/digests.txt.
std::map<std::string, std::string> load_ref_digests() {
  std::map<std::string, std::string> out;
  for (const std::string& line : split_lines(read_file(kRefDigests))) {
    std::istringstream fields(line);
    std::string name;
    std::string digest;
    if (fields >> name >> digest) {
      out[name] = digest;
    }
  }
  return out;
}

/// Deterministic input generator (splitmix64): the same seed gives the same
/// inputs on every host. It is the benchmark's own, not util::Rng, so a change
/// to the library cannot change the inputs it is measured on.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [lo, hi].
  int uniform(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t state_;
};

/// Seed 1 keeps the committed inputs; any other seed moves each heat source
/// centre by up to +-4 cells.
void jitter_sources(std::vector<heat::HeatSource>& sources, SeedRng& rng,
                    std::uint64_t seed) {
  if (seed == 1) {
    return;
  }
  for (heat::HeatSource& s : sources) {
    s.cx += rng.uniform(-4, 4);
    s.cy += rng.uniform(-4, 4);
  }
}

// ---------------------------------------------------------------------------
// Workloads

/// One workload: builds its inputs from the seed, runs one op, and judges an
/// op's output. `facts` carries per-op values that no span or counter holds
/// (read by the output check and the traced ledger).
class Workload {
 public:
  virtual ~Workload() = default;

  /// Run one op; returns its output bytes.
  virtual std::string run_op() = 0;

  /// Empty when `out` (the bytes of the op that just ran) is correct.
  /// Without a committed reference the first output checked becomes the
  /// reference, so later ops are checked for determinism.
  std::string check(const std::string& out) {
    if (std::string why = check_facts(); !why.empty()) {
      return why;
    }
    if (expected_.empty()) {
      expected_ = out;
      return "";
    }
    if (out != expected_) {
      const auto show = [](const std::string& bytes) {
        return bytes.size() <= 64 ? bytes : "fnv1a " + hex64(fnv1a64(bytes));
      };
      return "output " + show(out) + " differs from " + expected_source_ +
             " " + show(expected_);
    }
    return "";
  }

  std::map<std::string, double> facts;

 protected:
  virtual std::string check_facts() { return ""; }

  void expect(std::string bytes, std::string source) {
    expected_ = std::move(bytes);
    expected_source_ = std::move(source);
  }

 private:
  std::string expected_;
  std::string expected_source_{"the cold op's output"};
};

/// `greenvis profile --case 1`: the post-processing pipeline plus its
/// ENERGY_profile JSON (top 5).
class PostCase1 final : public Workload {
 public:
  PostCase1(std::uint64_t seed, std::size_t threads) {
    SeedRng rng(seed);
    config_ = core::case_study(1);
    jitter_sources(config_.problem.sources, rng, seed);
    options_.host_threads = threads;
    if (seed == 1) {
      expect(read_file(kEnergyGolden), kEnergyGolden);
    }
    // `greenvis profile` runs with the energy profiler on.
    obs::set_energy_profiler_enabled(true);
  }

  std::string run_op() override {
    core::PipelineMetrics metrics;
    {
      obs::ScopedSpan span("bench.experiment_run", kCatBench);
      metrics = core::Experiment().run(core::PipelineKind::kPostProcessing,
                                       config_, options_);
    }
    facts["conservation_error"] = metrics.attribution.conservation_error;
    std::ostringstream os;
    {
      obs::ScopedSpan span("bench.report", kCatBench);
      analysis::write_energy_profile_json(os, metrics.attribution,
                                          metrics.pipeline_name,
                                          metrics.case_name, 5);
    }
    return os.str();
  }

 protected:
  std::string check_facts() override {
    const double err = facts["conservation_error"];
    return err < 1e-9 ? "" : "conservation error " + std::to_string(err);
  }

 private:
  core::CaseStudyConfig config_;
  core::PipelineOptions options_;
};

/// `greenvis serve --case 1 --viewers 8 --views 4`: the CLI's mid-run region
/// and palette steer, plus the single-viewer baseline session.
class ServeCase1 final : public Workload {
 public:
  ServeCase1(std::uint64_t seed, std::size_t threads) {
    SeedRng rng(seed);
    config_.base = core::case_study(1);
    jitter_sources(config_.base.problem.sources, rng, seed);
    config_.viewers = serve::default_fleet(8, 4);
    config_.host_threads = threads;
    serve::SteerCommand steer;
    steer.step = config_.base.iterations / 2;
    steer.viewer = 0;
    steer.kind = serve::SteerKind::kRegion;
    steer.x0 = 0.25;
    steer.y0 = 0.25;
    if (seed != 1) {
      // The steer step stays near mid-run: every step earlier adds one
      // unique view per frame step, so a wide range would make the host
      // render count, not the code, set the op time.
      steer.step += rng.uniform(-3, 3);
      steer.viewer = rng.uniform(0, 7);
      steer.x0 += rng.uniform(-16, 16) / 128.0;
      steer.y0 += rng.uniform(-16, 16) / 128.0;
    }
    steer.x1 = steer.x0 + 0.5;
    steer.y1 = steer.y0 + 0.5;
    config_.commands.push_back(steer);
    steer.kind = serve::SteerKind::kPalette;
    steer.palette = vis::Palette::kGrayscale;
    config_.commands.push_back(steer);
    if (seed == 1) {
      expect(read_file(kServeGolden), kServeGolden);
    }
  }

  std::string run_op() override {
    serve::ServeReport report;
    {
      obs::ScopedSpan span("bench.serve", kCatBench);
      report = serve::run_serve_with_baseline(config_, core::TestbedConfig{});
    }
    facts["serve_cache_hits"] = static_cast<double>(report.cache.hits);
    facts["serve_cache_misses"] = static_cast<double>(report.cache.misses);
    facts["serve_host_renders"] = static_cast<double>(report.host_renders);
    facts["serve_frames_delivered"] =
        static_cast<double>(report.frames_delivered);
    std::ostringstream os;
    {
      obs::ScopedSpan span("bench.report", kCatBench);
      serve::write_serve_profile_json(os, config_, report);
    }
    return os.str();
  }

 private:
  serve::ServeConfig config_;
};

/// The campaign sweep, as `greenvis campaign --pipelines=post,async,insitu
/// --codecs=raw,delta --periods=8,1`: 12 configs at the CLI defaults (grid
/// 128, 50 iterations), 10 unique after canonicalisation.
std::vector<campaign::CampaignConfig> campaign_sweep() {
  campaign::CampaignSpec spec;
  spec.pipelines = {core::PipelineKind::kPostProcessing,
                    core::PipelineKind::kPostProcessingAsync,
                    core::PipelineKind::kInSitu};
  spec.codecs = {codec::Kind::kRaw, codec::Kind::kDelta};
  // Period 8 first: the first shard then holds two cheap misses, so the
  // two expensive period-1 misses run on their own threads whatever the
  // steal timing, and the op's makespan does not flip between runs.
  spec.io_periods = {8, 1};
  return spec.expand();
}

/// Canonical keys of the sweep, first occurrence order.
std::vector<std::string> campaign_keys(
    const std::vector<campaign::CampaignConfig>& configs) {
  std::vector<std::string> keys;
  for (const campaign::CampaignConfig& c : configs) {
    const std::string key = campaign::config_key(campaign::canonicalize(c));
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      keys.push_back(key);
    }
  }
  return keys;
}

/// A fresh ResultCache loads 5 of the 10 committed journal lines, then the
/// engine runs the sweep: 5 hits, 5 misses executed and journaled to memory.
class CampaignResume final : public Workload {
 public:
  CampaignResume(std::uint64_t seed, std::size_t threads) {
    configs_ = campaign_sweep();
    options_.threads = threads;
    std::map<std::string, std::string> line_of;
    for (const std::string& line : split_lines(read_file(kRefJournal))) {
      if (const auto r = campaign::decode_line(line)) {
        line_of[r->key] = line;
      }
    }
    // A period-1 config costs about 5x a period-8 one, the executed
    // configs' order decides how the work-stealing shards balance, and each
    // async config starts a staging thread whose tracer block stays
    // resident. So at each (codec, period) the seed only picks whether the
    // post-processing config or its async twin runs — same cost, same place
    // in the list — and always runs exactly two async ones. In-situ period 1
    // is always pre-journaled and period 8 always executed.
    constexpr unsigned kAsyncSlots[] = {0b0011, 0b0101, 0b0110,
                                        0b1001, 0b1010, 0b1100};
    const unsigned async_slots =
        kAsyncSlots[seed == 1 ? 0 : SeedRng(seed).next() % 6];
    std::set<std::string> journaled;
    std::map<std::string, std::vector<std::string>> twins;  // codec/period
    for (const campaign::CampaignConfig& raw : configs_) {
      const campaign::CampaignConfig c = campaign::canonicalize(raw);
      const std::string key = campaign::config_key(c);
      if (c.kind == core::PipelineKind::kInSitu) {
        if (c.io_period == 1) {
          journaled.insert(key);
        }
        continue;
      }
      twins[std::string(codec::kind_name(c.codec_kind)) + "/" +
            std::to_string(c.io_period)]
          .push_back(key);  // post-processing first, then async
    }
    unsigned slot_bit = 1;
    for (const auto& [slot, pair] : twins) {
      if (twins.size() != 4 || pair.size() != 2) {
        throw std::runtime_error("campaign slot " + slot + " has " +
                                 std::to_string(pair.size()) + " configs");
      }
      // Journal the twin that does not run.
      journaled.insert(pair[(async_slots & slot_bit) != 0 ? 0 : 1]);
      slot_bit <<= 1;
    }
    for (const std::string& key : journaled) {
      const auto it = line_of.find(key);
      if (it == line_of.end()) {
        throw std::runtime_error(std::string(kRefJournal) + " lacks key " +
                                 key);
      }
      journal_ += it->second + "\n";
    }
    expect(read_file(kRefCampaignJson), kRefCampaignJson);
  }

  std::string run_op() override {
    campaign::ResultCache cache;
    std::size_t loaded = 0;
    {
      obs::ScopedSpan span("bench.load_journal", kCatBench);
      std::istringstream in(journal_);
      loaded = cache.load_journal(in);
    }
    std::ostringstream appended;
    campaign::CampaignReport report;
    {
      obs::ScopedSpan span("bench.campaign_run", kCatBench);
      report = campaign::CampaignEngine(cache, &appended).run(configs_,
                                                              options_);
    }
    facts["loaded"] = static_cast<double>(loaded);
    facts["cache_hits"] = static_cast<double>(report.cache_hits);
    facts["executed"] = static_cast<double>(report.executed);
    facts["duplicates"] = static_cast<double>(report.duplicates);
    facts["host_seconds"] = report.host_seconds;
    facts["journaled"] =
        static_cast<double>(split_lines(appended.str()).size());
    std::ostringstream os;
    {
      obs::ScopedSpan span("bench.report", kCatBench);
      campaign::write_campaign_json(os, report);
    }
    return os.str();
  }

 protected:
  std::string check_facts() override {
    for (const char* name :
         {"loaded", "cache_hits", "executed", "journaled"}) {
      if (facts[name] != 5.0) {
        return std::string(name) + " = " + std::to_string(facts[name]) +
               ", expected 5";
      }
    }
    if (facts["duplicates"] != 2.0) {
      return "duplicates = " + std::to_string(facts["duplicates"]) +
             ", expected 2";
    }
    return "";
  }

 private:
  std::vector<campaign::CampaignConfig> configs_;
  campaign::CampaignOptions options_;
  std::string journal_;
};

/// The in-situ branch of bench/abl_3d_volume.cpp at 96^3 (sources scaled
/// x1.5): 12 solver steps, a 192^2 volume render every 2nd step, the
/// modeled compute on a Testbed and its power profile. The output is an
/// FNV-1a digest over the frame digests and the bits of the virtual seconds
/// and joules.
class Volume3DInSitu final : public Workload {
 public:
  Volume3DInSitu(std::uint64_t seed, std::size_t threads) : threads_(threads) {
    SeedRng rng(seed);
    problem_.nx = problem_.ny = problem_.nz = 96;
    problem_.sources = {heat::HeatSource3D{30.0, 33.0, 60.0, 7.5, 100.0},
                        heat::HeatSource3D{66.0, 60.0, 30.0, 10.5, 60.0}};
    if (seed != 1) {
      for (heat::HeatSource3D& s : problem_.sources) {
        s.cx += rng.uniform(-4, 4);
        s.cy += rng.uniform(-4, 4);
        s.cz += rng.uniform(-4, 4);
      }
    }
    vis_.width = 192;
    vis_.height = 192;
    vis_.tf.lo = 0.0;
    vis_.tf.hi = 100.0;
    vis_.tf.opacity_scale = 0.12;
    if (seed == 1) {
      const auto refs = load_ref_digests();
      const auto it = refs.find("volume3d_insitu_seed1");
      if (it == refs.end()) {
        throw std::runtime_error(std::string(kRefDigests) +
                                 " lacks volume3d_insitu_seed1");
      }
      expect(it->second, kRefDigests);
    }
  }

  std::string run_op() override {
    std::unique_ptr<core::Testbed> bed;
    {
      obs::ScopedSpan span("bench.testbed", kCatBench);
      bed = std::make_unique<core::Testbed>();
    }
    util::ThreadPool pool(threads_);
    std::unique_ptr<heat::HeatSolver3D> solver;
    {
      obs::ScopedSpan span("bench.heat3d_init", kCatBench);
      solver = std::make_unique<heat::HeatSolver3D>(problem_, &pool);
    }
    std::vector<std::uint64_t> words;
    for (int step = 0; step < kSteps; ++step) {
      {
        obs::ScopedSpan span("bench.heat3d_step", kCatBench);
        solver->step();
      }
      {
        obs::ScopedSpan span("bench.run_compute", kCatBench);
        bed->run_compute(solver->step_activity(), core::stage::kSimulation);
      }
      if (step % kRenderPeriod != 0) {
        continue;
      }
      vis::Image image;
      {
        obs::ScopedSpan span("bench.render_volume", kCatBench);
        image = vis::render_volume(solver->temperature(), vis_, &pool);
      }
      {
        obs::ScopedSpan span("bench.run_compute", kCatBench);
        bed->run_compute(
            vis::volume_render_activity(solver->temperature(), vis_),
            core::stage::kVisualization);
      }
      words.push_back(image.digest());
    }
    double joules = 0.0;
    {
      obs::ScopedSpan span("bench.profile", kCatBench);
      joules = bed->profile().energy(&power::PowerSample::system).value();
    }
    const double seconds = bed->clock().now().value();
    words.push_back(std::bit_cast<std::uint64_t>(seconds));
    words.push_back(std::bit_cast<std::uint64_t>(joules));
    return hex64(fnv1a64(std::string_view(
        reinterpret_cast<const char*>(words.data()),
        words.size() * sizeof(std::uint64_t))));
  }

 private:
  static constexpr int kSteps = 12;
  static constexpr int kRenderPeriod = 2;
  std::size_t threads_;
  heat::HeatProblem3D problem_;
  vis::VolumeConfig vis_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        std::size_t threads) {
  if (name == "post_case1") {
    return std::make_unique<PostCase1>(seed, threads);
  }
  if (name == "serve_case1") {
    return std::make_unique<ServeCase1>(seed, threads);
  }
  if (name == "campaign_resume") {
    return std::make_unique<CampaignResume>(seed, threads);
  }
  if (name == "volume3d_insitu") {
    return std::make_unique<Volume3DInSitu>(seed, threads);
  }
  throw std::runtime_error("unknown workload '" + name + "'");
}

// ---------------------------------------------------------------------------
// Traced ledger

/// The layer a `bench.<call>` span belongs to: the module of the call.
const std::map<std::string, std::string, std::less<>>& bench_call_layers() {
  static const std::map<std::string, std::string, std::less<>> layers{
      {"bench.experiment_run", "core"}, {"bench.testbed", "core"},
      {"bench.run_compute", "core"},    {"bench.profile", "core"},
      {"bench.heat3d_init", "heat"},    {"bench.heat3d_step", "heat"},
      {"bench.render_volume", "vis"},   {"bench.serve", "serve"},
      {"bench.load_journal", "campaign"}, {"bench.campaign_run", "campaign"},
      {"bench.report", "analysis"},
  };
  return layers;
}

/// Layer owning a span's self time. Empty for pool spans, which are
/// transparent: a dispatch's self time is the dispatching layer's work on
/// the calling thread, and a worker's drain is that layer's work elsewhere.
std::string layer_of(const obs::SpanEvent& e) {
  const std::string_view cat = e.category;
  const std::string_view name = e.name;
  if (cat == kCatBench) {
    const auto& calls = bench_call_layers();
    const auto it = calls.find(name);
    return it != calls.end() ? it->second : "unattributed";
  }
  if (cat == obs::kCatPool) {
    return "";
  }
  if (cat == obs::kCatCore || cat == obs::kCatStage) {
    return "core";
  }
  if (cat == obs::kCatIo) {
    return name.starts_with("sched.") ? "sched" : "storage";
  }
  return std::string(cat);  // heat, vis, campaign, serve, and any new one
}

/// Self time per layer of one traced op: a span's duration minus its
/// same-thread children, summed over every thread.
std::map<std::string, double> layer_self_ns(
    const std::vector<obs::SpanEvent>& events) {
  struct Node {
    const obs::SpanEvent* e{nullptr};
    std::uint64_t end{0};
    std::uint64_t child_ns{0};
    long parent{-1};
    std::string layer;
    int state{0};  // 0 unresolved, 1 resolving, 2 resolved
  };
  std::vector<Node> nodes;
  nodes.reserve(events.size());
  for (const obs::SpanEvent& e : events) {
    nodes.push_back(Node{&e, e.begin_ns + e.dur_ns, 0, -1, "", 0});
  }
  std::vector<std::size_t> order(nodes.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const obs::SpanEvent& x = *nodes[a].e;
    const obs::SpanEvent& y = *nodes[b].e;
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.begin_ns != y.begin_ns) return x.begin_ns < y.begin_ns;
    return x.dur_ns > y.dur_ns;
  });
  std::vector<std::size_t> open;
  std::uint32_t tid = 0;
  for (const std::size_t i : order) {
    Node& n = nodes[i];
    if (open.empty() || n.e->tid != tid) {
      open.clear();
      tid = n.e->tid;
    }
    while (!open.empty() && nodes[open.back()].end < n.end) {
      open.pop_back();
    }
    if (!open.empty()) {
      n.parent = static_cast<long>(open.back());
      nodes[open.back()].child_ns += n.e->dur_ns;
    }
    open.push_back(i);
  }

  // Dispatches by begin time, for charging worker drains to their caller.
  std::vector<std::size_t> dispatches;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].e->name == "pool.dispatch") {
      dispatches.push_back(i);
    }
  }
  std::sort(dispatches.begin(), dispatches.end(),
            [&](std::size_t a, std::size_t b) {
              return nodes[a].e->begin_ns < nodes[b].e->begin_ns;
            });
  const auto containing_dispatch = [&](const Node& n) -> long {
    auto it = std::upper_bound(
        dispatches.begin(), dispatches.end(), n.e->begin_ns,
        [&](std::uint64_t t, std::size_t d) { return t < nodes[d].e->begin_ns; });
    while (it != dispatches.begin()) {
      --it;
      const Node& d = nodes[*it];
      if (d.e->tid != n.e->tid && d.end >= n.end) {
        return static_cast<long>(*it);
      }
    }
    return -1;
  };
  const std::function<const std::string&(std::size_t)> resolve =
      [&](std::size_t i) -> const std::string& {
    Node& n = nodes[i];
    if (n.state == 2) {
      return n.layer;
    }
    n.layer = layer_of(*n.e);
    if (n.layer.empty() && n.state == 0) {
      n.state = 1;
      const long up = n.parent >= 0 ? n.parent : containing_dispatch(n);
      n.layer = up >= 0 ? resolve(static_cast<std::size_t>(up)) : "";
    }
    if (n.layer.empty()) {
      n.layer = "util";  // pool work no caller can be found for
    }
    n.state = 2;
    return n.layer;
  };

  std::map<std::string, double> self;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    const std::uint64_t own =
        n.e->dur_ns > n.child_ns ? n.e->dur_ns - n.child_ns : 0;
    self[resolve(i)] += static_cast<double>(own);
  }
  return self;
}

template <typename Map>
typename Map::mapped_type value_or_zero(const Map& map, const std::string& key) {
  const auto it = map.find(key);
  return it != map.end() ? it->second : typename Map::mapped_type{};
}

/// Sums over the traced ops of a run.
struct Ledger {
  std::size_t ops{0};
  std::map<std::string, double> self_ns;  // per layer
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> histograms;  // count, sum
  std::map<std::string, std::pair<double, double>> calls;  // count, ns
  std::map<std::string, double> facts;
  double spans{0.0};
  double dropped{0.0};

  /// One traced op: its spans, the registry before and after it, and the
  /// workload's facts.
  void add(const std::vector<obs::SpanEvent>& events,
           const obs::MetricsSnapshot& before,
           const obs::MetricsSnapshot& after,
           const std::map<std::string, double>& op_facts,
           std::uint64_t dropped_spans) {
    ++ops;
    for (const auto& [layer, ns] : layer_self_ns(events)) {
      self_ns[layer] += ns;
    }
    for (const auto& c : before.counters) {
      counters[c.name] -= static_cast<double>(c.value);
    }
    for (const auto& c : after.counters) {
      counters[c.name] += static_cast<double>(c.value);
    }
    for (const auto& h : before.histograms) {
      histograms[h.name].first -= static_cast<double>(h.count);
      histograms[h.name].second -= h.sum;
    }
    for (const auto& h : after.histograms) {
      histograms[h.name].first += static_cast<double>(h.count);
      histograms[h.name].second += h.sum;
    }
    for (const obs::SpanEvent& e : events) {
      if (std::string_view(e.category) == kCatBench ||
          e.name == "serve.encode" || e.name == "sched.write") {
        calls[e.name].first += 1.0;
        calls[e.name].second += static_cast<double>(e.dur_ns);
      }
    }
    for (const auto& [name, v] : op_facts) {
      facts[name] += v;
    }
    spans += static_cast<double>(events.size());
    dropped += static_cast<double>(dropped_spans);
  }
};

/// Delta-codec probe over the 50 case-1 snapshot fields (codec has no
/// spans). Traced runs only; each call times one encode and one decode pass.
class CodecProbe {
 public:
  CodecProbe() {
    heat::HeatSolver solver(core::case_study(1).problem, nullptr);
    for (int step = 0; step < 50; ++step) {
      solver.step();
      fields_.push_back(solver.temperature());
    }
    blobs_.resize(fields_.size());
  }

  void sample() {
    codec::CodecConfig config;
    config.kind = codec::Kind::kDelta;
    codec::FieldCodec codec(config);
    double raw = 0.0;
    double encoded = 0.0;
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      codec.encode(fields_[i], blobs_[i]);
      raw += static_cast<double>(codec.last_stats().raw_bytes);
      encoded += static_cast<double>(blobs_[i].size());
    }
    const double encode_s = seconds_since(t0);
    t0 = Clock::now();
    for (const std::vector<std::uint8_t>& blob : blobs_) {
      codec.decode_into(blob, decoded_);
    }
    const double decode_s = seconds_since(t0);
    encode_mbps_.push_back(ratio(raw / 1e6, encode_s));
    decode_mbps_.push_back(ratio(raw / 1e6, decode_s));
    ratio_ = ratio(raw, encoded);
  }

  [[nodiscard]] double encode_mbps() const { return median(encode_mbps_); }
  [[nodiscard]] double decode_mbps() const { return median(decode_mbps_); }
  [[nodiscard]] double compression_ratio() const { return ratio_; }

 private:
  std::vector<util::Field2D> fields_;
  std::vector<std::vector<std::uint8_t>> blobs_;
  util::Field2D decoded_;
  std::vector<double> encode_mbps_;
  std::vector<double> decode_mbps_;
  double ratio_{0.0};
};

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    v = 0.0;
  }
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(metrics[i].name) +
           ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// The per-layer metrics of the result line (BENCHMARK.json `per_layer`):
/// those measured on every workload. A layer that some workload bypasses
/// appears through its share and its counts, which read 0 there; its
/// milliseconds are in layers_<workload>.json.
const std::vector<std::string>& contract_layer_metrics() {
  static const std::vector<std::string> names{
      "core.self_ms_per_op",        "core.unattributed_ms_per_op",
      "core.experiment_runs_per_op", "heat.self_ms_per_op",
      "heat.mcups",                 "heat.cell_updates_per_op",
      "vis.self_ms_per_op",         "vis.ms_per_frame",
      "vis.frames_per_op",          "storage.self_share",
      "storage.requests_per_op",    "storage.bytes_written_per_op",
      "storage.bytes_read_per_op",  "storage.page_cache_hit_ratio",
      "storage.errors_per_op",      "codec.delta_encode_mbps",
      "codec.delta_decode_mbps",    "codec.delta_ratio",
      "sched.self_share",           "sched.stalls_per_op",
      "sched.snapshots_staged_per_op", "util.pool_busy_ratio",
      "util.pool_idle_ms_per_op",   "util.pool_dispatch_us_mean",
      "util.pool_dispatches_per_op", "campaign.self_share",
      "campaign.executed_per_op",   "campaign.cache_hits_per_op",
      "campaign.duplicates_per_op", "campaign.steals_per_op",
      "serve.self_share",           "serve.cache_hit_ratio",
      "serve.host_renders_per_op",  "serve.frames_delivered_per_op",
      "analysis.self_share",        "obs.trace_overhead_pct",
      "obs.spans_per_op",           "obs.dropped_spans",
  };
  return names;
}

/// Every per-layer metric of a traced run (layers_<workload>.json).
std::vector<Metric> layer_metrics(const Ledger& l, const CodecProbe& probe,
                                  double traced_p50_ms,
                                  double untraced_p50_ms) {
  const auto per_op = [&](double v) {
    return ratio(v, static_cast<double>(l.ops));
  };
  const auto counter = [&](const char* name) {
    return value_or_zero(l.counters, name);
  };
  const auto histogram = [&](const char* name) {
    return value_or_zero(l.histograms, name);
  };
  const auto call = [&](const char* name) { return value_or_zero(l.calls, name); };
  const auto fact = [&](const char* name) { return value_or_zero(l.facts, name); };
  const auto self_ms = [&](const std::string& layer) {
    return per_op(value_or_zero(l.self_ns, layer)) / 1e6;
  };
  double total_ns = 0.0;
  for (const auto& [layer, ns] : l.self_ns) {
    total_ns += ns;
  }
  const auto share = [&](const std::string& layer) {
    return ratio(value_or_zero(l.self_ns, layer), total_ns);
  };

  std::vector<Metric> m;
  std::set<std::string> layers{"core",  "heat",     "vis",   "storage",
                               "sched", "campaign", "serve", "analysis"};
  for (const auto& [layer, ns] : l.self_ns) {
    if (layer != "unattributed") {
      layers.insert(layer);
    }
  }
  for (const std::string& layer : layers) {
    m.push_back({layer + ".self_ms_per_op", self_ms(layer), "ms"});
    m.push_back({layer + ".self_share", share(layer), "ratio"});
  }
  m.push_back({"core.unattributed_ms_per_op", self_ms("unattributed"), "ms"});
  m.push_back({"core.unattributed_share", share("unattributed"), "ratio"});
  m.push_back({"core.experiment_runs_per_op",
               per_op(counter("core.experiment_runs")), "count"});

  const double cells =
      counter("heat2d.cell_updates") + counter("heat3d.cell_updates");
  const double step_us =
      histogram("heat2d.step_us").second + histogram("heat3d.step_us").second;
  m.push_back({"heat.mcups", ratio(cells, step_us), "Mcell/s"});
  m.push_back({"heat.cell_updates_per_op", per_op(cells), "count"});

  const auto [volume_frames, volume_ns] = call("bench.render_volume");
  const double frames = counter("vis.frames") + volume_frames;
  m.push_back({"vis.ms_per_frame", ratio(self_ms("vis"), per_op(frames)), "ms"});
  m.push_back({"vis.frames_per_op", per_op(frames), "count"});
  m.push_back({"vis.volume_ms_per_frame", ratio(volume_ns / 1e6, volume_frames),
               "ms"});

  const double requests = counter("storage.writes") + counter("storage.reads");
  const double hits = counter("storage.page_cache.hits");
  m.push_back({"storage.us_per_request",
               ratio(self_ms("storage") * 1e3, per_op(requests)), "us"});
  m.push_back({"storage.requests_per_op", per_op(requests), "count"});
  m.push_back({"storage.bytes_written_per_op",
               per_op(counter("storage.bytes_written")), "B"});
  m.push_back({"storage.bytes_read_per_op",
               per_op(counter("storage.bytes_read")), "B"});
  m.push_back({"storage.page_cache_hit_ratio",
               ratio(hits, hits + counter("storage.page_cache.misses")),
               "ratio"});
  m.push_back({"storage.errors_per_op", per_op(counter("storage.async.errors")),
               "count"});

  m.push_back({"codec.delta_encode_mbps", probe.encode_mbps(), "MB/s"});
  m.push_back({"codec.delta_decode_mbps", probe.decode_mbps(), "MB/s"});
  m.push_back({"codec.delta_ratio", probe.compression_ratio(), "ratio"});

  m.push_back({"sched.write_ms_per_op", per_op(call("sched.write").second) / 1e6,
               "ms"});
  m.push_back({"sched.stalls_per_op", per_op(counter("sched.stalls")), "count"});
  m.push_back({"sched.snapshots_staged_per_op",
               per_op(counter("sched.snapshots_staged")), "count"});

  const double busy = counter("pool.worker_busy_ns");
  const double idle = counter("pool.worker_idle_ns");
  const auto [dispatches, dispatch_us] = histogram("pool.dispatch_us");
  m.push_back({"util.pool_busy_ratio", ratio(busy, busy + idle), "ratio"});
  m.push_back({"util.pool_idle_ms_per_op", per_op(idle) / 1e6, "ms"});
  m.push_back({"util.pool_dispatch_us_mean", ratio(dispatch_us, dispatches),
               "us"});
  m.push_back({"util.pool_dispatches_per_op", per_op(counter("pool.dispatches")),
               "count"});

  const auto [loads, load_ns] = call("bench.load_journal");
  m.push_back({"campaign.journal_load_ms", ratio(load_ns / 1e6, loads), "ms"});
  m.push_back({"campaign.configs_per_s",
               ratio(fact("executed"), fact("host_seconds")), "1/s"});
  m.push_back({"campaign.executed_per_op", per_op(fact("executed")), "count"});
  m.push_back({"campaign.cache_hits_per_op",
               per_op(counter("campaign.cache.hits")), "count"});
  m.push_back({"campaign.duplicates_per_op", per_op(fact("duplicates")),
               "count"});
  m.push_back({"campaign.steals_per_op",
               per_op(counter("campaign.shard.steals")), "count"});

  const double serve_hits = fact("serve_cache_hits");
  m.push_back({"serve.encode_ms_per_op",
               per_op(call("serve.encode").second) / 1e6, "ms"});
  m.push_back({"serve.cache_hit_ratio",
               ratio(serve_hits, serve_hits + fact("serve_cache_misses")),
               "ratio"});
  m.push_back({"serve.host_renders_per_op", per_op(fact("serve_host_renders")),
               "count"});
  m.push_back({"serve.frames_delivered_per_op",
               per_op(fact("serve_frames_delivered")), "count"});

  m.push_back({"obs.trace_overhead_pct",
               (ratio(traced_p50_ms, untraced_p50_ms) - 1.0) * 100.0, "%"});
  m.push_back({"obs.spans_per_op", per_op(l.spans), "count"});
  m.push_back({"obs.dropped_spans", l.dropped, "count"});
  return m;
}

// ---------------------------------------------------------------------------
// Runs

struct Options {
  std::string program;  // argv[0], spawned again for each cold start
  std::string workload;
  std::uint64_t seed{1};
  bool traced{false};
  bool smoke{false};
  bool cold_op{false};
  std::string out_dir;
  std::string commit{"unknown"};
};

double peak_rss_mib() {
  rusage r{};
  getrusage(RUSAGE_SELF, &r);
  return static_cast<double>(r.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double cpu_seconds() {
  rusage r{};
  getrusage(RUSAGE_SELF, &r);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return sec(r.ru_utime) + sec(r.ru_stime);
}

/// Attempted/failed op bookkeeping.
struct Tally {
  std::size_t attempted{0};
  std::size_t failed{0};
  std::string first_failure;
  Clock::time_point last_end;  // when the last op's timer stopped

  /// Run and time one op; the output is checked after the timer stops.
  double op(Workload& w) {
    ++attempted;
    std::string out;
    std::string why;
    const auto t0 = Clock::now();
    try {
      out = w.run_op();
    } catch (const std::exception& e) {
      why = std::string("op threw: ") + e.what();
    }
    last_end = Clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(last_end - t0).count();
    if (why.empty()) {
      why = w.check(out);
    }
    record(why);
    return ms;
  }

  /// Count an op that ran elsewhere; `why` is empty when it passed.
  void record(const std::string& why) {
    if (!why.empty()) {
      ++failed;
      if (first_failure.empty()) {
        first_failure = why;
      }
    }
  }
};

std::size_t host_threads() {
  return std::min<std::size_t>(
      4, std::max<unsigned>(1, std::thread::hardware_concurrency()));
}

/// `--cold-op`: set the workload up in this fresh process, run one checked
/// op, and print the steady-clock count at which its timer stopped. Exits 1
/// when the op failed.
int cold_op(const Options& opt) {
  Tally tally;
  const auto workload = make_workload(opt.workload, opt.seed, host_threads());
  tally.op(*workload);
  if (tally.failed != 0) {
    std::cerr << opt.workload << ": cold op failed: " << tally.first_failure
              << '\n';
  }
  std::cout << tally.last_end.time_since_epoch().count() << std::endl;
  return tally.failed == 0 ? 0 : 1;
}

/// One cold start: the seconds from spawning `--cold-op` to the end of the
/// child's op, so dynamic loading, input generation, reference loads and
/// the first pool spin-up all count. steady_clock is CLOCK_MONOTONIC, one
/// clock for every process on the host, so the child's end time and the
/// spawn time can be subtracted. Empty `why` when the child's op passed.
double cold_start(const Options& opt, std::string& why) {
  int fds[2];
  if (pipe(fds) != 0) {
    throw std::runtime_error("pipe failed");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<std::string> args{opt.program, "--workload", opt.workload,
                                "--seed", std::to_string(opt.seed),
                                "--cold-op"};
  std::vector<char*> argv;
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  argv.push_back(nullptr);
  pid_t pid = 0;
  const auto t0 = Clock::now();
  const int err = posix_spawn(&pid, opt.program.c_str(), &actions, nullptr,
                              argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[64];
  for (ssize_t n; err == 0 && (n = read(fds[0], buf, sizeof buf)) > 0;) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  if (err != 0) {
    throw std::runtime_error("cannot spawn " + opt.program);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || out.empty()) {
    why = "cold start exited with status " + std::to_string(status);
    return 0.0;
  }
  const Clock::time_point end{Clock::duration{std::stoll(out)}};
  return std::chrono::duration<double>(end - t0).count();
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out.good()) {
    throw std::runtime_error("cannot write " + path);
  }
}

int run(const Options& opt) {
  const std::size_t threads = host_threads();
  Tally tally;

  // setup_s (untraced runs only): cold starts, each in a fresh process.
  std::vector<double> setup_s;
  for (int rep = 0; !opt.traced && rep < (opt.smoke ? 1 : kSetupReps); ++rep) {
    std::string why;
    setup_s.push_back(cold_start(opt, why));
    ++tally.attempted;
    tally.record(why);
  }
  // This process's own set-up and cold op, untimed.
  const std::unique_ptr<Workload> workload =
      make_workload(opt.workload, opt.seed, threads);
  tally.op(*workload);
  const std::size_t cold_ops = tally.attempted;

  std::vector<Metric> metrics;
  std::vector<Metric> extra;  // layers_<workload>.json only
  std::size_t timed_ops = 0;
  std::size_t traced_ops = 0;
  const std::size_t min_ops = opt.smoke ? kSmokeOps : kMinOps;
  if (!opt.traced) {
    std::vector<double> op_ms;
    double rss_mib = 0.0;
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    while (op_ms.size() < min_ops ||
           (!opt.smoke && seconds_since(t0) < kRunSeconds)) {
      op_ms.push_back(tally.op(*workload));
      if (op_ms.size() == min_ops) {
        rss_mib = peak_rss_mib();
      }
    }
    const double wall_s = seconds_since(t0);
    const double cpu_s = cpu_seconds() - cpu0;
    timed_ops = op_ms.size();
    const auto n = static_cast<double>(op_ms.size());
    metrics = {
        {"op_p50_ms", median(op_ms), "ms"},
        {"op_p75_ms", percentile(op_ms, 0.75), "ms"},
        {"ops_per_s", n / wall_s, "1/s"},
        {"cpu_ms_per_op", cpu_s * 1e3 / n, "ms"},
        {"peak_rss_mb", rss_mib, "MiB"},
        {"setup_s", median(setup_s), "s"},
    };
  } else {
    CodecProbe probe;
    Ledger ledger;
    std::vector<double> untraced_ms;
    std::vector<double> traced_ms;
    const bool profiler_default = obs::energy_profiler_enabled();
    const std::size_t min_pairs = opt.smoke ? 1 : kMinTracedPairs;
    const auto t0 = Clock::now();
    while (traced_ms.size() < min_pairs ||
           (!opt.smoke && seconds_since(t0) < kRunSeconds)) {
      untraced_ms.push_back(tally.op(*workload));

      obs::Tracer& tracer = obs::Tracer::global();
      tracer.clear();
      const obs::MetricsSnapshot before = obs::Registry::global().snapshot();
      obs::set_energy_profiler_enabled(true);
      obs::set_enabled(true);
      {
        obs::ScopedSpan root("bench.op", kCatBench);
        traced_ms.push_back(tally.op(*workload));
      }
      obs::set_enabled(false);
      obs::set_energy_profiler_enabled(profiler_default);
      ledger.add(tracer.events(), before, obs::Registry::global().snapshot(),
                 workload->facts, tracer.dropped());
      probe.sample();
    }
    timed_ops = untraced_ms.size();
    traced_ops = traced_ms.size();
    const std::vector<Metric> all =
        layer_metrics(ledger, probe, median(traced_ms), median(untraced_ms));
    for (const std::string& name : contract_layer_metrics()) {
      const auto it = std::find_if(all.begin(), all.end(),
                                   [&](const Metric& x) { return x.name == name; });
      if (it == all.end()) {
        throw std::logic_error("per-layer metric " + name + " not computed");
      }
      metrics.push_back(*it);
    }
    extra = all;
    std::ostringstream trace;
    obs::Tracer::global().write_chrome_trace(trace);
    write_text(opt.out_dir + "/trace_" + opt.workload + ".json", trace.str());
  }

  const bool correct = tally.failed == 0;
  if (!tally.first_failure.empty()) {
    std::cerr << opt.workload << ": " << tally.failed << " of "
              << tally.attempted << " ops failed; first: "
              << tally.first_failure << '\n';
  }
  for (const Metric& m : opt.traced ? extra : metrics) {
    std::cout << opt.workload << ' ' << m.name << ' ' << json_number(m.value)
              << ' ' << m.unit << '\n';
  }
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(tally.attempted) +
      ", \"failed\": " + std::to_string(tally.failed) +
      ", \"metrics\": " + metrics_json(metrics) + "}";

  // run.sh refuses any build of the repository but Release.
  const std::string meta =
      "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"threads\": " + std::to_string(threads) +
      ", \"compiler\": " + json_string(__VERSION__) +
      ", \"build_type\": \"Release\", \"commit\": " + json_string(opt.commit) +
      ", \"simd\": " +
      json_string(util::simd::path_name(util::simd::active_path())) +
      ", \"numa_nodes\": " +
      std::to_string(util::numa::topology().node_count()) +
      ", \"seed\": " + std::to_string(opt.seed) +
      ", \"seconds\": " + json_number(kRunSeconds) +
      ", \"traced\": " + (opt.traced ? "true" : "false") +
      ", \"cold_ops\": " + std::to_string(cold_ops) +
      ", \"timed_ops\": " + std::to_string(timed_ops) +
      ", \"traced_ops\": " + std::to_string(traced_ops) + "}";
  const std::string file = opt.traced ? "/layers_" + opt.workload + ".json"
                                      : "/" + opt.workload + ".json";
  write_text(opt.out_dir + file,
             "{\"workload\": " + json_string(opt.workload) +
                 ", \"meta\": " + meta + ", \"correct\": " +
                 (correct ? "true" : "false") +
                 ", \"attempted\": " + std::to_string(tally.attempted) +
                 ", \"failed\": " + std::to_string(tally.failed) +
                 ", \"metrics\": " +
                 metrics_json(opt.traced ? extra : metrics) + "}\n");
  std::cout << result << std::endl;
  return 0;
}

/// Verifies the committed references: the golden digests and the journal's
/// coverage of the campaign sweep. Returns the number of mismatches.
int check_refs() {
  int bad = 0;
  const auto refs = load_ref_digests();
  for (const char* golden : {kEnergyGolden, kServeGolden}) {
    const auto it = refs.find(golden);
    const std::string actual = hex64(fnv1a64(read_file(golden)));
    if (it == refs.end() || it->second != actual) {
      std::cerr << "check-refs: " << golden << " fnv1a64 " << actual
                << " != " << (it == refs.end() ? "(missing)" : it->second)
                << " in " << kRefDigests << '\n';
      ++bad;
    }
  }
  std::vector<std::string> expected = campaign_keys(campaign_sweep());
  std::vector<std::string> keys;
  for (const std::string& line : split_lines(read_file(kRefJournal))) {
    const auto r = campaign::decode_line(line);
    if (!r) {
      std::cerr << "check-refs: undecodable line in " << kRefJournal << '\n';
      ++bad;
      continue;
    }
    keys.push_back(r->key);
  }
  std::sort(expected.begin(), expected.end());
  std::sort(keys.begin(), keys.end());
  if (expected.size() != 10 || keys != expected) {
    std::cerr << "check-refs: " << kRefJournal << " holds " << keys.size()
              << " keys, not the sweep's " << expected.size()
              << " canonical keys\n";
    ++bad;
  }
  return bad;
}

[[noreturn]] void usage_error(const std::string& why) {
  throw std::invalid_argument(
      why +
      "\nusage: greenvis_e2e --check-refs\n"
      "       greenvis_e2e --workload W --out DIR [--seed N] [--traced] "
      "[--smoke] [--commit C]");
}

Options parse(int argc, char** argv) {
  Options opt;
  opt.program = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage_error(flag + " needs a value");
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      opt.workload = value();
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value());
    } else if (flag == "--traced") {
      opt.traced = true;
    } else if (flag == "--smoke") {
      opt.smoke = true;
    } else if (flag == "--cold-op") {
      opt.cold_op = true;
    } else if (flag == "--out") {
      opt.out_dir = value();
    } else if (flag == "--commit") {
      opt.commit = value();
    } else {
      usage_error("unknown argument " + flag);
    }
  }
  if (!opt.cold_op && opt.out_dir.empty()) {
    usage_error("--out is required");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef M_MMAP_THRESHOLD
  // Pin glibc's mmap threshold at its 128 KiB default. This trades
  // allocation as the greenvis CLI does it for a stable peak_rss_mb: left
  // dynamic, the threshold rises after the first large free, the heap then
  // retains later fields, and peak RSS depends on allocation order (124 to
  // 173 MiB between runs of volume3d_insitu; pinned, 57 MiB within 1%).
  // Pinned, each large buffer is mapped afresh on every op, which a CLI
  // process stops doing after its first large free; the timed ops pay for
  // that: about 12% on serve_case1, 5% on post_case1, and no measurable
  // share on the other two.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  try {
    if (argc == 2 && std::string(argv[1]) == "--check-refs") {
      return check_refs() == 0 ? 0 : 1;
    }
    const Options opt = parse(argc, argv);
    return opt.cold_op ? cold_op(opt) : run(opt);
  } catch (const std::exception& e) {
    std::cerr << "greenvis_e2e: " << e.what() << '\n';
    return 1;
  }
}
