// greenvis — command-line front end to the library.
//
//   greenvis <command> [options]
//
// usage() below lists every command and the options it accepts. A command
// rejects any option it does not read, so a misspelled flag stops the run
// with "error: unknown option --..." instead of silently using a default.
// Any command also accepts the global observability flags
//   --trace-out=FILE     write a Chrome trace-event JSON of the run
//   --metrics-out=FILE   write the metrics snapshot (.csv suffix → CSV,
//                        anything else → JSON)
// Either flag switches the obs subsystem on for the whole process.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/advisor.hpp"
#include "src/analysis/attribution.hpp"
#include "src/analysis/metrics.hpp"
#include "src/campaign/engine.hpp"
#include "src/campaign/query.hpp"
#include "src/codec/field_codec.hpp"
#include "src/core/experiment.hpp"
#include "src/fio/runner.hpp"
#include "src/net/multinode.hpp"
#include "src/obs/registry.hpp"
#include "src/obs/tracer.hpp"
#include "src/qa/conformance.hpp"
#include "src/qa/oracle.hpp"
#include "src/qa/registry.hpp"
#include "src/replay/engine.hpp"
#include "src/serve/session.hpp"
#include "src/serve/viewer.hpp"
#include "src/util/args.hpp"
#include "src/util/error.hpp"
#include "src/util/table.hpp"

namespace {

using namespace greenvis;

using Args = util::ArgParser;

/// Reject every option outside `flags` and the global observability flags.
void accept_only(const Args& args, std::vector<std::string> flags) {
  flags.insert(flags.end(), {"trace-out", "metrics-out"});
  args.allow_only(flags);
}

/// Items of the comma-separated list option `--key`, split from `fallback`
/// when the option is absent (no items when that is empty too). A given
/// list may hold no empty item: `--grids=`, `--grids=,` or `--caps=150,,200`
/// throws instead of quietly running fewer or default points.
std::vector<std::string> list_option(const Args& args, const std::string& key,
                                     const std::string& fallback) {
  if (!args.has(key) && fallback.empty()) {
    return {};
  }
  const std::string text = args.get(key, fallback);
  std::vector<std::string> out;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t next = text.find(',', pos);
    out.push_back(text.substr(
        pos, next == std::string::npos ? std::string::npos : next - pos));
    if (out.back().empty()) {
      throw util::ContractViolation(
          "option --" + key +
          " expects a comma-separated list with no empty item, got '" + text +
          "'");
    }
    if (next == std::string::npos) {
      return out;
    }
    pos = next + 1;
  }
}

/// `text` as a value of option `--key`: an integer at or above `min` that
/// fits in T. A fraction, an exponent or trailing text throws instead of
/// reaching a cast.
template <typename T>
T parse_int(const std::string& key, const std::string& text, long long min) {
  long long v = min;
  std::size_t used = 0;
  bool ok = true;
  try {
    v = std::stoll(text, &used);
  } catch (const std::exception&) {
    ok = false;
  }
  if (!ok || used != text.size() || v < min || !std::in_range<T>(v)) {
    throw util::ContractViolation("option --" + key +
                                  " expects an integer >= " +
                                  std::to_string(min) + ", got '" + text +
                                  "'");
  }
  return static_cast<T>(v);
}

constexpr double kNoMax = std::numeric_limits<double>::infinity();

/// `text` as a value of option `--key`: a finite number in [lo, hi], or in
/// (lo, hi] when `open`. NaN, infinities and trailing text throw.
double parse_number(const std::string& key, const std::string& text,
                    double lo, double hi = kNoMax, bool open = false) {
  double v = lo;
  std::size_t used = 0;
  bool ok = true;
  try {
    v = std::stod(text, &used);
  } catch (const std::exception&) {
    ok = false;
  }
  if (!ok || used != text.size() || !std::isfinite(v) || v > hi ||
      (open ? v <= lo : v < lo)) {
    std::ostringstream bound;
    if (hi == kNoMax) {
      bound << (open ? "> " : ">= ") << lo;
    } else {
      bound << (open ? "in (" : "in [") << lo << ", " << hi << "]";
    }
    throw util::ContractViolation("option --" + key + " expects a number " +
                                  bound.str() + ", got '" + text + "'");
  }
  return v;
}

/// Throws the error for `text`, a value of option `--key` that names none of
/// the `expected` choices.
[[noreturn]] void unknown_value(const std::string& key, const std::string& text,
                                const char* expected) {
  throw util::ContractViolation("unknown --" + key + " '" + text +
                                "' (expected " + expected + ")");
}

/// `text` as a value of device option `--key`.
core::StorageDeviceKind parse_device(const std::string& key,
                                     const std::string& text) {
  const auto kind = core::parse_storage_device(text);
  if (!kind) {
    unknown_value(key, text, "hdd|ssd|nvram");
  }
  return *kind;
}

/// `text` as a value of codec option `--key`.
codec::Kind parse_codec(const std::string& key, const std::string& text) {
  const auto kind = codec::parse_kind(text);
  if (!kind) {
    unknown_value(key, text, "raw|delta|rle");
  }
  return *kind;
}

/// `text` as a tolerance of option `--key`: a number >= 0, and > 0 when
/// `delta`, because the delta codec quantizes by it (raw and rle ignore
/// it). `codec_flag` names the option that selected delta.
double parse_tolerance(const std::string& key, const std::string& text,
                       bool delta, const std::string& codec_flag) {
  const double v = parse_number(key, text, 0.0);
  if (delta && v == 0.0) {
    throw util::ContractViolation("option --" + key +
                                  " expects a number > 0 with --" +
                                  codec_flag + " delta, got '" + text + "'");
  }
  return v;
}

/// --codec and --tolerance into `config` (see parse_tolerance).
void read_codec_flags(const Args& args, codec::CodecConfig& config) {
  config.kind = parse_codec("codec", args.get("codec", "raw"));
  if (args.has("tolerance")) {
    config.tolerance =
        parse_tolerance("tolerance", args.get("tolerance", std::string{}),
                        config.kind == codec::Kind::kDelta, "codec");
  }
}

/// Integer option `--key`, `fallback` when absent (see parse_int).
template <typename T>
T int_option(const Args& args, const std::string& key, T fallback,
             long long min) {
  return args.has(key) ? parse_int<T>(key, args.get(key, std::string{}), min)
                       : fallback;
}

/// Number option `--key`, `fallback` when absent (see parse_number).
double number_option(const Args& args, const std::string& key,
                     double fallback, double lo, double hi = kNoMax,
                     bool open = false) {
  return args.has(key) ? parse_number(key, args.get(key, std::string{}), lo,
                                      hi, open)
                       : fallback;
}

/// Comma-separated integer list `--key` (`fallback` text when absent),
/// each element checked by parse_int.
template <typename T>
std::vector<T> int_list(const Args& args, const std::string& key,
                        const std::string& fallback, long long min) {
  std::vector<T> out;
  for (const std::string& item : list_option(args, key, fallback)) {
    out.push_back(parse_int<T>(key, item, min));
  }
  return out;
}

/// Comma-separated number list `--key`, empty when absent, each element
/// checked by parse_number.
std::vector<double> number_list(const Args& args, const std::string& key,
                                double lo, bool open = false) {
  std::vector<double> out;
  for (const std::string& item : list_option(args, key, "")) {
    out.push_back(parse_number(key, item, lo, kNoMax, open));
  }
  return out;
}

/// What the run flags of `compare`, `profile` and `serve` configure.
struct RunFlags {
  core::TestbedConfig testbed;
  core::CaseStudyConfig workload;
  core::PipelineOptions options;
};

/// The one reader of the run flags: --case, --cap and --device always, and
/// with `snapshot_flags` also --io-ghz, --codec, --tolerance and
/// --stage-buffers.
RunFlags read_run_flags(const Args& args, bool snapshot_flags) {
  RunFlags run;
  const int case_no = int_option(args, "case", 1, 1);
  if (case_no > 3) {
    unknown_value("case", args.get("case", std::string{}), "1|2|3");
  }
  run.workload = core::case_study(case_no);
  run.testbed.package_cap = util::Watts{number_option(args, "cap", 0.0, 0.0)};
  run.testbed.device = parse_device("device", args.get("device", "hdd"));
  if (snapshot_flags) {
    run.testbed.io_frequency_ghz = number_option(args, "io-ghz", 0.0, 0.0);
    run.options.stage_buffers =
        int_option(args, "stage-buffers", run.options.stage_buffers, 1);
    read_codec_flags(args, run.workload.snapshot_codec);
  }
  return run;
}

int cmd_compare(const Args& args) {
  accept_only(args, {"case", "cap", "device", "io-ghz", "codec", "tolerance",
                     "stage-buffers", "pipeline"});
  const RunFlags run = read_run_flags(args, true);
  const std::string pipeline = args.get("pipeline", "sync");
  if (pipeline != "sync" && pipeline != "async") {
    unknown_value("pipeline", pipeline, "sync|async");
  }
  const bool async_post = pipeline == "async";
  const core::PipelineOptions& options = run.options;
  const core::Experiment experiment(run.testbed);
  const core::CaseStudyConfig& workload = run.workload;
  std::cerr << "running " << workload.name << " (codec="
            << codec::kind_name(workload.snapshot_codec.kind)
            << ", post pipeline=" << pipeline << ")...\n";
  const auto post = experiment.run(async_post
                                       ? core::PipelineKind::kPostProcessingAsync
                                       : core::PipelineKind::kPostProcessing,
                                   workload, options);
  const auto insitu =
      experiment.run(core::PipelineKind::kInSitu, workload, options);
  const auto cmp = analysis::compare(post, insitu);

  util::TextTable t({"Metric", async_post ? "Post-proc (async)"
                                          : "Post-processing",
                     "In-situ"});
  t.add_row({"Time (s)", util::cell(cmp.time_post.value()),
             util::cell(cmp.time_insitu.value())});
  t.add_row({"Avg power (W)", util::cell(cmp.avg_power_post.value()),
             util::cell(cmp.avg_power_insitu.value())});
  t.add_row({"Peak power (W)", util::cell(cmp.peak_power_post.value()),
             util::cell(cmp.peak_power_insitu.value())});
  t.add_row({"Energy (kJ)", util::cell(cmp.energy_post.value() / 1000.0),
             util::cell(cmp.energy_insitu.value() / 1000.0)});
  std::cout << t.render();
  std::cout << "\nIn-situ: " << util::cell_percent(cmp.energy_savings())
            << " less energy, " << util::cell_percent(cmp.time_reduction())
            << " less time, +"
            << util::cell_percent(cmp.avg_power_increase())
            << " average power.\n";
  if (post.output.snapshot_bytes_raw.value() > 0) {
    const double ratio =
        post.output.snapshot_bytes_written.value() == 0
            ? 1.0
            : post.output.snapshot_bytes_raw.as_double() /
                  post.output.snapshot_bytes_written.as_double();
    std::cout << "Snapshots: "
              << post.output.snapshot_bytes_written.megabytes()
              << " MiB written ("
              << post.output.snapshot_bytes_raw.megabytes()
              << " MiB raw, ratio " << util::cell(ratio) << "x, codec="
            << codec::kind_name(workload.snapshot_codec.kind) << ").\n";
  }
  return 0;
}

int cmd_fio(const Args& args) {
  accept_only(args, {"size", "device"});
  if (args.positional().empty()) {
    std::cerr << "usage: greenvis fio <seq-read|rand-read|seq-write|"
                 "rand-write> [--size MIB] [--device hdd|ssd|nvram]\n";
    return 2;
  }
  const std::map<std::string, fio::RwMode> modes{
      {"seq-read", fio::RwMode::kSequentialRead},
      {"rand-read", fio::RwMode::kRandomRead},
      {"seq-write", fio::RwMode::kSequentialWrite},
      {"rand-write", fio::RwMode::kRandomWrite}};
  const auto it = modes.find(args.positional()[0]);
  if (it == modes.end()) {
    throw util::ContractViolation(
        "unknown fio mode '" + args.positional()[0] +
        "' (expected seq-read|rand-read|seq-write|rand-write)");
  }
  const std::map<std::string, fio::DeviceKind> devices{
      {"hdd", fio::DeviceKind::kHdd},
      {"ssd", fio::DeviceKind::kSsd},
      {"nvram", fio::DeviceKind::kNvram}};
  const std::string device = args.get("device", "hdd");
  const auto dev = devices.find(device);
  if (dev == devices.end()) {
    unknown_value("device", device, "hdd|ssd|nvram");
  }
  fio::FioRunnerConfig config;
  config.device = dev->second;
  fio::FioJob job = fio::table3_job(it->second);
  const auto mib = int_option<std::uint64_t>(args, "size", 0, 0);
  if (mib > 0) {
    job.total_size = util::mebibytes(mib);
  }
  std::cerr << "running " << job.name << " (" << job.total_size.megabytes()
            << " MiB) on " << device << "...\n";
  const auto out = fio::FioRunner(config).run(job);
  util::TextTable t({"Metric", "Value"});
  t.add_row({"Execution time (s)", util::cell(out.result.execution_time.value())});
  t.add_row({"Full-system power (W)",
             util::cell(out.result.full_system_power.value())});
  t.add_row({"Disk dynamic power (W)",
             util::cell(out.result.disk_dynamic_power.value())});
  t.add_row({"Full-system energy (kJ)",
             util::cell(out.result.full_system_energy.value() / 1000.0)});
  std::cout << t.render();
  return 0;
}

int cmd_advise(const Args& args) {
  accept_only(args, {"accesses", "kib", "random", "reads", "no-exploration"});
  analysis::AccessPattern pattern;
  pattern.accesses = int_option<std::uint64_t>(args, "accesses", 1 << 18, 0);
  pattern.bytes_per_access =
      util::kibibytes(int_option<std::uint64_t>(args, "kib", 16, 0));
  pattern.random_fraction = number_option(args, "random", 1.0, 0.0, 1.0);
  pattern.read_fraction = number_option(args, "reads", 0.9, 0.0, 1.0);
  pattern.exploratory_analysis_required =
      !args.has("no-exploration");

  const analysis::Advisor advisor(machine::sandy_bridge_testbed(),
                                  power::hdd_power_params(),
                                  util::Watts{103.0});
  const auto rec = advisor.recommend(pattern);
  util::TextTable t(
      {"Strategy", "I/O time (s)", "I/O energy (kJ)", "Keeps exploration"});
  for (const auto& e : rec.all) {
    t.add_row({analysis::strategy_name(e.strategy),
               util::cell(e.io_time.value()),
               util::cell(e.io_energy.value() / 1000.0),
               e.preserves_exploration ? "yes" : "no"});
  }
  std::cout << t.render();
  std::cout << "\nRecommendation: "
            << analysis::strategy_name(rec.chosen.strategy) << " — "
            << rec.chosen.rationale << '\n';
  return 0;
}

int cmd_replay(const Args& args) {
  accept_only(args, {"builtin", "in-situ"});
  std::string text;
  if (args.has("builtin")) {
    const std::string which = args.get("builtin", std::string{});
    if (which == "mpas") {
      text = replay::mpas_like_trace();
    } else if (which == "xrage") {
      text = replay::xrage_like_trace();
    } else {
      unknown_value("builtin", which, "mpas|xrage");
    }
  } else if (!args.positional().empty()) {
    std::ifstream file(args.positional()[0]);
    if (!file.good()) {
      std::cerr << "cannot open trace file " << args.positional()[0] << '\n';
      return 2;
    }
    std::ostringstream buf;
    buf << file.rdbuf();
    text = buf.str();
  } else {
    std::cerr << "usage: greenvis replay (<trace-file>|--builtin mpas|xrage) "
                 "[--in-situ]\n";
    return 2;
  }

  replay::AppTrace trace = replay::parse_trace(text);
  if (args.has("in-situ")) {
    trace = replay::to_in_situ(trace);
  }
  std::cerr << "replaying " << trace.name << " (" << trace.repeat
            << " steps)...\n";
  const auto result = replay::ReplayEngine{}.run(trace);
  util::TextTable t({"Metric", "Value"});
  t.add_row({"Application", result.app_name});
  t.add_row({"Time (s)", util::cell(result.duration.value())});
  t.add_row({"Avg power (W)", util::cell(result.average_power.value())});
  t.add_row({"Peak power (W)", util::cell(result.peak_power.value())});
  t.add_row({"Energy (kJ)", util::cell(result.energy.value() / 1000.0)});
  t.add_row({"Bytes written (MB)",
             util::cell(result.bytes_written.megabytes(), 2)});
  t.set_align(1, util::Align::kRight);
  std::cout << t.render();
  return 0;
}

int cmd_cluster(const Args& args) {
  accept_only(args, {"nodes", "staging", "targets"});
  net::ClusterSpec cluster;
  cluster.compute_nodes = int_option<std::size_t>(args, "nodes", 32, 1);
  cluster.staging_nodes = int_option<std::size_t>(args, "staging", 2, 1);
  cluster.pfs.storage_targets =
      int_option<std::size_t>(args, "targets", 4, 1);
  const net::MultiNodeStudy study(cluster, core::case_study(1));
  const auto post = study.post_processing();
  const auto insitu = study.in_situ();
  const auto transit = study.in_transit();
  util::TextTable t({"Pipeline", "Time (s)", "Energy (MJ)", "vs post"});
  for (const auto* r : {&post, &transit, &insitu}) {
    t.add_row({r->pipeline, util::cell(r->duration.value()),
               util::cell(r->energy.value() / 1e6, 2),
               r == &post ? std::string("--")
                          : util::cell_percent(1.0 - r->energy.value() /
                                                         post.energy.value())});
  }
  std::cout << t.render();
  return 0;
}

int cmd_trace_template(const Args& args) {
  accept_only(args, {});
  std::cout << replay::mpas_like_trace();
  return 0;
}

int cmd_campaign(const Args& args) {
  accept_only(args, {"pipelines", "grids", "periods", "iterations", "codecs",
                     "tolerances", "devices", "freqs", "io-freqs", "caps",
                     "viewers", "journal", "resume", "threads", "shards",
                     "limit", "out", "whatif"});
  campaign::CampaignSpec spec;
  for (const std::string& name :
       list_option(args, "pipelines", "post,insitu")) {
    if (name == "post") {
      spec.pipelines.push_back(core::PipelineKind::kPostProcessing);
    } else if (name == "async") {
      spec.pipelines.push_back(core::PipelineKind::kPostProcessingAsync);
    } else if (name == "insitu") {
      spec.pipelines.push_back(core::PipelineKind::kInSitu);
    } else {
      unknown_value("pipelines", name, "post|async|insitu");
    }
  }
  spec.grids = int_list<std::size_t>(args, "grids", "128", 4);
  spec.io_periods = int_list<int>(args, "periods", "1,2,8", 1);
  spec.iterations = int_list<int>(args, "iterations", "50", 1);
  for (const std::string& c : list_option(args, "codecs", "raw")) {
    spec.codecs.push_back(parse_codec("codecs", c));
  }
  const bool delta =
      std::ranges::find(spec.codecs, codec::Kind::kDelta) != spec.codecs.end();
  for (const std::string& t : list_option(args, "tolerances", "")) {
    spec.tolerances.push_back(
        parse_tolerance("tolerances", t, delta, "codecs"));
  }
  for (const std::string& d : list_option(args, "devices", "hdd")) {
    spec.devices.push_back(parse_device("devices", d));
  }
  spec.frequencies = number_list(args, "freqs", 0.0, true);
  spec.io_frequencies = number_list(args, "io-freqs", 0.0);
  spec.package_caps = number_list(args, "caps", 0.0);
  spec.viewer_counts = int_list<int>(args, "viewers", "", 0);
  const std::vector<campaign::CampaignConfig> configs = spec.expand();

  campaign::ResultCache cache;
  const std::string journal_path = args.get("journal", "");
  if (args.has("resume") && journal_path.empty()) {
    throw util::ContractViolation("option --resume requires --journal=FILE");
  }
  std::optional<std::ofstream> journal_out;
  if (!journal_path.empty()) {
    if (args.has("resume")) {
      std::ifstream in(journal_path);
      if (in.good()) {
        const std::size_t loaded = cache.load_journal(in);
        std::cerr << "resumed " << loaded << " result(s) from "
                  << journal_path << '\n';
      }
      journal_out.emplace(journal_path, std::ios::app);
    } else {
      journal_out.emplace(journal_path, std::ios::trunc);
    }
    if (!journal_out->good()) {
      std::cerr << "error: cannot open journal " << journal_path << '\n';
      return 1;
    }
  }

  campaign::CampaignOptions options;
  options.threads = int_option<std::size_t>(args, "threads", 0, 0);
  options.shards = int_option<std::size_t>(args, "shards", 0, 0);
  options.job_limit = int_option<std::size_t>(args, "limit", 0, 0);

  std::cerr << "campaign: " << configs.size() << " config(s)...\n";
  const campaign::CampaignEngine engine(
      cache, journal_out ? &*journal_out : nullptr);
  const campaign::CampaignReport report = engine.run(configs, options);
  std::cerr << "campaign: " << report.unique_configs << " unique ("
            << report.duplicates << " duplicate(s)), " << report.cache_hits
            << " cache hit(s), " << report.executed << " executed in "
            << util::cell(report.host_seconds) << " s host ("
            << util::cell(report.configs_per_second()) << " configs/s, "
            << report.steals << " steal(s))\n";
  if (report.interrupted) {
    std::cerr << "campaign interrupted by --limit " << options.job_limit
              << "; rerun with --resume to continue\n";
    return 3;
  }

  const std::string out = args.get("out", "CAMPAIGN_results.json");
  std::ofstream file(out);
  if (file.good()) {
    campaign::write_campaign_json(file, report);
  }
  if (!file.good()) {
    std::cerr << "error: cannot write " << out << '\n';
    return 1;
  }
  std::cerr << "wrote " << out << '\n';

  if (args.has("whatif")) {
    const auto cases = campaign::pipeline_switch_cases(report);
    if (cases.empty()) {
      std::cout << "no post-processing/in-situ pairs in this sweep "
                   "(add both to --pipelines)\n";
    } else {
      util::TextTable t({"Config", "Post (kJ)", "In-situ (kJ)",
                         "Savings (kJ)", "Ratio"});
      for (const auto& sc : cases) {
        t.add_row({campaign::describe(report.configs[sc.post_index]),
                   util::cell(sc.whatif.post_energy.value() / 1000.0),
                   util::cell(sc.whatif.insitu_energy.value() / 1000.0),
                   util::cell(sc.whatif.energy_savings().value() / 1000.0),
                   util::cell(sc.whatif.energy_ratio())});
      }
      std::cout << t.render();
      // The "why": where the post-processing joules actually went.
      for (const auto& sc : cases) {
        const auto top = campaign::top_stage_consumers(
            report.results[sc.post_index], 3);
        std::cout << "  " << campaign::describe(report.configs[sc.post_index])
                  << ": post-processing loses "
                  << util::cell(sc.whatif.energy_savings().value() / 1000.0)
                  << " kJ; top consumers:";
        for (std::size_t k = 0; k < top.size(); ++k) {
          std::cout << (k == 0 ? " " : ", ") << top[k].stage << ' '
                    << util::cell(top[k].joules / 1000.0) << " kJ";
        }
        std::cout << '\n';
      }
      // Advise on the heaviest post-processing config's snapshot traffic.
      const auto heaviest = std::max_element(
          cases.begin(), cases.end(), [](const auto& a, const auto& b) {
            return a.whatif.energy_savings().value() <
                   b.whatif.energy_savings().value();
          });
      const analysis::AccessPattern pattern = campaign::access_pattern_for(
          report.results[heaviest->post_index]);
      const analysis::Advisor advisor(machine::sandy_bridge_testbed(),
                                      power::hdd_power_params(),
                                      util::Watts{103.0});
      const auto rec = advisor.recommend(pattern);
      std::cout << "\nAdvisor ("
                << campaign::describe(report.configs[heaviest->post_index])
                << "): " << analysis::strategy_name(rec.chosen.strategy)
                << " — " << rec.chosen.rationale << '\n';
    }
  }
  return 0;
}

int cmd_profile(const Args& args) {
  accept_only(args, {"case", "cap", "device", "io-ghz", "codec", "tolerance",
                     "stage-buffers", "pipeline", "top", "out"});
  const RunFlags run = read_run_flags(args, true);
  const std::string pipeline = args.get("pipeline", "sync");
  core::PipelineKind kind = core::PipelineKind::kPostProcessing;
  if (pipeline == "async") {
    kind = core::PipelineKind::kPostProcessingAsync;
  } else if (pipeline == "insitu") {
    kind = core::PipelineKind::kInSitu;
  } else if (pipeline != "sync") {
    unknown_value("pipeline", pipeline, "sync|async|insitu");
  }
  const core::CaseStudyConfig& workload = run.workload;

  obs::set_energy_profiler_enabled(true);
  std::cerr << "profiling " << workload.name << " (" << pipeline << ")...\n";
  const core::Experiment experiment(run.testbed);
  const auto metrics = experiment.run(kind, workload, run.options);
  const obs::EnergyReport& rep = metrics.attribution;

  util::TextTable t(
      {"Stage", "Busy (s)", "Static (kJ)", "Dynamic (kJ)", "Total (kJ)",
       "Share"});
  for (const obs::StageEnergy& s : rep.stages) {
    const double total = s.total().value();
    t.add_row({s.name, util::cell(s.busy.value()),
               util::cell(s.static_rails.total().value() / 1000.0),
               util::cell(s.dynamic_rails.total().value() / 1000.0),
               util::cell(total / 1000.0),
               util::cell_percent(rep.total().value() > 0.0
                                      ? total / rep.total().value()
                                      : 0.0)});
  }
  std::cout << t.render();
  std::cout << "\nTotal " << util::cell(rep.total().value() / 1000.0)
            << " kJ over " << util::cell(rep.duration.value()) << " s — "
            << util::cell_percent(rep.static_share())
            << " static floor, "
            << util::cell_percent(1.0 - rep.static_share())
            << " dynamic (conservation error " << rep.conservation_error
            << ").\n";
  const auto top_n = int_option<std::size_t>(args, "top", 5, 0);
  const auto ranked = analysis::top_consumers(rep, top_n);
  std::cout << "Top consumers:";
  for (const auto& c : ranked) {
    std::cout << ' ' << c.stage << ' '
              << util::cell(c.joules.value() / 1000.0) << " kJ ("
              << util::cell_percent(c.share) << ')';
  }
  std::cout << '\n';

  const std::string out = args.get("out", "ENERGY_profile.json");
  std::ofstream file(out);
  if (file.good()) {
    analysis::write_energy_profile_json(file, rep, metrics.pipeline_name,
                                        metrics.case_name, top_n);
  }
  if (!file.good()) {
    std::cerr << "error: cannot write " << out << '\n';
    return 1;
  }
  std::cerr << "wrote " << out << '\n';
  return 0;
}

int cmd_serve(const Args& args) {
  accept_only(args,
              {"case", "cap", "device", "viewers", "views", "link-mbps", "out"});
  const int viewers = int_option(args, "viewers", 16, 1);
  const int views = int_option(args, "views", 4, 1);
  if (views > viewers) {
    throw util::ContractViolation("option --views expects at most --viewers (" +
                                  std::to_string(viewers) + "), got '" +
                                  std::to_string(views) + "'");
  }
  const RunFlags run = read_run_flags(args, false);

  serve::ServeConfig config;
  config.base = run.workload;
  config.viewers = serve::default_fleet(viewers, views);
  config.delivery_mb_per_s = number_option(
      args, "link-mbps", config.delivery_mb_per_s, 0.0, kNoMax, true);
  // A deterministic mid-run steer so the default profile exercises the
  // command queue: viewer 0 re-zooms and re-colors halfway through.
  serve::SteerCommand steer;
  steer.step = config.base.iterations / 2;
  steer.viewer = 0;
  steer.kind = serve::SteerKind::kRegion;
  steer.x0 = 0.25;
  steer.y0 = 0.25;
  steer.x1 = 0.75;
  steer.y1 = 0.75;
  config.commands.push_back(steer);
  steer.kind = serve::SteerKind::kPalette;
  steer.palette = vis::Palette::kGrayscale;
  config.commands.push_back(steer);

  std::cerr << "serving " << config.base.name << " to " << viewers
            << " viewers (" << views << " view groups)...\n";
  const serve::ServeReport report =
      serve::run_serve_with_baseline(config, run.testbed);

  util::TextTable t({"Viewer", "Frames", "MB", "Render (s)", "Render (J)",
                     "Encode (J)", "Deliver (J)", "Total (J)"});
  for (const serve::ViewerEnergy& row : report.viewers) {
    t.add_row({std::to_string(row.viewer), std::to_string(row.frames),
               util::cell(static_cast<double>(row.bytes) / 1e6),
               util::cell(row.render_share_s), util::cell(row.render_j),
               util::cell(row.encode_j), util::cell(row.deliver_j),
               util::cell(row.total_j())});
  }
  std::cout << t.render();
  std::cout << "\n" << report.frames_delivered << " frames delivered over "
            << util::cell(report.duration.value()) << " s — "
            << report.host_renders << " renders (one per unique view per step), "
            << report.cache.hits << " deliveries shared a render.\n";
  std::cout << "Session " << util::cell(report.energy.value() / 1000.0)
            << " kJ: shared " << util::cell(report.shared_j / 1000.0)
            << " kJ, single-viewer baseline "
            << util::cell(report.single_viewer_j / 1000.0)
            << " kJ, marginal "
            << util::cell(report.marginal_j_per_viewer) << " J/viewer.\n";

  const std::string out = args.get("out", "SERVE_profile.json");
  std::ofstream file(out);
  if (file.good()) {
    serve::write_serve_profile_json(file, config, report);
  }
  if (!file.good()) {
    std::cerr << "error: cannot write " << out << '\n';
    return 1;
  }
  std::cerr << "wrote " << out << '\n';
  return 0;
}

int cmd_verify(const Args& args) {
  accept_only(args, {"qa-repro", "codec", "tolerance", "label", "out"});
  // Replay path: re-run one shrunk property counterexample from a
  // reproducer file written by a failing property check.
  if (args.has("qa-repro")) {
    const std::string path = args.require("qa-repro");
    qa::register_builtin_properties();
    const qa::CheckResult r = qa::replay_repro_file(path);
    std::cout << r.summary() << '\n';
    return r.passed ? 0 : 1;
  }

  qa::ConformanceOptions options;
  read_codec_flags(args, options.snapshot_codec);
  options.build_label = args.get("label", "default");

  std::cerr << "running differential oracles...\n";
  qa::register_builtin_oracles();
  std::cerr << "running paper-conformance suite (6 pipeline runs + stage "
               "runs)...\n";
  qa::ConformanceReport report = qa::run_conformance(options);
  report.oracles = qa::OracleRegistry::global().run_all();

  util::TextTable t({"Invariant", "Value", "Band", "Verdict"});
  for (const auto& inv : report.invariants) {
    std::ostringstream band;
    band << "[" << inv.lo << ", " << inv.hi << "]";
    t.add_row({inv.name, util::cell(inv.value, 4), band.str(),
               inv.pass ? "pass" : "FAIL"});
  }
  for (const auto& oracle : report.oracles) {
    t.add_row({oracle.name, "--", "oracle", oracle.ok ? "pass" : "FAIL"});
  }
  std::cout << t.render();
  for (const auto& oracle : report.oracles) {
    if (!oracle.ok) {
      std::cout << oracle.name << ": " << oracle.detail << '\n';
    }
  }

  const std::string out = args.get("out", "QA_conformance.json");
  std::ofstream file(out);
  if (file.good()) {
    report.write_json(file);
  }
  if (!file.good()) {
    std::cerr << "error: cannot write " << out << '\n';
    return 1;
  }
  std::cerr << "wrote " << out << '\n';
  std::cout << "\nverify: " << (report.all_pass() ? "PASS" : "FAIL") << " ("
            << report.failures() << " failure(s))\n";
  return report.all_pass() ? 0 : 1;
}

void usage() {
  std::cerr <<
      R"(greenvis — greenness analysis of visualization pipelines

commands:
  compare [--case 1|2|3] [--cap WATTS] [--io-ghz F]   run both pipelines
          [--codec raw|delta|rle] [--tolerance T]
          [--pipeline sync|async] [--stage-buffers N]  (async = overlapped
                                                       snapshot staging)
          [--device hdd|ssd|nvram]
  fio <seq-read|rand-read|seq-write|rand-write>
      [--size MIB] [--device hdd|ssd|nvram]           one fio job
  advise --accesses N --kib K --random F --reads F
      [--no-exploration]                              optimization advisor
  replay (<trace-file>|--builtin mpas|xrage) [--in-situ]
  cluster [--nodes N] [--staging S] [--targets T]     multi-node study
  campaign [--pipelines post,async,insitu] [--grids G,..] [--periods P,..]
      [--iterations N,..] [--codecs raw,delta,rle] [--tolerances T,..]
      [--devices hdd,ssd,nvram] [--freqs F,..] [--io-freqs F,..]
      [--caps W,..] [--viewers N,..]
      [--out FILE] [--journal FILE] [--resume]
      [--limit N] [--shards N] [--threads N] [--whatif]
                                                      parameter sweep with a
                                                      deduplicating cache and
                                                      resumable journal
  profile [--case 1|2|3] [--pipeline sync|async|insitu] [--codec raw|delta|rle]
      [--tolerance T] [--stage-buffers N] [--cap W] [--io-ghz F]
      [--device hdd|ssd|nvram]
      [--top N] [--out FILE]                          span-level joule
                                                      attribution table +
                                                      ENERGY_profile.json
  serve [--case 1|2|3] [--viewers N] [--views G] [--link-mbps MB]
      [--cap W] [--device hdd|ssd|nvram] [--out FILE]
                                                      serve N viewer streams,
                                                      each unique view
                                                      rendered once per step;
                                                      per-viewer joules +
                                                      marginal cost in
                                                      SERVE_profile.json
  trace-template                                      starter replay trace
  verify [--out FILE] [--codec raw|delta|rle] [--tolerance T] [--label L]
         [--qa-repro=FILE]                            qa conformance suite
                                                      (or replay a property
                                                      reproducer file)

A command rejects any option it does not list.

global options (any command):
  --trace-out=FILE     write a Chrome trace-event JSON (chrome://tracing)
  --metrics-out=FILE   write the metrics snapshot (.csv → CSV, else JSON)
)";
}

/// Write the collected spans and metrics after the command body ran.
/// Returns false (and reports on stderr) when a file cannot be written.
bool export_observability(const Args& args) {
  bool ok = true;
  if (args.has("trace-out")) {
    const std::string path = args.get("trace-out", std::string{});
    std::ofstream out(path);
    if (out.good()) {
      obs::Tracer::global().write_chrome_trace(out);
    }
    if (!out.good()) {
      std::cerr << "error: cannot write trace file " << path << '\n';
      ok = false;
    } else {
      std::cerr << "wrote trace to " << path << '\n';
    }
  }
  if (args.has("metrics-out")) {
    const std::string path = args.get("metrics-out", std::string{});
    const bool csv = path.size() >= 4 &&
                     path.compare(path.size() - 4, 4, ".csv") == 0;
    std::ofstream out(path);
    if (out.good()) {
      const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
      if (csv) {
        snap.write_csv(out);
      } else {
        snap.write_json(out);
      }
    }
    if (!out.good()) {
      std::cerr << "error: cannot write metrics file " << path << '\n';
      ok = false;
    } else {
      std::cerr << "wrote metrics to " << path << '\n';
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  const Args args(argc, argv, 2);
  const bool observe = args.has("trace-out") || args.has("metrics-out");
  if (observe) {
    obs::set_enabled(true);
  }
  try {
    int rc = 2;
    if (command == "compare") {
      rc = cmd_compare(args);
    } else if (command == "fio") {
      rc = cmd_fio(args);
    } else if (command == "advise") {
      rc = cmd_advise(args);
    } else if (command == "replay") {
      rc = cmd_replay(args);
    } else if (command == "cluster") {
      rc = cmd_cluster(args);
    } else if (command == "campaign") {
      rc = cmd_campaign(args);
    } else if (command == "profile") {
      rc = cmd_profile(args);
    } else if (command == "serve") {
      rc = cmd_serve(args);
    } else if (command == "trace-template") {
      rc = cmd_trace_template(args);
    } else if (command == "verify") {
      rc = cmd_verify(args);
    } else {
      usage();
      return 2;
    }
    if (observe && !export_observability(args) && rc == 0) {
      rc = 1;
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
