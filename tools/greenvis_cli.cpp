// greenvis — command-line front end to the library: the command bodies, the
// command table and cli::main. A body reads an Invocation that resolve()
// (cli_options.hpp) has checked against the option table, so it starts its
// work only after every option and operand passed. With no command, or an
// unknown one, greenvis prints the usage text generated from both tables.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
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
#include "tools/cli_options.hpp"

namespace greenvis::cli {

namespace {

/// What the run flags of `compare`, `profile` and `serve` configure.
struct RunFlags {
  core::TestbedConfig testbed;
  core::CaseStudyConfig workload;
  core::PipelineOptions options;
};

/// The run flags --case, --cap and --device, and where the command takes
/// them --io-ghz, --codec, --tolerance and --stage-buffers.
RunFlags read_run_flags(const Invocation& in) {
  RunFlags run;
  run.workload = core::case_study(in.get<int>("case"));
  run.testbed.package_cap = util::Watts{in.get<double>("cap")};
  run.testbed.device = *core::parse_storage_device(in.get("device"));
  if (in.has("io-ghz")) {
    run.testbed.io_frequency_ghz = in.get<double>("io-ghz");
  }
  if (in.has("stage-buffers")) {
    run.options.stage_buffers = in.get<std::size_t>("stage-buffers");
  }
  if (in.has("codec")) {
    run.workload.snapshot_codec.kind = *codec::parse_kind(in.get("codec"));
  }
  if (in.has("tolerance")) {
    run.workload.snapshot_codec.tolerance = in.get<double>("tolerance");
  }
  return run;
}

/// The pipeline a --pipeline or --pipelines name selects.
core::PipelineKind pipeline_kind(const std::string& name) {
  return name == "insitu"  ? core::PipelineKind::kInSitu
         : name == "async" ? core::PipelineKind::kPostProcessingAsync
                           : core::PipelineKind::kPostProcessing;
}

/// Write `path` with `write`; false (reported on stderr) when it fails.
template <typename Write>
bool write_file(const std::string& path, const Write& write) {
  std::ofstream file(path);
  if (file.good()) {
    write(file);
  }
  std::cerr << (file.good() ? "wrote " : "error: cannot write ") << path << '\n';
  return file.good();
}

int cmd_compare(const Invocation& in) {
  const RunFlags run = read_run_flags(in);
  const std::string pipeline = in.get("pipeline");
  const bool async_post = pipeline == "async";
  const core::Experiment experiment(run.testbed);
  const core::CaseStudyConfig& workload = run.workload;
  std::cerr << "running " << workload.name << " (codec="
            << codec::kind_name(workload.snapshot_codec.kind)
            << ", post pipeline=" << pipeline << ")...\n";
  const auto post =
      experiment.run(pipeline_kind(pipeline), workload, run.options);
  const auto insitu =
      experiment.run(core::PipelineKind::kInSitu, workload, run.options);
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

int cmd_fio(const Invocation& in) {
  if (in.operand.empty()) {
    std::cerr << "usage: " << usage_line(*find_command("fio"), false) << '\n';
    return 2;
  }
  const std::map<std::string, fio::RwMode> modes{
      {"seq-read", fio::RwMode::kSequentialRead},
      {"rand-read", fio::RwMode::kRandomRead},
      {"seq-write", fio::RwMode::kSequentialWrite},
      {"rand-write", fio::RwMode::kRandomWrite}};
  const auto it = modes.find(in.operand);
  if (it == modes.end()) {
    throw util::ContractViolation(
        "unknown fio mode '" + in.operand +
        "' (expected seq-read|rand-read|seq-write|rand-write)");
  }
  const std::map<std::string, fio::DeviceKind> devices{
      {"hdd", fio::DeviceKind::kHdd},
      {"ssd", fio::DeviceKind::kSsd},
      {"nvram", fio::DeviceKind::kNvram}};
  const std::string device = in.get("device");
  fio::FioRunnerConfig config;
  config.device = devices.at(device);
  fio::FioJob job = fio::table3_job(it->second);
  const auto mib = in.get<std::uint64_t>("size");
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

int cmd_advise(const Invocation& in) {
  const analysis::AccessPattern pattern{
      .accesses = in.get<std::uint64_t>("accesses"),
      .bytes_per_access = util::kibibytes(in.get<std::uint64_t>("kib")),
      .random_fraction = in.get<double>("random"),
      .read_fraction = in.get<double>("reads"),
      .exploratory_analysis_required = !in.has("no-exploration")};

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

int cmd_replay(const Invocation& in) {
  if (in.has("builtin") && !in.operand.empty()) {
    throw util::ContractViolation("unknown operand '" + in.operand +
                                  "' (replay takes none with --builtin)");
  }
  if (!in.has("builtin") && in.operand.empty()) {
    std::cerr << "usage: " << usage_line(*find_command("replay"), false) << '\n';
    return 2;
  }
  std::string text;
  if (in.has("builtin")) {
    text = in.get("builtin") == "mpas" ? replay::mpas_like_trace()
                                        : replay::xrage_like_trace();
  } else {
    std::ifstream file(in.operand);
    if (!file.good()) {
      std::cerr << "cannot open trace file " << in.operand << '\n';
      return 2;
    }
    text.assign(std::istreambuf_iterator<char>(file), {});
  }

  replay::AppTrace trace = replay::parse_trace(text);
  if (in.has("in-situ")) {
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

int cmd_cluster(const Invocation& in) {
  // The spec is built in a lambda: declared in this body, GCC 12 raises a
  // false -Wmaybe-uninitialized on its inlined destructor.
  const net::MultiNodeStudy study(
      [&] {
        net::ClusterSpec cluster;
        cluster.compute_nodes = in.get<std::size_t>("nodes");
        cluster.staging_nodes = in.get<std::size_t>("staging");
        cluster.pfs.storage_targets = in.get<std::size_t>("targets");
        return cluster;
      }(),
      core::case_study(1));
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

int cmd_trace_template(const Invocation&) {
  std::cout << replay::mpas_like_trace();
  return 0;
}

int cmd_campaign(const Invocation& in) {
  campaign::CampaignSpec spec;
  for (const std::string& name : in.list("pipelines")) {
    spec.pipelines.push_back(pipeline_kind(name));
  }
  spec.grids = in.list<std::size_t>("grids");
  spec.io_periods = in.list<int>("periods");
  spec.iterations = in.list<int>("iterations");
  for (const std::string& name : in.list("codecs")) {
    spec.codecs.push_back(*codec::parse_kind(name));
  }
  spec.tolerances = in.list<double>("tolerances");
  for (const std::string& name : in.list("devices")) {
    spec.devices.push_back(*core::parse_storage_device(name));
  }
  spec.frequencies = in.list<double>("freqs");
  spec.io_frequencies = in.list<double>("io-freqs");
  spec.package_caps = in.list<double>("caps");
  spec.viewer_counts = in.list<int>("viewers");
  const std::vector<campaign::CampaignConfig> configs = spec.expand();

  campaign::ResultCache cache;
  std::optional<std::ofstream> journal_out;
  if (in.has("journal")) {
    const std::string journal_path = in.get("journal");
    if (std::ifstream journal_in(journal_path);
        in.has("resume") && journal_in.good()) {
      std::cerr << "resumed " << cache.load_journal(journal_in)
                << " result(s) from " << journal_path << '\n';
    }
    journal_out.emplace(journal_path,
                        in.has("resume") ? std::ios::app : std::ios::trunc);
    if (!journal_out->good()) {
      std::cerr << "error: cannot open journal " << journal_path << '\n';
      return 1;
    }
  }

  const campaign::CampaignOptions options{
      .threads = in.get<std::size_t>("threads"),
      .shards = in.get<std::size_t>("shards"),
      .job_limit = in.get<std::size_t>("limit")};

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

  if (!write_file(in.get("out"), [&](std::ostream& file) {
        campaign::write_campaign_json(file, report);
      })) {
    return 1;
  }

  if (in.has("whatif")) {
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
      const auto heaviest = std::ranges::max_element(
          cases, {}, [](const auto& c) { return c.whatif.energy_savings(); });
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

int cmd_profile(const Invocation& in) {
  const RunFlags run = read_run_flags(in);
  const std::string pipeline = in.get("pipeline");
  const core::CaseStudyConfig& workload = run.workload;

  obs::set_energy_profiler_enabled(true);
  std::cerr << "profiling " << workload.name << " (" << pipeline << ")...\n";
  const core::Experiment experiment(run.testbed);
  const auto metrics =
      experiment.run(pipeline_kind(pipeline), workload, run.options);
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
  const auto top_n = in.get<std::size_t>("top");
  const auto ranked = analysis::top_consumers(rep, top_n);
  std::cout << "Top consumers:";
  for (const auto& c : ranked) {
    std::cout << ' ' << c.stage << ' '
              << util::cell(c.joules.value() / 1000.0) << " kJ ("
              << util::cell_percent(c.share) << ')';
  }
  std::cout << '\n';

  const auto write = [&](std::ostream& file) {
    analysis::write_energy_profile_json(file, rep, metrics.pipeline_name,
                                        metrics.case_name, top_n);
  };
  return write_file(in.get("out"), write) ? 0 : 1;
}

int cmd_serve(const Invocation& in) {
  const int viewers = in.get<int>("viewers");
  const int views = in.get<int>("views");
  const RunFlags run = read_run_flags(in);

  serve::ServeConfig config;
  config.base = run.workload;
  config.viewers = serve::default_fleet(viewers, views);
  if (in.has("link-mbps")) {
    config.delivery_mb_per_s = in.get<double>("link-mbps");
  }
  // A deterministic mid-run steer so the default profile exercises the
  // command queue: viewer 0 re-zooms and re-colors halfway through.
  serve::SteerCommand steer{.step = config.base.iterations / 2,
                            .viewer = 0,
                            .kind = serve::SteerKind::kRegion,
                            .x0 = 0.25, .y0 = 0.25, .x1 = 0.75, .y1 = 0.75};
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

  const auto write = [&](std::ostream& file) {
    serve::write_serve_profile_json(file, config, report);
  };
  return write_file(in.get("out"), write) ? 0 : 1;
}

int cmd_verify(const Invocation& in) {
  // Replay path: re-run one shrunk property counterexample from a
  // reproducer file written by a failing property check.
  if (in.has("qa-repro")) {
    qa::register_builtin_properties();
    const qa::CheckResult r = qa::replay_repro_file(in.get("qa-repro"));
    std::cout << r.summary() << '\n';
    return r.passed ? 0 : 1;
  }

  // The bands describe the paper's raw snapshots, so verify always runs
  // them raw.
  qa::ConformanceOptions options;
  options.build_label = in.get("label");

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

  if (!write_file(in.get("out"),
                  [&](std::ostream& file) { report.write_json(file); })) {
    return 1;
  }
  std::cout << "\nverify: " << (report.all_pass() ? "PASS" : "FAIL") << " ("
            << report.failures() << " failure(s))\n";
  return report.all_pass() ? 0 : 1;
}

}  // namespace

std::span<const Command> commands() {
  static constexpr Command kCommands[] = {
      {"compare", "", "run both pipelines on a case study", cmd_compare},
      {"fio", "<seq-read|rand-read|seq-write|rand-write>", "one fio job",
       cmd_fio},
      {"advise", "", "optimization advisor", cmd_advise},
      {"replay", "[<trace-file>]", "replay an app trace", cmd_replay},
      {"cluster", "", "multi-node study", cmd_cluster},
      {"campaign", "", "cached, resumable parameter sweep", cmd_campaign},
      {"profile", "", "per-stage joule attribution", cmd_profile},
      {"serve", "", "per-viewer cost of serving N viewers", cmd_serve},
      {"trace-template", "", "starter replay trace", cmd_trace_template},
      {"verify", "", "qa conformance suite or reproducer", cmd_verify},
  };
  return kCommands;
}

int main(int argc, char** argv) {
  const Command* command = argc < 2 ? nullptr : find_command(argv[1]);
  if (command == nullptr) {
    std::cerr << usage_text();
    return 2;
  }
  try {
    const Invocation in = resolve(*command, util::ArgParser(argc, argv, 2));
    if (in.has("trace-out") || in.has("metrics-out")) {
      obs::set_enabled(true);
    }
    const int rc = command->run(in);
    // The spans and metrics the run collected; a file that cannot be
    // written fails a run that succeeded.
    bool ok = true;
    if (in.has("trace-out")) {
      ok = write_file(in.get("trace-out"), [](std::ostream& out) {
        obs::Tracer::global().write_chrome_trace(out);
      });
    }
    if (in.has("metrics-out")) {
      const std::string path = in.get("metrics-out");
      ok = write_file(path, [&](std::ostream& out) {
             const auto snap = obs::Registry::global().snapshot();
             path.ends_with(".csv") ? snap.write_csv(out) : snap.write_json(out);
           }) && ok;
    }
    return rc == 0 && !ok ? 1 : rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace greenvis::cli
