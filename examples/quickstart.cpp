// Quickstart: compare the greenness of the two visualization pipelines on
// the paper's case study 1 and print the headline numbers.
//
//   $ ./quickstart [case_number]
#include <cstdlib>
#include <iostream>

#include "src/analysis/metrics.hpp"
#include "src/core/experiment.hpp"
#include "src/util/table.hpp"

int main(int argc, char** argv) {
  using namespace greenvis;

  const int case_number = argc > 1 ? std::atoi(argv[1]) : 1;
  if (case_number < 1 || case_number > 3) {
    std::cerr << "usage: quickstart [1|2|3]\n";
    return 1;
  }

  const core::CaseStudyConfig config = core::case_study(case_number);
  std::cout << "Running " << config.name << " (" << config.iterations
            << " iterations, I/O every " << config.io_period
            << (config.io_period == 1 ? "st" : "th")
            << " step) on the simulated Sandy Bridge testbed...\n\n";

  const core::Experiment experiment;
  core::PipelineOptions options;
  options.frame_digests = true;  // to compare the two pipelines' frames
  const auto post =
      experiment.run(core::PipelineKind::kPostProcessing, config, options);
  const auto insitu =
      experiment.run(core::PipelineKind::kInSitu, config, options);
  const auto cmp = analysis::compare(post, insitu);

  util::TextTable table(
      {"Metric", "Post-processing", "In-situ", "Delta"});
  table.add_row({"Execution time (s)", util::cell(cmp.time_post.value()),
                 util::cell(cmp.time_insitu.value()),
                 "-" + util::cell_percent(cmp.time_reduction())});
  table.add_row({"Average power (W)", util::cell(cmp.avg_power_post.value()),
                 util::cell(cmp.avg_power_insitu.value()),
                 "+" + util::cell_percent(cmp.avg_power_increase())});
  table.add_row({"Peak power (W)", util::cell(cmp.peak_power_post.value()),
                 util::cell(cmp.peak_power_insitu.value()), "~"});
  table.add_row({"Energy (kJ)", util::cell(cmp.energy_post.value() / 1000.0),
                 util::cell(cmp.energy_insitu.value() / 1000.0),
                 "-" + util::cell_percent(cmp.energy_savings())});
  table.add_row({"Energy efficiency (norm.)",
                 util::cell(1.0 / (1.0 + cmp.efficiency_improvement()), 2),
                 "1.00",
                 "+" + util::cell_percent(cmp.efficiency_improvement())});
  std::cout << table.render() << '\n';

  std::cout << "Both pipelines rendered " << post.output.visualized_steps
            << " frames; image digests "
            << (core::same_frames(post.output, insitu.output) ? "MATCH"
                                                               : "DIFFER")
            << " (the trade-off is cost, not output).\n";
  return 0;
}
