// Ablation A5: in-situ data sampling (Woodring et al. [21], cited in the
// paper's related work) — energy vs reconstruction quality for the
// post-processing pipeline writing 1/k^2 of the data.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"

namespace {

// A sampling stride scored on two axes, lower being better on both.
struct Candidate {
  std::string label;
  double energy{0.0};
  double error{0.0};
};

// The candidates no other one dominates (no worse on both axes and strictly
// better on one), sorted by energy.
std::vector<Candidate> pareto_front(const std::vector<Candidate>& points) {
  std::vector<Candidate> front;
  for (const Candidate& c : points) {
    const bool dominated = std::any_of(
        points.begin(), points.end(), [&](const Candidate& o) {
          return o.energy <= c.energy && o.error <= c.error &&
                 (o.energy < c.energy || o.error < c.error);
        });
    if (!dominated) {
      front.push_back(c);
    }
  }
  std::sort(front.begin(), front.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.energy < b.energy;
            });
  return front;
}

}  // namespace

int main() {
  using namespace greenvis;
  std::cout << "=== Ablation: sampled post-processing (case study 1) ===\n\n";

  const core::Experiment base_experiment;
  const auto config = core::case_study(1);
  std::cerr << "[bench] reference in-situ run...\n";
  const auto insitu =
      base_experiment.run(core::PipelineKind::kInSitu, config);

  util::TextTable t({"Stride", "Bytes written (MB)", "Time (s)",
                     "Energy (kJ)", "Mean RMS error", "Savings vs stride 1"});
  std::vector<Candidate> points;
  double full_energy = 0.0;
  for (std::size_t stride : {1, 2, 4, 8}) {
    std::cerr << "[bench] stride " << stride << "...\n";
    core::Testbed bed;
    const auto out =
        core::run_pipeline(bed, core::PipelineKind::kPostProcessing, config,
                           {}, core::Sampling{stride});
    const auto trace = bed.profile();
    const double energy = trace.energy(&power::PowerSample::system).value();
    if (stride == 1) {
      full_energy = energy;
    }
    t.add_row({std::to_string(stride),
               util::cell(out.snapshot_bytes_written.megabytes(), 2),
               util::cell(bed.clock().now().value()),
               util::cell(energy / 1000.0),
               util::cell(out.mean_rms_error, 3),
               util::cell_percent(1.0 - energy / full_energy)});
    points.push_back(Candidate{
        "stride " + std::to_string(stride), energy, out.mean_rms_error});
  }
  std::cout << t.render();

  std::cout << "\nPareto-optimal configurations (energy vs error): ";
  for (const auto& p : pareto_front(points)) {
    std::cout << p.label << "  ";
  }
  std::cout << '\n';
  std::cout << "\nReference: pure in-situ consumes "
            << util::cell(insitu.energy.value() / 1000.0)
            << " kJ with zero storage and zero reconstruction error — but "
               "no post-hoc exploration.\n"
            << "Takeaway: sampling interpolates between the two pipelines, "
               "trading reconstruction error for the I/O (and idle-time) "
               "energy the paper attributes 91% of in-situ's savings to.\n";
  return 0;
}
