// Experiment runner: pipelines + power measurement, packaged as the metrics
// the paper reports (execution time, average/peak power, energy, energy
// efficiency), plus the standalone nnread/nnwrite stage experiments behind
// Fig. 6 and Table II.
#pragma once

#include <string>

#include "src/core/pipeline.hpp"
#include "src/core/testbed.hpp"
#include "src/core/workload.hpp"
#include "src/obs/energy.hpp"
#include "src/power/trace.hpp"

namespace greenvis::core {

struct PipelineMetrics {
  std::string pipeline_name;
  std::string case_name;
  util::Seconds duration{0.0};
  util::Joules energy{0.0};
  util::Watts average_power{0.0};
  util::Watts peak_power{0.0};
  /// Simulated cell-updates per joule (both pipelines do identical science
  /// for a case study, so the ratio of efficiencies is the inverse ratio of
  /// energies — Fig. 11).
  double efficiency{0.0};
  trace::Timeline timeline;
  power::PowerTrace trace{util::Seconds{1.0}};
  /// Per-stage joule attribution (conservation-checked; deterministic, so
  /// it is always computed — downstream consumers like campaign sweep
  /// columns must not depend on the profiler flag).
  obs::EnergyReport attribution;
  PipelineOutput output;
};

/// A standalone stage run (nnread / nnwrite of Fig. 6, Table II).
struct StageRun {
  std::string name;
  util::Seconds duration{0.0};
  util::Watts average_power{0.0};
  /// Average power above the idle floor — Table II's "Avg. Power (Dynamic)".
  util::Watts average_dynamic_power{0.0};
  power::PowerTrace trace{util::Seconds{1.0}};
};

class Experiment {
 public:
  explicit Experiment(const TestbedConfig& base = {}) : base_(base) {}

  /// Run one pipeline on a fresh testbed and measure it.
  [[nodiscard]] PipelineMetrics run(PipelineKind kind,
                                    const CaseStudyConfig& config,
                                    const PipelineOptions& options = {}) const;

  /// Run `steps` isolated write (nnwrite) or read (nnread) stage iterations
  /// on a fresh testbed; preparation is excluded from the measured window.
  [[nodiscard]] StageRun run_write_stage(const CaseStudyConfig& config,
                                         int steps) const;
  [[nodiscard]] StageRun run_read_stage(const CaseStudyConfig& config,
                                        int steps) const;

 private:
  TestbedConfig base_;
};

}  // namespace greenvis::core
