// Power-optimization advisor — the runtime system sketched in the paper's
// future work: "the runtime will decide the power optimization technique to
// be used" from a characterization of the workload's disk accesses.
//
// Given an access-pattern summary and the user's need for post-hoc
// exploratory analysis, the advisor prices each strategy with the disk power
// model and recommends the cheapest one that preserves the requirements.
#pragma once

#include <string>
#include <vector>

#include "src/machine/spec.hpp"
#include "src/power/calibration.hpp"
#include "src/util/units.hpp"

namespace greenvis::analysis {

/// Characterization of an application's I/O behaviour (the inputs the
/// paper's proposed power model needs: number of accesses, sizes, pattern).
struct AccessPattern {
  std::uint64_t accesses{0};
  util::Bytes bytes_per_access{0};
  /// Fraction of accesses to non-contiguous locations, in [0, 1].
  double random_fraction{0.0};
  /// Reads as a fraction of all accesses, in [0, 1].
  double read_fraction{0.5};
  /// Does the scientist need post-hoc exploratory analysis?
  bool exploratory_analysis_required{true};
};

/// Characterize a pipeline's snapshot traffic (totals a campaign result
/// records) as an AccessPattern the advisor can price. Snapshot I/O is
/// streamed whole-file, so the pattern is sequential; `accesses` is the
/// number of snapshot writes + reads.
[[nodiscard]] AccessPattern snapshot_access_pattern(
    util::Bytes written, util::Bytes read, std::uint64_t accesses,
    bool exploratory_analysis_required);

enum class Strategy {
  kKeepPostProcessing,
  kInSitu,
  kDataReorganization,
  kFrequencyScaling,
};

[[nodiscard]] const char* strategy_name(Strategy strategy);

struct StrategyEstimate {
  Strategy strategy{Strategy::kKeepPostProcessing};
  util::Seconds io_time{0.0};
  util::Joules io_energy{0.0};
  bool preserves_exploration{true};
  std::string rationale;
};

struct Recommendation {
  StrategyEstimate chosen;
  std::vector<StrategyEstimate> all;
};

class Advisor {
 public:
  Advisor(const machine::NodeSpec& node,
          const power::DiskPowerParams& disk_power,
          util::Watts idle_system_power);

  /// Predicted I/O time of the pattern on the HDD model (the disk power
  /// model of the paper's future work).
  [[nodiscard]] util::Seconds predict_io_time(
      const AccessPattern& pattern) const;
  /// Predicted full-system energy attributable to the I/O phase.
  [[nodiscard]] util::Joules predict_io_energy(
      const AccessPattern& pattern) const;

  [[nodiscard]] Recommendation recommend(const AccessPattern& pattern) const;

 private:
  machine::NodeSpec node_;
  power::DiskPowerParams disk_power_;
  util::Watts idle_power_;
};

}  // namespace greenvis::analysis
