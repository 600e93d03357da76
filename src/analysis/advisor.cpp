#include "src/analysis/advisor.hpp"

#include <algorithm>

#include "src/util/error.hpp"

namespace greenvis::analysis {

const char* strategy_name(Strategy strategy) {
  switch (strategy) {
    case Strategy::kKeepPostProcessing:
      return "keep post-processing";
    case Strategy::kInSitu:
      return "in-situ visualization";
    case Strategy::kDataReorganization:
      return "data reorganization";
    case Strategy::kFrequencyScaling:
      return "frequency scaling during I/O";
  }
  return "?";
}

AccessPattern snapshot_access_pattern(util::Bytes written, util::Bytes read,
                                      std::uint64_t accesses,
                                      bool exploratory_analysis_required) {
  AccessPattern p;
  p.accesses = accesses;
  const std::uint64_t total = written.value() + read.value();
  p.bytes_per_access = util::Bytes{accesses > 0 ? total / accesses : 0};
  p.random_fraction = 0.0;  // whole-file snapshot streams
  p.read_fraction =
      total > 0 ? read.as_double() / static_cast<double>(total) : 0.5;
  p.exploratory_analysis_required = exploratory_analysis_required;
  return p;
}

Advisor::Advisor(const machine::NodeSpec& node,
                 const power::DiskPowerParams& disk_power,
                 util::Watts idle_system_power)
    : node_(node), disk_power_(disk_power), idle_power_(idle_system_power) {}

util::Seconds Advisor::predict_io_time(const AccessPattern& pattern) const {
  GREENVIS_REQUIRE(pattern.random_fraction >= 0.0 &&
                   pattern.random_fraction <= 1.0);
  GREENVIS_REQUIRE(pattern.read_fraction >= 0.0 &&
                   pattern.read_fraction <= 1.0);
  const auto& d = node_.disk;
  const double per_random =
      d.average_seek.value() + d.average_rotational_latency().value() +
      pattern.bytes_per_access.as_double() / d.sustained_rate.value();
  const double per_sequential =
      pattern.bytes_per_access.as_double() / d.sustained_rate.value();
  const double n = static_cast<double>(pattern.accesses);
  return util::Seconds{n * (pattern.random_fraction * per_random +
                            (1.0 - pattern.random_fraction) * per_sequential)};
}

util::Joules Advisor::predict_io_energy(const AccessPattern& pattern) const {
  const util::Seconds t = predict_io_time(pattern);
  // Seek-bound time draws seek power, streaming time draws transfer power.
  const util::Watts transfer =
      disk_power_.read_transfer * pattern.read_fraction +
      disk_power_.write_transfer * (1.0 - pattern.read_fraction);
  const util::Watts disk_dynamic =
      disk_power_.seek * pattern.random_fraction +
      transfer * (1.0 - pattern.random_fraction);
  return (idle_power_ + disk_dynamic) * t;
}

Recommendation Advisor::recommend(const AccessPattern& pattern) const {
  Recommendation rec;

  // Baseline: leave the pipeline alone.
  StrategyEstimate keep;
  keep.strategy = Strategy::kKeepPostProcessing;
  keep.io_time = predict_io_time(pattern);
  keep.io_energy = predict_io_energy(pattern);
  keep.preserves_exploration = true;
  keep.rationale = "baseline";
  rec.all.push_back(keep);

  // In-situ: the I/O disappears entirely, and exploration with it.
  StrategyEstimate insitu;
  insitu.strategy = Strategy::kInSitu;
  insitu.io_time = util::Seconds{0.0};
  insitu.io_energy = util::Joules{0.0};
  insitu.preserves_exploration = false;
  insitu.rationale = "eliminates all off-chip data movement and idle time";
  rec.all.push_back(insitu);

  // Reorganization: the same bytes move, but sequentially.
  AccessPattern sequential = pattern;
  sequential.random_fraction = 0.0;
  StrategyEstimate reorg;
  reorg.strategy = Strategy::kDataReorganization;
  reorg.io_time = predict_io_time(sequential);
  reorg.io_energy = predict_io_energy(sequential);
  reorg.preserves_exploration = true;
  reorg.rationale = "software-directed layout turns random I/O sequential";
  rec.all.push_back(reorg);

  // Frequency scaling: I/O time is disk-bound, so dropping the CPU clock
  // during I/O trims the static floor without slowing the stage. The gain is
  // bounded: only the core dynamic/idle share scales.
  StrategyEstimate dvfs;
  dvfs.strategy = Strategy::kFrequencyScaling;
  dvfs.io_time = keep.io_time;
  // Conservative estimate: ~8 W of package power recovered during I/O.
  dvfs.io_energy = keep.io_energy - util::Watts{8.0} * keep.io_time;
  dvfs.preserves_exploration = true;
  dvfs.rationale = "disk-bound I/O tolerates a lower CPU clock";
  rec.all.push_back(dvfs);

  // Choose: cheapest strategy satisfying the exploration requirement.
  const StrategyEstimate* best = nullptr;
  for (const auto& e : rec.all) {
    if (pattern.exploratory_analysis_required && !e.preserves_exploration) {
      continue;
    }
    if (best == nullptr || e.io_energy < best->io_energy) {
      best = &e;
    }
  }
  GREENVIS_ENSURE(best != nullptr);
  rec.chosen = *best;
  return rec;
}

}  // namespace greenvis::analysis
