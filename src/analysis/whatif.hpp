// Sec. V-D: the data-reorganization what-if.
//
// "For an application exhibiting random I/O behavior, we could save 242.2 kJ
// of energy by adopting in-situ visualization. However, we will lose the
// capability for exploratory analysis. But, if we were to adopt
// data-rearrangement techniques on the post-processing pipeline, we will
// lose out only 7.3 kJ of energy, instead of 242.2 kJ, while at the same
// time retaining all of the exploratory analysis capabilities."
//
// The analysis takes the four fio rows and prices the three strategies; the
// bench additionally demonstrates a live reorganization with the storage
// layer's Reorganizer.
#pragma once

#include "src/fio/job.hpp"
#include "src/util/units.hpp"

namespace greenvis::analysis {

struct ReorganizationWhatIf {
  /// Random-I/O post-processing app: random read + random write energy.
  util::Joules random_io_energy{0.0};
  /// After software-directed reorganization: sequential read + write energy.
  util::Joules reorganized_energy{0.0};
  /// In-situ: no disk I/O at all.
  util::Joules insitu_io_energy{0.0};

  /// Energy the in-situ switch would save over the random-I/O app.
  [[nodiscard]] util::Joules insitu_savings() const {
    return random_io_energy - insitu_io_energy;
  }
  /// Energy still "lost" after reorganization, relative to in-situ.
  [[nodiscard]] util::Joules reorganization_residual() const {
    return reorganized_energy - insitu_io_energy;
  }
};

/// Build the what-if from Table III results (full-system energies).
[[nodiscard]] ReorganizationWhatIf reorganization_whatif(
    const fio::FioResult& seq_read, const fio::FioResult& rand_read,
    const fio::FioResult& seq_write, const fio::FioResult& rand_write);

/// Sec. V-A/V-B priced from measured pipelines: what switching one workload
/// from post-processing to in-situ buys (the campaign engine's warm cache
/// supplies both sides of every pair — see campaign/query.hpp).
struct PipelineSwitchWhatIf {
  util::Joules post_energy{0.0};
  util::Joules insitu_energy{0.0};
  util::Seconds post_time{0.0};
  util::Seconds insitu_time{0.0};

  [[nodiscard]] util::Joules energy_savings() const {
    return post_energy - insitu_energy;
  }
  /// Post-processing energy per in-situ joule (Fig. 9's ratio view).
  [[nodiscard]] double energy_ratio() const {
    return insitu_energy.value() > 0.0 ? post_energy / insitu_energy : 0.0;
  }
};

[[nodiscard]] PipelineSwitchWhatIf pipeline_switch_whatif(
    util::Joules post_energy, util::Seconds post_time,
    util::Joules insitu_energy, util::Seconds insitu_time);

}  // namespace greenvis::analysis
