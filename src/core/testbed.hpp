// The simulated system under test: one node, its storage stack, and the
// bookkeeping that the power profiler later consumes.
//
// A Testbed owns the virtual clock, the block device, the filesystem, the
// cost model, the CPU load timeline, and the phase timeline. Pipelines
// execute against it through two primitives:
//
//   * run_compute(activity, phase) — a modeled compute burst: the cost model
//     converts the activity record into a virtual duration, the load
//     timeline gets a segment, the phase timeline gets an interval.
//   * run_io(phase, cores, util, body) — an I/O region: `body` drives the
//     filesystem (which advances the clock itself); the elapsed span is
//     recorded as a phase with a light CPU load.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/machine/cost_model.hpp"
#include "src/machine/load.hpp"
#include "src/machine/spec.hpp"
#include "src/power/calibration.hpp"
#include "src/power/model.hpp"
#include "src/power/profiler.hpp"
#include "src/storage/filesystem.hpp"
#include "src/trace/clock.hpp"
#include "src/trace/timeline.hpp"

namespace greenvis::core {

/// Which storage model backs the testbed's filesystem. The paper's node has
/// the 7200 rpm HDD; the SSD/NVRAM substitutions are its future-work
/// "flash-based devices" direction, and the campaign engine sweeps them as
/// a first-class axis.
enum class StorageDeviceKind { kHdd, kSsd, kNvram };

[[nodiscard]] const char* storage_device_name(StorageDeviceKind kind);
/// Inverse of storage_device_name; nullopt for unknown names.
[[nodiscard]] std::optional<StorageDeviceKind> parse_storage_device(
    std::string_view name);

struct TestbedConfig {
  machine::NodeSpec node{machine::sandy_bridge_testbed()};
  machine::CostModelParams cost{};
  storage::FsParams fs{.allocation = storage::AllocationPolicy::kAged};
  power::PowerCalibration calibration{};
  power::ProfilerConfig profiler{};
  /// DVFS state for compute stages (nominal by default).
  double frequency_ghz{2.4};
  /// DVFS state for I/O stages. The disk does not care about the CPU clock,
  /// so a runtime can park the cores in a low P-state while the pipeline is
  /// disk-bound — the selective frequency scaling Sec. V-C motivates.
  /// Finite and >= 0; 0 means "same as frequency_ghz".
  double io_frequency_ghz{0.0};
  /// Storage device under the filesystem (HDD by default — Table I's
  /// drive; every seed figure is unchanged unless this is varied).
  StorageDeviceKind device{StorageDeviceKind::kHdd};
  /// RAPL package power limit (both sockets together), finite and >= 0;
  /// 0 means uncapped. When > 0, compute stages are throttled to the
  /// fastest P-state whose package power fits under the cap — the
  /// enforcement mechanism RAPL's power-limiting half provides (Sec. II-C;
  /// the paper only uses the monitoring half). Peak power is "an important
  /// metric for power-capped systems" (Sec. V-B).
  util::Watts package_cap{0.0};

  [[nodiscard]] double effective_io_ghz() const {
    return io_frequency_ghz > 0.0 ? io_frequency_ghz : frequency_ghz;
  }
};

class Testbed {
 public:
  explicit Testbed(const TestbedConfig& config = {});

  [[nodiscard]] trace::VirtualClock& clock() { return clock_; }
  [[nodiscard]] storage::Filesystem& fs() { return *fs_; }
  [[nodiscard]] storage::BlockDevice& device() { return *device_; }
  [[nodiscard]] const machine::CostModel& cost_model() const { return cost_; }
  [[nodiscard]] machine::LoadTimeline& loads() { return loads_; }
  [[nodiscard]] trace::Timeline& phases() { return phases_; }
  [[nodiscard]] const TestbedConfig& config() const { return config_; }

  /// Modeled compute burst (see file comment). Under a package cap the
  /// governor picks the fastest admissible P-state for this activity.
  void run_compute(const machine::ActivityRecord& activity,
                   const std::string& phase);

  /// Modeled compute burst placed at an explicit virtual start time, for
  /// tracks that run ahead of (or beside) the shared clock — the async
  /// staging producer keeps its own compute cursor while the writer owns
  /// the clock. Records load + phase at [start, start+dur) WITHOUT
  /// advancing the clock; returns the interval end. Successive calls must
  /// pass nondecreasing starts (one track is serial).
  [[nodiscard]] util::Seconds run_compute_at(
      util::Seconds start, const machine::ActivityRecord& activity,
      const std::string& phase);

  /// I/O region placed at an explicit virtual start: positions the shared
  /// clock at max(start, now), runs `body` (which advances the clock), and
  /// records the span. When `loads`/`phases` sinks are given the interval
  /// goes there instead of the testbed's own timelines — a concurrently
  /// recording track (the staging writer thread) stays off the main
  /// timelines until the caller merges at a barrier. Returns completion.
  util::Seconds run_io_at(util::Seconds start, const std::string& phase,
                          double cores, double utilization,
                          const std::function<void()>& body,
                          machine::LoadTimeline* loads = nullptr,
                          trace::Timeline* phases = nullptr);

  /// Record a backpressure stall [begin, end): the producer blocked waiting
  /// for a staging slot, busy-polling like an I/O region (light load at the
  /// I/O clock). No clock movement.
  void record_stall(const std::string& phase, util::Seconds begin,
                    util::Seconds end, double cores, double utilization);

  /// The frequency the RAPL governor grants `activity` (nominal when no cap
  /// is set or the cap admits full speed).
  [[nodiscard]] double governed_frequency(
      const machine::ActivityRecord& activity) const;

  /// I/O region: run `body`, record the span as `phase` with a light CPU
  /// load (`cores` x `utilization`).
  void run_io(const std::string& phase, double cores, double utilization,
              const std::function<void()>& body);

  /// Advance the clock without any activity (system idles).
  void idle(util::Seconds duration);

  /// Profile power over [0, clock.now()), 1 Hz.
  [[nodiscard]] power::PowerTrace profile() const;

  /// The power model bound to this testbed's calibration.
  [[nodiscard]] power::PowerModel power_model() const;

 private:
  TestbedConfig config_;
  trace::VirtualClock clock_;
  std::unique_ptr<storage::BlockDevice> device_;
  std::unique_ptr<storage::Filesystem> fs_;
  machine::CostModel cost_;
  machine::LoadTimeline loads_;
  trace::Timeline phases_;
};

}  // namespace greenvis::core
