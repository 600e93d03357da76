#include "src/core/testbed.hpp"

#include <cmath>

#include "src/obs/tracer.hpp"
#include "src/storage/hdd.hpp"
#include "src/storage/solid_state.hpp"
#include "src/util/error.hpp"

namespace greenvis::core {

const char* storage_device_name(StorageDeviceKind kind) {
  switch (kind) {
    case StorageDeviceKind::kHdd:
      return "hdd";
    case StorageDeviceKind::kSsd:
      return "ssd";
    case StorageDeviceKind::kNvram:
      return "nvram";
  }
  return "?";
}

std::optional<StorageDeviceKind> parse_storage_device(std::string_view name) {
  for (StorageDeviceKind kind :
       {StorageDeviceKind::kHdd, StorageDeviceKind::kSsd,
        StorageDeviceKind::kNvram}) {
    if (name == storage_device_name(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

namespace {

std::unique_ptr<storage::BlockDevice> make_device(
    const TestbedConfig& config) {
  switch (config.device) {
    case StorageDeviceKind::kSsd:
      return std::make_unique<storage::SolidStateModel>(
          storage::sata_ssd_params());
    case StorageDeviceKind::kNvram:
      return std::make_unique<storage::SolidStateModel>(
          storage::nvram_params());
    case StorageDeviceKind::kHdd:
      break;
  }
  storage::HddParams hdd;
  hdd.spec = config.node.disk;
  return std::make_unique<storage::HddModel>(hdd);
}

power::DiskPowerParams disk_power_params_for(StorageDeviceKind kind) {
  switch (kind) {
    case StorageDeviceKind::kSsd:
      return power::ssd_power_params();
    case StorageDeviceKind::kNvram:
      return power::nvram_power_params();
    case StorageDeviceKind::kHdd:
      break;
  }
  return power::hdd_power_params();
}

}  // namespace

Testbed::Testbed(const TestbedConfig& config)
    : config_(config), cost_(config.node, config.cost) {
  // A NaN cap would pass `cap <= 0` as "capped" and then fit no P-state,
  // silently pinning every burst to the lowest clock.
  GREENVIS_REQUIRE_MSG(std::isfinite(config.package_cap.value()) &&
                           config.package_cap.value() >= 0.0,
                       "package_cap must be a finite number of watts >= 0");
  GREENVIS_REQUIRE_MSG(
      std::isfinite(config.io_frequency_ghz) && config.io_frequency_ghz >= 0.0,
      "io_frequency_ghz must be a finite number >= 0");
  device_ = make_device(config_);
  fs_ = std::make_unique<storage::Filesystem>(*device_, clock_, config_.fs);
}

double Testbed::governed_frequency(
    const machine::ActivityRecord& activity) const {
  if (config_.package_cap.value() <= 0.0) {
    return config_.frequency_ghz;
  }
  const power::PowerModel model = power_model();
  const auto ladder = machine::e5_2665_pstates();
  // Walk the ladder downward until the package fits under the cap; the
  // lowest P-state is granted unconditionally (RAPL cannot go below Pn).
  double granted = ladder.front().frequency_ghz;
  for (auto it = ladder.rbegin(); it != ladder.rend(); ++it) {
    if (it->frequency_ghz > config_.frequency_ghz + 1e-9) {
      continue;  // never exceed the configured clock
    }
    machine::ComponentLoad load;
    load.active_cores = static_cast<double>(activity.active_cores);
    load.core_utilization = activity.core_utilization;
    load.frequency_ghz = it->frequency_ghz;
    if (model.package_power(load) <= config_.package_cap) {
      granted = it->frequency_ghz;
      break;
    }
  }
  return granted;
}

void Testbed::run_compute(const machine::ActivityRecord& activity,
                          const std::string& phase) {
  clock_.advance_to(run_compute_at(clock_.now(), activity, phase));
}

util::Seconds Testbed::run_compute_at(util::Seconds start,
                                      const machine::ActivityRecord& activity,
                                      const std::string& phase) {
  const double freq = governed_frequency(activity);
  const util::Seconds dur = cost_.duration(activity, freq);
  loads_.add(start, start + dur, cost_.load(activity, dur, freq));
  phases_.record(phase, start, start + dur);
  return start + dur;
}

void Testbed::run_io(const std::string& phase, double cores,
                     double utilization, const std::function<void()>& body) {
  GREENVIS_REQUIRE(cores >= 0.0 && utilization > 0.0 && utilization <= 1.0);
  // Host wall-clock span around the real storage-model work; the virtual
  // interval is recorded separately below.
  obs::ScopedSpan span("stage.io:", phase, obs::kCatIo);
  const util::Seconds t0 = clock_.now();
  body();
  const util::Seconds t1 = clock_.now();
  if (t1 > t0) {
    machine::ComponentLoad load;
    load.active_cores = cores;
    load.core_utilization = utilization;
    load.frequency_ghz = config_.effective_io_ghz();
    loads_.add(t0, t1, load);
    phases_.record(phase, t0, t1);
  }
}

util::Seconds Testbed::run_io_at(util::Seconds start, const std::string& phase,
                                 double cores, double utilization,
                                 const std::function<void()>& body,
                                 machine::LoadTimeline* loads,
                                 trace::Timeline* phases) {
  GREENVIS_REQUIRE(cores >= 0.0 && utilization > 0.0 && utilization <= 1.0);
  obs::ScopedSpan span("stage.io:", phase, obs::kCatIo);
  if (start > clock_.now()) {
    clock_.advance_to(start);
  }
  const util::Seconds t0 = clock_.now();
  body();
  const util::Seconds t1 = clock_.now();
  if (t1 > t0) {
    machine::ComponentLoad load;
    load.active_cores = cores;
    load.core_utilization = utilization;
    load.frequency_ghz = config_.effective_io_ghz();
    (loads != nullptr ? *loads : loads_).add(t0, t1, load);
    (phases != nullptr ? *phases : phases_).record(phase, t0, t1);
  }
  return t1;
}

void Testbed::record_stall(const std::string& phase, util::Seconds begin,
                           util::Seconds end, double cores,
                           double utilization) {
  GREENVIS_REQUIRE(cores >= 0.0 && utilization > 0.0 && utilization <= 1.0);
  if (end <= begin) {
    return;
  }
  machine::ComponentLoad load;
  load.active_cores = cores;
  load.core_utilization = utilization;
  load.frequency_ghz = config_.effective_io_ghz();
  loads_.add(begin, end, load);
  phases_.record(phase, begin, end);
}

void Testbed::idle(util::Seconds duration) { clock_.advance(duration); }

power::PowerModel Testbed::power_model() const {
  return power::PowerModel(config_.calibration,
                           disk_power_params_for(config_.device));
}

power::PowerTrace Testbed::profile() const {
  const power::PowerModel model = power_model();
  power::PowerProfiler profiler(model, config_.profiler);
  return profiler.profile(loads_, device_.get(), clock_.now());
}

}  // namespace greenvis::core
