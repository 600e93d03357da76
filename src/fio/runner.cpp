#include "src/fio/runner.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/obs/tracer.hpp"
#include "src/storage/filesystem.hpp"
#include "src/storage/hdd.hpp"
#include "src/storage/solid_state.hpp"
#include "src/trace/clock.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"

namespace greenvis::fio {

const char* rw_mode_name(RwMode mode) {
  switch (mode) {
    case RwMode::kSequentialRead:
      return "Sequential Read";
    case RwMode::kRandomRead:
      return "Random Read";
    case RwMode::kSequentialWrite:
      return "Sequential Write";
    case RwMode::kRandomWrite:
      return "Random Write";
  }
  return "?";
}

FioJob table3_job(RwMode mode) {
  FioJob job;
  job.mode = mode;
  job.name = rw_mode_name(mode);
  job.total_size = util::gibibytes(4);
  switch (mode) {
    case RwMode::kSequentialRead:
    case RwMode::kSequentialWrite:
      job.block_size = util::mebibytes(1);
      job.end_fsync = true;
      break;
    case RwMode::kRandomRead:
    case RwMode::kRandomWrite:
      // The paper does not report fio parameters; 16 KiB blocks reproduce
      // Table III's 2230 s random-read time on this drive model.
      job.block_size = util::kibibytes(16);
      job.end_fsync = false;
      break;
  }
  return job;
}

FioRunner::FioRunner(const FioRunnerConfig& config) : config_(config) {}

namespace {

std::unique_ptr<storage::BlockDevice> make_device(
    const FioRunnerConfig& config) {
  switch (config.device) {
    case DeviceKind::kHdd: {
      storage::HddParams p;
      p.spec = config.node.disk;
      return std::make_unique<storage::HddModel>(p);
    }
    case DeviceKind::kSsd:
      return std::make_unique<storage::SolidStateModel>(
          storage::sata_ssd_params());
    case DeviceKind::kNvram:
      return std::make_unique<storage::SolidStateModel>(
          storage::nvram_params());
  }
  GREENVIS_REQUIRE(false);
  return nullptr;
}

power::DiskPowerParams disk_power_for(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::kHdd:
      return power::hdd_power_params();
    case DeviceKind::kSsd:
      return power::ssd_power_params();
    case DeviceKind::kNvram:
      return power::nvram_power_params();
  }
  return power::hdd_power_params();
}

}  // namespace

FioRunOutput FioRunner::run(const FioJob& job) const {
  GREENVIS_REQUIRE(job.total_size.value() > 0);
  GREENVIS_REQUIRE(job.block_size.value() > 0);
  GREENVIS_REQUIRE(job.total_size.value() % job.block_size.value() == 0);
  obs::ScopedSpan span("fio:", job.name, obs::kCatIo);
  if (obs::enabled()) {
    auto& registry = obs::Registry::global();
    static obs::Counter& ops = registry.counter("fio.ops");
    static obs::Counter& bytes = registry.counter("fio.bytes");
    ops.add(job.total_size.value() / job.block_size.value());
    bytes.add(job.total_size.value());
  }

  trace::VirtualClock clock;
  auto device = make_device(config_);
  storage::FsParams fs_params;
  fs_params.allocation = storage::AllocationPolicy::kAged;
  storage::Filesystem fs(*device, clock, fs_params);
  util::Xoshiro256 rng{job.seed};
  // The job's one file is laid out contiguously; refuse a job that cannot
  // fit before any of it is written.
  const std::uint64_t fs_block = fs_params.block_size.value();
  const std::uint64_t space = fs.contiguous_space().value();
  if ((job.total_size.value() + fs_block - 1) / fs_block * fs_block > space) {
    constexpr std::uint64_t kMiB = 1 << 20;
    throw util::ContractViolation(
        "fio job of " + std::to_string(job.total_size.value() / kMiB) +
        " MiB does not fit the device's " + std::to_string(space / kMiB) +
        " MiB contiguous region");
  }

  const std::uint64_t bs = job.block_size.value();
  const std::uint64_t total = job.total_size.value();
  const std::uint64_t n_ops = total / bs;
  const util::Seconds syscall = fs_params.syscall_overhead;
  const util::Seconds memcpy_time =
      util::transfer_time(job.block_size, config_.memcpy_rate);

  const bool is_read = job.mode == RwMode::kSequentialRead ||
                       job.mode == RwMode::kRandomRead;
  const bool needs_existing = is_read || job.mode == RwMode::kRandomWrite;

  // -- preparation (outside the measured window) --
  const char* kData = "fio.dat";
  if (needs_existing) {
    const auto fd = fs.create(kData, /*force_contiguous=*/true);
    const std::uint64_t prep_chunk = util::mebibytes(4).value();
    for (std::uint64_t off = 0; off < total; off += prep_chunk) {
      fs.write_synthetic(fd, util::Bytes{std::min(prep_chunk, total - off)},
                         storage::WriteMode::kBuffered);
    }
    fs.close(fd);
    fs.drop_caches();
  }
  // Align the measured window to a whole sampling second.
  clock.advance_to(util::Seconds{std::ceil(clock.now().value())});
  const util::Seconds t0 = clock.now();

  machine::LoadTimeline loads;
  machine::ComponentLoad cpu;
  cpu.frequency_ghz = config_.node.cpu.nominal_ghz;

  switch (job.mode) {
    case RwMode::kSequentialRead: {
      const auto fd = fs.open(kData);
      for (std::uint64_t off = 0; off < total; off += bs) {
        fs.pread_timed(fd, off, bs, storage::ReadMode::kBuffered);
        clock.advance(memcpy_time);  // copy_to_user of the block
      }
      fs.close(fd);
      cpu.active_cores = 1.0;
      cpu.core_utilization = 0.35;
      loads.add(t0, clock.now(), cpu);
      break;
    }
    case RwMode::kRandomRead: {
      const auto fd = fs.open(kData);
      for (std::uint64_t k = 0; k < n_ops; ++k) {
        const std::uint64_t slot = rng.uniform_index(n_ops);
        fs.pread_timed(fd, slot * bs, bs, storage::ReadMode::kDirect);
      }
      fs.close(fd);
      cpu.active_cores = 1.0;
      cpu.core_utilization = 0.12;
      loads.add(t0, clock.now(), cpu);
      break;
    }
    case RwMode::kSequentialWrite: {
      const auto fd = fs.create("fio_out.dat", /*force_contiguous=*/true);
      for (std::uint64_t k = 0; k < n_ops; ++k) {
        fs.write_synthetic(fd, job.block_size, storage::WriteMode::kBuffered);
        clock.advance(memcpy_time);
      }
      if (job.end_fsync) {
        fs.fsync(fd);
      }
      fs.close(fd);
      cpu.active_cores = 1.0;
      cpu.core_utilization = 0.45;
      loads.add(t0, clock.now(), cpu);
      break;
    }
    case RwMode::kRandomWrite: {
      // Buffered random writes: the submission loop is CPU-bound while the
      // kernel's background writeback streams sorted dirty pages to the
      // drive concurrently. Submission and writeback are modeled on their
      // own timelines; the job ends when the slower one finishes (the page
      // cache still holds whatever writeback has not reached — exactly the
      // testbed situation, where fio exits without fsync).
      std::vector<std::uint64_t> slots(n_ops);
      for (auto& s : slots) {
        s = rng.uniform_index(n_ops);
      }
      // Submission timeline (CPU).
      const util::Seconds submit_end =
          t0 + (syscall + memcpy_time) * static_cast<double>(n_ops);
      // Writeback timeline (device): unique dirty blocks in elevator order.
      std::vector<std::uint64_t> unique = slots;
      std::sort(unique.begin(), unique.end());
      unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
      const auto extents = fs.extents(kData);
      GREENVIS_REQUIRE(!extents.empty());
      const std::uint64_t dev_base = extents.front().device_offset;
      util::Seconds t_dev = t0;
      for (std::uint64_t slot : unique) {
        const storage::IoRequest req{storage::IoKind::kWrite,
                                     dev_base + slot * bs,
                                     static_cast<std::uint32_t>(bs)};
        t_dev = device->service(req, t_dev);
      }
      t_dev = device->flush(t_dev);
      clock.advance_to(std::max(submit_end, t_dev));
      cpu.active_cores = 1.0;
      cpu.core_utilization = 1.0;
      loads.add(t0, submit_end, cpu);
      break;
    }
  }

  const util::Seconds t_end = clock.now();

  // -- measurement --
  const power::PowerModel model(config_.calibration,
                                disk_power_for(config_.device));
  power::PowerProfiler profiler(model,
                                power::ProfilerConfig{.seed = job.seed});
  const power::PowerTrace full =
      profiler.profile(loads, device.get(), t_end);
  const power::PowerTrace window = full.slice(t0, t_end);

  FioRunOutput out;
  out.trace = window;
  out.result.job_name = job.name;
  out.result.execution_time = t_end - t0;
  out.result.bytes_transferred = job.total_size;
  out.result.full_system_power = window.average(&power::PowerSample::system);
  const util::Watts disk_avg = window.average(&power::PowerSample::disk_model);
  out.result.disk_dynamic_power =
      util::Watts{std::max(0.0, (disk_avg - model.disk_idle_power()).value())};
  out.result.disk_dynamic_energy =
      out.result.disk_dynamic_power * out.result.execution_time;
  out.result.full_system_energy =
      out.result.full_system_power * out.result.execution_time;
  return out;
}

}  // namespace greenvis::fio
