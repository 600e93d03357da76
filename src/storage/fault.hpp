// Fault injection for the storage stack.
//
// Aging drives degrade before they die: marginal sectors need re-reads
// (each retry waits a full platter rotation for the sector to come around
// again), and some LBAs become unreadable outright. The decorator wraps any
// BlockDevice and injects both failure modes deterministically, so tests
// can ask two questions the paper's energy argument depends on:
//
//   * soft degradation — how much energy does a retry-prone disk add to the
//     post-processing pipeline (and none to in-situ, which never touches
//     it)?
//   * hard faults — do errors surface loudly through the filesystem and
//     dataset layers (checksummed frames), never as silent corruption?
//
// Retries are modeled as genuine re-issues of the same request against the
// wrapped device, so their seek/rotation time lands in the wrapped device's
// activity log and is priced by the power model like any other mechanical
// work.
#pragma once

#include <stdexcept>
#include <vector>

#include "src/storage/block_device.hpp"
#include "src/util/rng.hpp"

namespace greenvis::storage {

// DeviceError lives in block_device.hpp so the queue layer can attach it to
// completion records without depending on the fault decorator.

struct FaultConfig {
  /// Probability a request needs at least one retry.
  double retry_probability{0.0};
  /// Retries per affected request.
  std::size_t retries{1};
  /// Unreadable byte ranges: requests touching one fail hard (after
  /// consuming the configured retries' worth of time).
  struct BadRange {
    std::uint64_t offset{0};
    std::uint64_t length{0};
  };
  std::vector<BadRange> bad_ranges;
  /// Also fail writes touching a bad range (media past remapping — lets
  /// tests surface hard faults on the writer/stager path).
  bool fail_writes{false};
  std::uint64_t seed{0xFA17u};
};

class FaultyDisk final : public BlockDevice {
 public:
  FaultyDisk(BlockDevice& inner, const FaultConfig& config);

  Seconds service(const IoRequest& request, Seconds start) override;
  /// Fault-aware timing: a hard fault consumes the retries' worth of device
  /// time and is reported on the outcome instead of thrown, so the async
  /// layer can pin it to the right completion record.
  IoOutcome service_outcome(const IoRequest& request, Seconds start) override;
  Seconds flush(Seconds start) override;

  [[nodiscard]] Bytes capacity() const override { return inner_->capacity(); }
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] const DiskActivityLog& activity() const override {
    return inner_->activity();
  }
  [[nodiscard]] const DeviceCounters& counters() const override {
    return inner_->counters();
  }

  [[nodiscard]] std::uint64_t retries_injected() const { return retries_; }
  [[nodiscard]] std::uint64_t hard_errors() const { return hard_errors_; }

  /// Declare a range unreadable mid-run (media degradation while in use).
  void mark_bad(std::uint64_t offset, std::uint64_t length) {
    config_.bad_ranges.push_back(FaultConfig::BadRange{offset, length});
  }

 private:
  [[nodiscard]] bool touches_bad_range(const IoRequest& request) const;

  BlockDevice* inner_;
  FaultConfig config_;
  std::string name_;
  util::Xoshiro256 rng_;
  std::uint64_t retries_{0};
  std::uint64_t hard_errors_{0};
};

}  // namespace greenvis::storage
