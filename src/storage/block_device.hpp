// Abstract block device.
//
// Devices model *timing and power activity only*; payload bytes live in the
// filesystem layer. A device services requests serially starting at a given
// virtual time and reports how long each took, recording its mechanical
// phases into a DiskActivityLog along the way.
//
// Hosts talk to a device through storage::AsyncBlockDevice
// (async_device.hpp), which services request batches over service_outcome
// and keeps a completion record per request.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "src/storage/activity_log.hpp"
#include "src/storage/request.hpp"
#include "src/util/units.hpp"

namespace greenvis::storage {

using util::Bytes;
using util::Seconds;

/// Hard device error (unrecoverable sector).
class DeviceError : public std::runtime_error {
 public:
  explicit DeviceError(const std::string& message)
      : std::runtime_error(message) {}
};

struct DeviceCounters {
  std::uint64_t reads{0};
  std::uint64_t writes{0};
  Bytes bytes_read{0};
  Bytes bytes_written{0};
};

/// Result of servicing one request: when it finished and whether it
/// succeeded. A failed request still consumes device time (retries, seeks),
/// so `end` is meaningful either way.
struct IoOutcome {
  Seconds end{0.0};
  bool ok{true};
  std::string error;
};

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  /// Service one request starting at `start`; returns its completion time
  /// (>= start). The device's head/cache state advances. Throws DeviceError
  /// on unrecoverable faults.
  virtual Seconds service(const IoRequest& request, Seconds start) = 0;

  /// Like service(), but reports faults on the returned outcome instead of
  /// throwing, so a queue servicing many in-flight requests can attach the
  /// error to the *correct* completion record. Default wraps service().
  virtual IoOutcome service_outcome(const IoRequest& request, Seconds start);

  /// Drain any volatile write cache (write barrier); returns completion time.
  virtual Seconds flush(Seconds start) = 0;

  [[nodiscard]] virtual Bytes capacity() const = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual const DiskActivityLog& activity() const = 0;
  [[nodiscard]] virtual const DeviceCounters& counters() const = 0;
};

}  // namespace greenvis::storage
