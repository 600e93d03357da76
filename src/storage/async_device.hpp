// Submission queue over a BlockDevice — the one request path every storage
// consumer shares.
//
// The devices (hdd.hpp, solid_state.hpp, fault.hpp) model *serial service
// timing*: one request in, one completion time out. run_batch() services a
// batch submitted together at one virtual time in submission order (FIFO),
// each request starting when the previous one finished, and keeps one
// CompletionRecord per request: its service start, its completion and its
// error. A failed request still consumes device time; the rest of the batch
// is serviced, and the first error is thrown afterwards, so a fault lands
// on the record of the request that hit it.
//
// Timing contract: a batch produces *bit-identical* completion times,
// DeviceCounters, and DiskActivityLog segments to chaining
// BlockDevice::service_outcome calls by hand; the storage.async_vs_sync
// oracle pins this. Request order is the device's business: the HDD's
// write-back cache drains in elevator order at flush (hdd.hpp), and the
// page cache hands writeback over in ascending page order.
//
// obs hooks: a storage.submit span per batch and the storage.async.completed
// and storage.async.errors counters.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/storage/block_device.hpp"

namespace greenvis::storage {

/// One serviced (or failed) request, in service order.
struct CompletionRecord {
  IoKind kind{IoKind::kRead};
  std::uint64_t offset{0};
  std::uint32_t length{0};
  Seconds start{0.0};     ///< when the device began service
  Seconds complete{0.0};  ///< when service finished (time passes on errors too)
  bool ok{true};
  std::string error;  ///< empty when ok
};

class AsyncBlockDevice {
 public:
  explicit AsyncBlockDevice(BlockDevice& backend) : backend_(&backend) {}

  AsyncBlockDevice(const AsyncBlockDevice&) = delete;
  AsyncBlockDevice& operator=(const AsyncBlockDevice&) = delete;

  /// Service a batch submitted together at `start`, in order; a
  /// one-request batch is serviced at exactly `start`, like a bare
  /// BlockDevice::service call. Returns the batch completion time. Throws
  /// DeviceError after the whole batch is serviced if any request failed;
  /// per-request records land in last_batch() either way.
  Seconds run_batch(std::span<const IoRequest> requests, Seconds start);

  /// Write barrier on the backend.
  Seconds flush(Seconds start) { return backend_->flush(start); }

  [[nodiscard]] BlockDevice& backend() { return *backend_; }
  [[nodiscard]] const BlockDevice& backend() const { return *backend_; }
  /// Records produced by the most recent run_batch() call.
  [[nodiscard]] const std::vector<CompletionRecord>& last_batch() const {
    return last_batch_;
  }

 private:
  BlockDevice* backend_;
  std::vector<CompletionRecord> last_batch_;
};

}  // namespace greenvis::storage
