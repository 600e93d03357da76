// Async submission queue over a BlockDevice — the one request path every
// storage consumer shares.
//
// The underlying devices (hdd.hpp, solid_state.hpp, nvme.hpp, raid.hpp)
// still model *serial service timing*: one request in, one completion time
// out. This layer adds what real hosts put in front of a device:
//
//   * a submission queue with a configurable depth (the reordering window
//     the device may hold at once — SATA NCQ, NVMe SQ entries),
//   * pluggable I/O schedulers deciding dispatch order inside that window
//     (noop = FIFO, elevator = one ascending sweep from the head position,
//     deadline = elevator with an aging bound so no request starves),
//   * per-request CompletionRecords carrying queue/service/completion
//     virtual timestamps, byte counts, and an error code, so faults at
//     queue depth > 1 surface on the *correct* request, and
//   * obs tracing hooks (storage.submit / storage.complete spans, async
//     counters, a queue-occupancy gauge).
//
// Timing contract: at queue depth 1 with the noop scheduler, a request
// stream produces *bit-identical* completion times, DeviceCounters, and
// DiskActivityLog segments to calling BlockDevice::service directly — the
// storage.async_vs_sync oracle pins this. The one sync helper, run_batch(),
// preserves the legacy NCQ-batch semantics exactly; a one-request batch
// services at exactly its start, like a bare BlockDevice::service call. The
// filesystem and page cache issue every request through it, so they ride
// this layer's dispatch and obs hooks without moving any figure.
//
// Multi-channel devices (NVMe with several submission queues, RAID0
// spindles) report channels() > 1; dispatch then fills the earliest-free
// channel. Because DiskActivityLog requires nondecreasing segment begin
// times, multi-channel dispatch clamps each service start to be monotone.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/storage/block_device.hpp"

namespace greenvis::storage {

enum class IoSchedulerKind {
  /// Defer to the backend: elevator for devices that reorder queued
  /// batches (HDD NCQ), FIFO for everything else.
  kDevice,
  kNoop,
  kElevator,
  kDeadline,
};

[[nodiscard]] const char* io_scheduler_name(IoSchedulerKind kind);
[[nodiscard]] std::optional<IoSchedulerKind> parse_io_scheduler(
    std::string_view name);

using RequestHandle = std::uint64_t;

/// One completed (or failed) request, in completion order.
struct CompletionRecord {
  RequestHandle handle{0};
  IoKind kind{IoKind::kRead};
  std::uint64_t offset{0};
  std::uint32_t length{0};
  Seconds submit{0.0};    ///< when the host queued it
  Seconds start{0.0};     ///< when the device began service
  Seconds complete{0.0};  ///< when service finished (time passes on errors too)
  bool ok{true};
  std::string error;  ///< empty when ok
};

struct AsyncDeviceConfig {
  /// Dispatch window: how many queued requests the device holds (and the
  /// scheduler may reorder) at once. 0 = unbounded — the whole submitted
  /// batch is one window, which is the legacy NCQ service_batch behavior.
  std::size_t queue_depth{0};
  IoSchedulerKind scheduler{IoSchedulerKind::kDevice};
  /// Deadline scheduler only: a queued request waiting longer than this is
  /// dispatched before any elevator pick.
  Seconds deadline_window{util::milliseconds(50.0)};
};

struct AsyncDeviceStats {
  std::uint64_t submitted{0};
  std::uint64_t completed{0};
  std::uint64_t errors{0};
  std::uint64_t dispatch_windows{0};
};

class AsyncBlockDevice {
 public:
  explicit AsyncBlockDevice(BlockDevice& backend,
                            AsyncDeviceConfig config = {});

  AsyncBlockDevice(const AsyncBlockDevice&) = delete;
  AsyncBlockDevice& operator=(const AsyncBlockDevice&) = delete;

  // ---- streaming interface ------------------------------------------------

  /// Queue one request at virtual time `submit_time`. When the window is
  /// full (queue_depth > 0), the oldest window dispatches to the device
  /// before this returns; completions become visible to poll().
  RequestHandle submit(const IoRequest& request, Seconds submit_time);

  /// Move all completion records accumulated so far into `out` (appended).
  /// Returns how many were moved. Error records are returned, not thrown.
  std::size_t poll(std::vector<CompletionRecord>& out);

  /// Dispatch everything still queued. Returns the completion time of the
  /// last request this queue ever serviced (or 0 if none). Errors stay on
  /// their records for poll().
  Seconds drain();

  /// drain(), then throw DeviceError for the first failed record (records
  /// remain pollable). Returns the last completion time.
  Seconds drain_checked();

  // ---- synchronous helper -------------------------------------------------

  /// Service a batch submitted together at `start`, dispatching in windows
  /// of queue_depth (whole batch when 0) ordered by `scheduler` (kDevice
  /// resolves via the backend). Every channel is free at `start`, so a
  /// one-request batch is serviced at exactly `start`, timing-identical to
  /// BlockDevice::service. Returns the batch completion time. Throws
  /// DeviceError after the whole batch is serviced if any request failed;
  /// per-request records land in last_batch() either way.
  Seconds run_batch(std::span<const IoRequest> requests, Seconds start,
                    IoSchedulerKind scheduler = IoSchedulerKind::kDevice);

  /// Write barrier on the backend. Requires an empty queue.
  Seconds flush(Seconds start);

  // ---- introspection ------------------------------------------------------

  [[nodiscard]] BlockDevice& backend() { return *backend_; }
  [[nodiscard]] const BlockDevice& backend() const { return *backend_; }
  [[nodiscard]] const AsyncDeviceConfig& config() const { return config_; }
  [[nodiscard]] const AsyncDeviceStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  /// Records produced by the most recent run_batch() call.
  [[nodiscard]] const std::vector<CompletionRecord>& last_batch() const {
    return last_batch_;
  }

  /// Scheduler actually used for a given request (kDevice resolved against
  /// the backend's preference).
  [[nodiscard]] IoSchedulerKind resolve(IoSchedulerKind kind) const;

 private:
  struct Pending {
    RequestHandle handle{0};
    IoRequest request{};
    Seconds submit{0.0};
  };

  /// Dispatch up to `limit` queued requests (0 = all) as one scheduler
  /// window, appending records to `sink`. Returns the window's last
  /// completion time.
  Seconds dispatch_window(std::size_t limit, IoSchedulerKind scheduler,
                          std::vector<CompletionRecord>& sink);
  /// Service one picked request on the earliest-free channel; returns its
  /// completion time.
  Seconds service_one(const Pending& p, std::vector<CompletionRecord>& sink);
  void note_occupancy() const;

  BlockDevice* backend_;
  AsyncDeviceConfig config_;
  AsyncDeviceStats stats_;
  std::deque<Pending> pending_;
  std::vector<CompletionRecord> completed_;  // streaming records until poll()
  std::vector<CompletionRecord> last_batch_;
  std::vector<Seconds> channel_free_;
  RequestHandle next_handle_{1};
  Seconds last_dispatch_start_{0.0};  // activity-log monotonicity clamp
  Seconds horizon_{0.0};              // latest completion ever serviced
};

}  // namespace greenvis::storage
