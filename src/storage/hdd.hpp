// Mechanical model of the testbed's Seagate 7200 rpm disk.
//
// Service time for a request decomposes into the three classic components —
// seek (settle + square-root-of-distance law), rotational latency (the
// platter angle is a deterministic function of virtual time, so back-to-back
// sequential transfers incur no rotational wait at all), and media transfer
// (zoned bit recording: outer tracks ~18% faster than average, inner ~18%
// slower). A small volatile write-back cache absorbs writes at interface
// speed until `flush` (a write barrier) drains it in elevator order, which is
// what lets Table III's random-write test keep up with the sequential one.
//
// Each mechanical phase is logged to the DiskActivityLog so the power model
// can convert duty cycles into the "disk dynamic power" column of Table III.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/machine/spec.hpp"
#include "src/storage/block_device.hpp"

namespace greenvis::storage {

struct HddParams {
  machine::DiskSpec spec{};
  /// Media write rate relative to the read rate. Table III implies the drive
  /// streams writes ~1/3 faster than reads (27.0 s vs 35.9 s for 4 GB).
  double write_rate_scale{35.9 / 27.0};
  /// Volatile on-drive write-back cache.
  util::Bytes write_cache{util::mebibytes(32)};
  /// A request that continues exactly where the head stands, issued within
  /// this window of the previous mechanical activity, is a streaming
  /// continuation and pays no rotational latency. Longer host-side gaps let
  /// the platter rotate past the next sector.
  Seconds streaming_window{util::microseconds(400.0)};
  /// Zoned-bit-recording amplitude: transfer rate factor runs linearly from
  /// (1 + amplitude) at LBA 0 to (1 - amplitude) at the last LBA.
  double zone_amplitude{0.18};
};

class HddModel final : public BlockDevice {
 public:
  explicit HddModel(const HddParams& params);

  Seconds service(const IoRequest& request, Seconds start) override;
  Seconds flush(Seconds start) override;

  [[nodiscard]] Bytes capacity() const override {
    return params_.spec.capacity;
  }
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] const DiskActivityLog& activity() const override {
    return log_;
  }
  [[nodiscard]] const DeviceCounters& counters() const override {
    return counters_;
  }

  [[nodiscard]] util::Bytes cached_write_bytes() const {
    return util::Bytes{cached_bytes_};
  }
  [[nodiscard]] const HddParams& params() const { return params_; }

  /// Model internals, exposed for tests and for the fio composite engines.
  [[nodiscard]] Seconds seek_time(std::uint64_t from, std::uint64_t to) const;
  [[nodiscard]] util::BytesPerSecond media_rate(std::uint64_t offset,
                                                IoKind kind) const;
  /// Platter angle in [0,1) at absolute time t.
  [[nodiscard]] double angle_at(Seconds t) const;
  /// Angle at which the sector at `offset` passes under the head.
  [[nodiscard]] double target_angle(std::uint64_t offset) const;

 private:
  /// Mechanically execute one request (no caching), logging phases.
  Seconds service_mechanical(const IoRequest& request, Seconds start);

  HddParams params_;
  std::string name_;
  DiskActivityLog log_;
  DeviceCounters counters_;
  std::uint64_t head_pos_{0};
  Seconds last_busy_end_{-1.0};
  std::vector<IoRequest> cached_writes_;
  std::uint64_t cached_bytes_{0};
};

}  // namespace greenvis::storage
