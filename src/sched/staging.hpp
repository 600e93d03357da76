// Asynchronous snapshot staging: the in-transit overlap layer.
//
// The paper's post-processing pipeline serializes simulate -> encode ->
// write on one critical path, which is exactly why its write phase shows up
// whole in Fig. 7's runtime. In-transit designs (Catalyst-ADIOS2, SIM-SITU)
// break that chain with staging: the solver deposits each snapshot into a
// bounded ring of staging buffers and keeps computing while a background
// writer drains completed buffers to storage. This module is that ring.
//
// Two clocks, one truth. Host-side, a real std::thread performs the real
// filesystem writes concurrently with the solver. Virtual-side, time is
// modeled on two tracks: the producer carries its own compute cursor
// (Testbed::run_compute_at places bursts without touching the shared
// clock), while the writer thread owns the shared VirtualClock during the
// overlap region — write k starts at max(previous write end, snapshot k's
// encode-finish time), which is nondecreasing, so the clock only moves
// forward. Every virtual timestamp derives from modeled durations carried
// through the ring, never from host scheduling, so results are
// bit-identical for any host thread count.
//
// Invariants:
//   * acquire() blocks while all `buffers` slots hold un-written snapshots
//     (backpressure). The freed slot reports the virtual completion time of
//     the write that recycled it; if that is ahead of the producer's
//     cursor, the producer charges a stall interval.
//   * submit() hands the last acquired slot to the writer; snapshots are
//     written strictly in submission order.
//   * drain() blocks until every submitted snapshot is on storage, joins
//     the writer, and returns the virtual end of the final write. A writer
//     exception (e.g. a filesystem contract violation) is captured and
//     rethrown from acquire()/submit()/drain() — the producer can never
//     deadlock on a dead writer.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/util/units.hpp"

namespace greenvis::sched {

/// One staging slot: the encoded payload plus the bookkeeping the writer
/// needs. The payload vector is slot-owned and reused across ring laps, so
/// the steady-state staging path performs zero heap allocations.
struct StagedSnapshot {
  int step{-1};
  std::vector<std::uint8_t> payload;
  std::uint64_t raw_bytes{0};
  /// Free-form owner tag carried through the ring (the serving layer stores
  /// the subscriber id so the delivery writer can bill the right viewer).
  std::uint64_t tag{0};
  /// Producer-track virtual time the encode finished; the write may not
  /// start before the data exists.
  util::Seconds ready{0.0};
};

struct StagingStats {
  std::uint64_t staged{0};
  std::uint64_t bytes_staged{0};
  /// acquire() calls that had to block on a full ring (host-side
  /// backpressure; the virtual stall is the pipeline's to account).
  std::uint64_t stalls{0};
  /// Virtual completion of the last write (0 until something was written).
  util::Seconds last_write_end{0.0};
};

class AsyncStager {
 public:
  /// Performs one staged write: called on the writer thread with the next
  /// snapshot in submission order and its virtual start time (the later of
  /// the previous write's end and the snapshot's ready time); returns the
  /// virtual completion time of the write. The callback is the only code
  /// touching the filesystem/clock during the overlap region.
  using WriteFn =
      std::function<util::Seconds(StagedSnapshot&, util::Seconds start)>;

  /// A ring of `buffers` (>= 1) staging slots. More buffers absorb longer
  /// write bursts before backpressure stalls the producer; 2 already
  /// overlaps steady-state write k with solve k+1.
  AsyncStager(std::size_t buffers, WriteFn write_fn);
  ~AsyncStager();

  AsyncStager(const AsyncStager&) = delete;
  AsyncStager& operator=(const AsyncStager&) = delete;

  struct Slot {
    StagedSnapshot* snapshot{nullptr};
    /// Virtual end of the write that last freed this slot (0 on first use).
    /// When ahead of the producer's cursor, the producer stalled.
    util::Seconds freed_at{0.0};
    /// True when acquire() had to block for a slot (ring was full).
    bool stalled{false};
  };

  /// Claim the next free slot, blocking under backpressure. The caller
  /// fills the snapshot, then submit()s it. Single producer.
  [[nodiscard]] Slot acquire();

  /// Hand the last acquired slot to the writer. `ready` is the
  /// producer-track virtual time its encode finished.
  void submit(util::Seconds ready);

  /// Wait for every submitted snapshot to reach storage and stop the
  /// writer. Returns the virtual end of the final write (0 when nothing
  /// was staged). Idempotent.
  [[nodiscard]] util::Seconds drain();

  /// Valid after drain().
  [[nodiscard]] const StagingStats& stats() const { return stats_; }

  [[nodiscard]] std::size_t buffers() const { return slots_.size(); }

 private:
  void writer_loop();
  void rethrow_if_failed_locked();

  WriteFn write_fn_;
  std::vector<StagedSnapshot> slots_;
  std::vector<util::Seconds> freed_at_;

  std::mutex mutex_;
  std::condition_variable producer_cv_;
  std::condition_variable writer_cv_;
  // Monotonic counters: slot i of generation k is slots_[i % buffers].
  std::uint64_t acquired_{0};
  std::uint64_t submitted_{0};
  std::uint64_t completed_{0};
  util::Seconds io_now_{0.0};  // writer-track cursor (writer thread only)
  bool draining_{false};
  std::exception_ptr error_;
  StagingStats stats_;
  std::thread writer_;
};

}  // namespace greenvis::sched
