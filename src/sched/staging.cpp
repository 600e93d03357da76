#include "src/sched/staging.hpp"

#include <algorithm>

#include "src/obs/registry.hpp"
#include "src/obs/tracer.hpp"
#include "src/util/error.hpp"

namespace greenvis::sched {

namespace {

void note_occupancy(std::uint64_t in_flight) {
  if (obs::enabled()) {
    static obs::Gauge& occupancy =
        obs::Registry::global().gauge("sched.ring_occupancy");
    occupancy.set(static_cast<double>(in_flight));
  }
}

}  // namespace

AsyncStager::AsyncStager(std::size_t buffers, WriteFn write_fn)
    : write_fn_(std::move(write_fn)),
      slots_(buffers),
      freed_at_(buffers, util::Seconds{0.0}) {
  GREENVIS_REQUIRE_MSG(buffers >= 1, "staging ring needs at least one buffer");
  GREENVIS_REQUIRE(write_fn_ != nullptr);
  writer_ = std::thread([this] { writer_loop(); });
}

AsyncStager::~AsyncStager() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    draining_ = true;
  }
  writer_cv_.notify_all();
  if (writer_.joinable()) {
    writer_.join();
  }
}

void AsyncStager::rethrow_if_failed_locked() {
  if (error_ != nullptr) {
    std::rethrow_exception(error_);
  }
}

AsyncStager::Slot AsyncStager::acquire() {
  std::unique_lock<std::mutex> lock(mutex_);
  GREENVIS_REQUIRE_MSG(acquired_ == submitted_,
                       "acquire() before the previous slot was submitted");
  Slot slot;
  if (acquired_ >= completed_ + slots_.size()) {
    slot.stalled = true;
    ++stats_.stalls;
    if (obs::enabled()) {
      static obs::Counter& stalls =
          obs::Registry::global().counter("sched.stalls");
      stalls.add(1);
    }
    producer_cv_.wait(lock, [&] {
      return error_ != nullptr || acquired_ < completed_ + slots_.size();
    });
  }
  rethrow_if_failed_locked();
  const std::size_t idx = static_cast<std::size_t>(acquired_ % slots_.size());
  slot.snapshot = &slots_[idx];
  slot.freed_at = freed_at_[idx];
  ++acquired_;
  return slot;
}

void AsyncStager::submit(util::Seconds ready) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    rethrow_if_failed_locked();
    GREENVIS_REQUIRE_MSG(acquired_ == submitted_ + 1,
                         "submit() without a matching acquire()");
    const std::size_t idx =
        static_cast<std::size_t>(submitted_ % slots_.size());
    slots_[idx].ready = ready;
    ++stats_.staged;
    stats_.bytes_staged += slots_[idx].payload.size();
    if (obs::enabled()) {
      static obs::Counter& staged =
          obs::Registry::global().counter("sched.snapshots_staged");
      static obs::Counter& bytes =
          obs::Registry::global().counter("sched.bytes_staged");
      staged.add(1);
      bytes.add(slots_[idx].payload.size());
    }
    ++submitted_;
    note_occupancy(submitted_ - completed_);
  }
  writer_cv_.notify_all();
}

util::Seconds AsyncStager::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  GREENVIS_REQUIRE_MSG(acquired_ == submitted_,
                       "drain() with an acquired-but-unsubmitted slot");
  draining_ = true;
  writer_cv_.notify_all();
  producer_cv_.wait(
      lock, [&] { return error_ != nullptr || completed_ == submitted_; });
  lock.unlock();
  if (writer_.joinable()) {
    writer_.join();
  }
  lock.lock();
  rethrow_if_failed_locked();
  return stats_.last_write_end;
}

void AsyncStager::writer_loop() {
  obs::Tracer::global().set_thread_name("staging-writer");
  for (;;) {
    StagedSnapshot* snap = nullptr;
    std::size_t idx = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      writer_cv_.wait(
          lock, [&] { return completed_ < submitted_ || draining_; });
      if (completed_ == submitted_) {
        return;  // drained
      }
      idx = static_cast<std::size_t>(completed_ % slots_.size());
      snap = &slots_[idx];
    }
    // The write runs unlocked: this is the only code driving the shared
    // clock/filesystem during the overlap region, and the slot cannot be
    // recycled until completed_ advances below.
    util::Seconds end{0.0};
    try {
      obs::ScopedSpan span("sched.write", obs::kCatIo);
      end = write_fn_(*snap, std::max(io_now_, snap->ready));
      io_now_ = std::max(io_now_, end);
    } catch (...) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        error_ = std::current_exception();
      }
      producer_cv_.notify_all();
      return;
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      freed_at_[idx] = end;
      stats_.last_write_end = std::max(stats_.last_write_end, end);
      ++completed_;
      note_occupancy(submitted_ - completed_);
    }
    producer_cv_.notify_all();
  }
}

}  // namespace greenvis::sched
