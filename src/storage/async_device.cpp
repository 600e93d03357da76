#include "src/storage/async_device.hpp"

#include <algorithm>

#include "src/obs/registry.hpp"
#include "src/obs/tracer.hpp"
#include "src/util/error.hpp"

namespace greenvis::storage {

const char* io_scheduler_name(IoSchedulerKind kind) {
  switch (kind) {
    case IoSchedulerKind::kDevice:
      return "device";
    case IoSchedulerKind::kNoop:
      return "noop";
    case IoSchedulerKind::kElevator:
      return "elevator";
    case IoSchedulerKind::kDeadline:
      return "deadline";
  }
  return "?";
}

std::optional<IoSchedulerKind> parse_io_scheduler(std::string_view name) {
  if (name == "device") {
    return IoSchedulerKind::kDevice;
  }
  if (name == "noop") {
    return IoSchedulerKind::kNoop;
  }
  if (name == "elevator") {
    return IoSchedulerKind::kElevator;
  }
  if (name == "deadline") {
    return IoSchedulerKind::kDeadline;
  }
  return std::nullopt;
}

AsyncBlockDevice::AsyncBlockDevice(BlockDevice& backend,
                                   AsyncDeviceConfig config)
    : backend_(&backend), config_(config) {
  channel_free_.assign(std::max<std::size_t>(1, backend_->channels()),
                       Seconds{0.0});
}

IoSchedulerKind AsyncBlockDevice::resolve(IoSchedulerKind kind) const {
  if (kind != IoSchedulerKind::kDevice) {
    return kind;
  }
  return backend_->reorders_batches() ? IoSchedulerKind::kElevator
                                      : IoSchedulerKind::kNoop;
}

void AsyncBlockDevice::note_occupancy() const {
  if (obs::enabled()) {
    static obs::Gauge& occupancy =
        obs::Registry::global().gauge("storage.async.queue_occupancy");
    occupancy.set(static_cast<double>(pending_.size()));
  }
}

RequestHandle AsyncBlockDevice::submit(const IoRequest& request,
                                       Seconds submit_time) {
  const RequestHandle handle = next_handle_++;
  pending_.push_back(Pending{handle, request, submit_time});
  ++stats_.submitted;
  if (obs::enabled()) {
    static obs::Counter& submitted =
        obs::Registry::global().counter("storage.async.submitted");
    submitted.add();
  }
  note_occupancy();
  if (config_.queue_depth > 0) {
    while (pending_.size() >= config_.queue_depth) {
      dispatch_window(config_.queue_depth, resolve(config_.scheduler),
                      completed_);
    }
  }
  return handle;
}

std::size_t AsyncBlockDevice::poll(std::vector<CompletionRecord>& out) {
  if (completed_.empty()) {
    return 0;
  }
  obs::ScopedSpan span("storage.complete", obs::kCatIo);
  const std::size_t n = completed_.size();
  out.insert(out.end(), std::make_move_iterator(completed_.begin()),
             std::make_move_iterator(completed_.end()));
  completed_.clear();
  return n;
}

Seconds AsyncBlockDevice::drain() {
  while (!pending_.empty()) {
    dispatch_window(config_.queue_depth, resolve(config_.scheduler),
                    completed_);
  }
  return horizon_;
}

Seconds AsyncBlockDevice::drain_checked() {
  const Seconds end = drain();
  for (const CompletionRecord& record : completed_) {
    if (!record.ok) {
      throw DeviceError(record.error);
    }
  }
  return end;
}

Seconds AsyncBlockDevice::run_batch(std::span<const IoRequest> requests,
                                    Seconds start, IoSchedulerKind scheduler) {
  GREENVIS_REQUIRE_MSG(
      pending_.empty(),
      "run_batch() may not interleave with queued submissions");
  last_batch_.clear();
  if (requests.empty()) {
    return start;
  }
  // Batch semantics are self-contained: the device is considered idle (all
  // channels free) at `start`, exactly like the legacy service_batch call.
  channel_free_.assign(std::max<std::size_t>(1, backend_->channels()), start);
  last_dispatch_start_ = start;
  for (const IoRequest& request : requests) {
    pending_.push_back(Pending{next_handle_++, request, start});
    ++stats_.submitted;
  }
  const IoSchedulerKind resolved = resolve(scheduler);
  Seconds end = start;
  while (!pending_.empty()) {
    end = std::max(end,
                   dispatch_window(config_.queue_depth, resolved, last_batch_));
  }
  for (const CompletionRecord& record : last_batch_) {
    if (!record.ok) {
      throw DeviceError(record.error);
    }
  }
  return end;
}

Seconds AsyncBlockDevice::flush(Seconds start) {
  GREENVIS_REQUIRE_MSG(pending_.empty(), "flush() requires a drained queue");
  const Seconds end = backend_->flush(start);
  horizon_ = std::max(horizon_, end);
  return end;
}

Seconds AsyncBlockDevice::dispatch_window(std::size_t limit,
                                          IoSchedulerKind scheduler,
                                          std::vector<CompletionRecord>& sink) {
  const std::size_t n =
      limit == 0 ? pending_.size() : std::min(limit, pending_.size());
  if (n == 0) {
    return horizon_;
  }
  obs::ScopedSpan span("storage.submit", obs::kCatIo);
  std::vector<Pending> window(pending_.begin(), pending_.begin() + n);
  pending_.erase(pending_.begin(), pending_.begin() + n);
  ++stats_.dispatch_windows;

  Seconds window_end{0.0};
  switch (scheduler) {
    case IoSchedulerKind::kDevice:  // resolved by callers; treat as FIFO
    case IoSchedulerKind::kNoop:
      for (const Pending& p : window) {
        window_end = std::max(window_end, service_one(p, sink));
      }
      break;
    case IoSchedulerKind::kElevator: {
      // One sweep, byte-for-byte the HddModel NCQ ordering: ascending
      // offsets at or beyond the head first, then wrap to the lowest.
      const std::uint64_t head = backend_->head_hint();
      std::stable_sort(window.begin(), window.end(),
                       [head](const Pending& a, const Pending& b) {
                         const bool a_ahead = a.request.offset >= head;
                         const bool b_ahead = b.request.offset >= head;
                         if (a_ahead != b_ahead) {
                           return a_ahead;
                         }
                         return a.request.offset < b.request.offset;
                       });
      for (const Pending& p : window) {
        window_end = std::max(window_end, service_one(p, sink));
      }
      break;
    }
    case IoSchedulerKind::kDeadline: {
      // Incremental elevator with aging: before each pick, any request
      // whose wait exceeds the deadline window jumps the sweep (oldest
      // first); otherwise take the elevator-next offset from the simulated
      // head. Guarantees bounded starvation: a request can be overtaken
      // only until its deadline expires, after which every later pick is a
      // request that expired even earlier or was already in service.
      std::uint64_t head = backend_->head_hint();
      std::vector<Pending> left = std::move(window);
      while (!left.empty()) {
        const Seconds now =
            *std::min_element(channel_free_.begin(), channel_free_.end());
        std::size_t pick = left.size();
        // Oldest expired request, in submission order.
        for (std::size_t i = 0; i < left.size(); ++i) {
          if (left[i].submit + config_.deadline_window <= now &&
              (pick == left.size() || left[i].submit < left[pick].submit)) {
            pick = i;
          }
        }
        if (pick == left.size()) {
          // Elevator-next: smallest offset at or beyond the head, else the
          // smallest offset overall (sweep wrap).
          for (std::size_t i = 0; i < left.size(); ++i) {
            if (pick == left.size()) {
              pick = i;
              continue;
            }
            const bool i_ahead = left[i].request.offset >= head;
            const bool p_ahead = left[pick].request.offset >= head;
            if (i_ahead != p_ahead) {
              if (i_ahead) {
                pick = i;
              }
              continue;
            }
            if (left[i].request.offset < left[pick].request.offset) {
              pick = i;
            }
          }
        }
        const Pending chosen = left[pick];
        left.erase(left.begin() + static_cast<std::ptrdiff_t>(pick));
        head = chosen.request.offset + chosen.request.length;
        window_end = std::max(window_end, service_one(chosen, sink));
      }
      break;
    }
  }
  note_occupancy();
  return window_end;
}

Seconds AsyncBlockDevice::service_one(const Pending& p,
                                      std::vector<CompletionRecord>& sink) {
  auto slot = std::min_element(channel_free_.begin(), channel_free_.end());
  Seconds start = std::max(*slot, p.submit);
  if (channel_free_.size() > 1) {
    // Parallel channels could otherwise hand the shared activity log a
    // service start earlier than an already-recorded one.
    start = std::max(start, last_dispatch_start_);
  }
  const IoOutcome outcome = backend_->service_outcome(p.request, start);
  *slot = outcome.end;
  last_dispatch_start_ = std::max(last_dispatch_start_, start);
  horizon_ = std::max(horizon_, outcome.end);
  ++stats_.completed;
  if (!outcome.ok) {
    ++stats_.errors;
  }
  if (obs::enabled()) {
    static obs::Counter& completed =
        obs::Registry::global().counter("storage.async.completed");
    static obs::Counter& errors =
        obs::Registry::global().counter("storage.async.errors");
    completed.add();
    if (!outcome.ok) {
      errors.add();
    }
  }
  sink.push_back(CompletionRecord{p.handle, p.request.kind, p.request.offset,
                                 p.request.length, p.submit, start,
                                 outcome.end, outcome.ok, outcome.error});
  return outcome.end;
}

}  // namespace greenvis::storage
