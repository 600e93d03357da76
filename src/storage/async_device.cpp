#include "src/storage/async_device.hpp"

#include <utility>

#include "src/obs/registry.hpp"
#include "src/obs/tracer.hpp"

namespace greenvis::storage {

Seconds AsyncBlockDevice::run_batch(std::span<const IoRequest> requests,
                                    Seconds start) {
  last_batch_.clear();
  if (requests.empty()) {
    return start;
  }
  obs::ScopedSpan span("storage.submit", obs::kCatIo);
  Seconds t = start;
  for (const IoRequest& request : requests) {
    IoOutcome outcome = backend_->service_outcome(request, t);
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
    last_batch_.push_back(CompletionRecord{request.kind, request.offset,
                                           request.length, t, outcome.end,
                                           outcome.ok,
                                           std::move(outcome.error)});
    t = outcome.end;
  }
  for (const CompletionRecord& record : last_batch_) {
    if (!record.ok) {
      throw DeviceError(record.error);
    }
  }
  return t;
}

}  // namespace greenvis::storage
