// A persistent-worker thread pool with chunked work-stealing dispatch.
//
// The heat solvers and the renderers split their grids across worker threads
// (the proxy app in the paper runs on all 16 cores of the node). The pool is
// created once per solver/pipeline and reused across timesteps, so thread
// creation cost never shows up in per-step work.
//
// Dispatch model: `parallel_for` publishes one stack-allocated descriptor
// per call (no per-task heap allocation, no task queue). Workers and the
// calling thread claim chunks of the index range from a shared atomic
// counter until the range is exhausted — dynamic chunking, so an uneven
// load (e.g. the volume ray marcher's early-terminated rows) self-balances.
// The pool mutex is touched only to park/wake threads between dispatches,
// never on the chunk-claim fast path.
//
// Determinism: `parallel_for` bodies write disjoint index ranges, so results
// are independent of how chunks land on threads. `parallel_reduce` uses a
// chunk plan that depends only on the range size (never on the pool size)
// and combines partials in chunk order, so even non-associative combines
// (floating-point sums) are byte-identical for any pool size, including 1.
//
// Observability: when `obs::enabled()`, every dispatch records a span on the
// caller, every worker records a per-thread drain span, and the registry
// accumulates dispatch/chunk counts plus per-worker busy and idle
// nanoseconds. All of it observes host wall-clock only — work placement and
// results are untouched — and when disabled the cost is one relaxed load
// per dispatch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/obs/obs.hpp"
#include "src/obs/registry.hpp"

namespace greenvis::util {

class ThreadPool {
 public:
  /// `threads == 0` means hardware_concurrency (at least 1). The pool spawns
  /// `threads - 1` workers; the thread calling `parallel_for` is the final
  /// executor, so `ThreadPool(1)` runs everything inline with zero
  /// synchronization.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of executing threads (workers + the caller).
  [[nodiscard]] std::size_t size() const { return workers_.size() + 1; }

  /// Run `body` over [begin, end), split into dynamically claimed chunks;
  /// returns when the whole range has completed. `body(lo, hi)` must not
  /// touch indices outside [lo, hi) of shared mutable state. If `body`
  /// throws, the remaining chunks are abandoned, the first exception is
  /// rethrown here, and the pool stays usable. Bodies must not dispatch on
  /// the same pool (no nested parallelism).
  ///
  /// `grain` is the minimum chunk size in indices: when per-index work is
  /// tiny (a few ns), a larger grain keeps the atomic claim and wake cost
  /// amortized. Ranges no longer than the grain run inline on the caller.
  /// Chunk placement never affects results (bodies own disjoint ranges), so
  /// grain is a pure tuning knob.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& body,
                    std::size_t grain = 1);

  /// Parallel fold over [begin, end). `body(lo, hi, acc)` folds a subrange
  /// into `acc` (seeded with `init`) and returns it; `combine(a, b)` merges
  /// two partials. Partials are combined in ascending chunk order with a
  /// pool-size-independent chunk plan, so the result is byte-identical to a
  /// serial fold chunked the same way for any pool size.
  template <typename T, typename Body, typename Combine>
  [[nodiscard]] T parallel_reduce(std::size_t begin, std::size_t end, T init,
                                  Body body, Combine combine) {
    if (begin >= end) {
      return init;
    }
    const std::size_t total = end - begin;
    const std::size_t chunk = reduce_chunk(total);
    const std::size_t chunks = (total + chunk - 1) / chunk;
    if (obs::enabled()) {
      reduces_->add(1);
      reduce_chunks_->add(chunks);
    }
    if (chunks == 1) {
      return body(begin, end, init);
    }
    std::vector<T> partials(chunks, init);
    parallel_for(0, chunks, [&](std::size_t c0, std::size_t c1) {
      for (std::size_t c = c0; c < c1; ++c) {
        const std::size_t lo = begin + c * chunk;
        const std::size_t hi = std::min(end, lo + chunk);
        partials[c] = body(lo, hi, partials[c]);
      }
    });
    T result = std::move(partials[0]);
    for (std::size_t c = 1; c < chunks; ++c) {
      result = combine(std::move(result), std::move(partials[c]));
    }
    return result;
  }

 private:
  /// One in-flight parallel_for: the shared chunk counter plus completion
  /// bookkeeping. Lives on the dispatching thread's stack.
  struct Dispatch {
    std::size_t begin{0};
    std::size_t end{0};
    std::size_t chunk{1};
    const std::function<void(std::size_t, std::size_t)>* body{nullptr};
    std::atomic<std::size_t> next{0};
    std::exception_ptr error;
    std::mutex error_mutex;
    /// Non-null when this dispatch is observed: drain() adds the chunks it
    /// executed (one add per thread per dispatch, off the claim fast path).
    obs::Counter* chunks_claimed{nullptr};
  };

  /// Fixed fan-out of the reduce chunk plan (a function of the range only).
  [[nodiscard]] static std::size_t reduce_chunk(std::size_t total) {
    constexpr std::size_t kReduceChunks = 64;
    return total < kReduceChunks ? 1 : (total + kReduceChunks - 1) / kReduceChunks;
  }

  void worker_loop(std::size_t index);
  /// Claim and run chunks of `d` until the range is exhausted.
  static void drain(Dispatch& d);

  std::vector<std::thread> workers_;

  // Observability handles (resolved once; hot paths gate on obs::enabled()).
  obs::Counter* dispatches_{nullptr};
  obs::Counter* chunks_claimed_{nullptr};
  obs::Counter* reduces_{nullptr};
  obs::Counter* reduce_chunks_{nullptr};
  obs::Counter* worker_busy_ns_{nullptr};
  obs::Counter* worker_idle_ns_{nullptr};
  obs::Histogram* dispatch_us_{nullptr};

  std::mutex dispatch_mutex_;  // serializes concurrent parallel_for callers
  std::mutex mutex_;
  std::condition_variable wake_cv_;  // workers wait for a new generation
  std::condition_variable done_cv_;  // caller waits for workers to detach
  std::uint64_t generation_{0};
  Dispatch* current_{nullptr};
  std::size_t attached_{0};  // workers currently referencing current_
  bool stopping_{false};
};

}  // namespace greenvis::util
