#include "src/util/thread_pool.hpp"

#include <algorithm>

#include "src/obs/tracer.hpp"
#include "src/util/error.hpp"
#include "src/util/numa.hpp"

namespace greenvis::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  auto& registry = obs::Registry::global();
  dispatches_ = &registry.counter("pool.dispatches");
  chunks_claimed_ = &registry.counter("pool.chunks_claimed");
  reduces_ = &registry.counter("pool.reduces");
  reduce_chunks_ = &registry.counter("pool.reduce_chunks");
  worker_busy_ns_ = &registry.counter("pool.worker_busy_ns");
  worker_idle_ns_ = &registry.counter("pool.worker_idle_ns");
  dispatch_us_ =
      &registry.histogram("pool.dispatch_us", obs::duration_us_bounds());
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::drain(Dispatch& d) {
  const std::size_t total = d.end - d.begin;
  std::size_t executed = 0;
  for (;;) {
    const std::size_t claimed =
        d.next.fetch_add(d.chunk, std::memory_order_relaxed);
    if (claimed >= total) {
      if (d.chunks_claimed != nullptr && executed > 0) {
        d.chunks_claimed->add(executed);
      }
      return;
    }
    ++executed;
    const std::size_t lo = d.begin + claimed;
    const std::size_t hi = d.begin + std::min(total, claimed + d.chunk);
    try {
      (*d.body)(lo, hi);
    } catch (...) {
      {
        std::lock_guard lock(d.error_mutex);
        if (!d.error) {
          d.error = std::current_exception();
        }
      }
      // Abandon the remaining chunks so every thread exits promptly; the
      // caller rethrows once the dispatch has quiesced.
      d.next.store(total, std::memory_order_relaxed);
      if (d.chunks_claimed != nullptr && executed > 0) {
        d.chunks_claimed->add(executed);
      }
      return;
    }
  }
}

void ThreadPool::worker_loop(std::size_t index) {
  obs::Tracer::global().set_thread_name("pool-worker");
  if (const std::size_t nodes = numa::topology().node_count(); nodes > 1) {
    // Round-robin workers over nodes; first-touch fills then place each
    // range's pages on the node whose worker sweeps it. Failure is benign.
    (void)numa::pin_to_node(index % nodes);
  }
  std::uint64_t seen = 0;
  std::unique_lock lock(mutex_);
  for (;;) {
    // Idle time is only metered while observability is on, so toggling it
    // mid-run undercounts at most one park interval.
    const bool meter_idle = obs::enabled();
    const std::uint64_t idle_t0 =
        meter_idle ? obs::Tracer::global().now_ns() : 0;
    wake_cv_.wait(lock, [&] { return stopping_ || generation_ != seen; });
    if (meter_idle) {
      worker_idle_ns_->add(obs::Tracer::global().now_ns() - idle_t0);
    }
    if (stopping_) {
      return;
    }
    seen = generation_;
    Dispatch* d = current_;
    if (d == nullptr) {
      continue;  // the dispatch finished before this worker woke
    }
    ++attached_;
    lock.unlock();
    if (obs::enabled()) {
      const std::uint64_t busy_t0 = obs::Tracer::global().now_ns();
      drain(*d);
      const std::uint64_t busy_t1 = obs::Tracer::global().now_ns();
      worker_busy_ns_->add(busy_t1 - busy_t0);
      obs::Tracer::global().record("pool.drain", obs::kCatPool, busy_t0,
                                   busy_t1);
    } else {
      drain(*d);
    }
    lock.lock();
    if (--attached_ == 0) {
      done_cv_.notify_one();
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t grain) {
  GREENVIS_REQUIRE(begin <= end);
  if (begin == end) {
    return;
  }
  const bool observed = obs::enabled();
  obs::ScopedSpan span("pool.dispatch", obs::kCatPool,
                       observed ? dispatch_us_ : nullptr);
  if (observed) {
    dispatches_->add(1);
  }
  const std::size_t total = end - begin;
  if (workers_.empty() || total <= std::max<std::size_t>(grain, 1)) {
    if (observed) {
      chunks_claimed_->add(1);
    }
    body(begin, end);
    return;
  }

  // One dispatch at a time: concurrent external callers serialize here
  // (uncontended in the one-pipeline-per-pool pattern the codebase uses).
  std::lock_guard dispatch_guard(dispatch_mutex_);

  // Over-partition ~4x per executor so a slow chunk (NUMA miss, early-
  // terminated rays next to dense ones) is balanced by the others.
  Dispatch d;
  d.begin = begin;
  d.end = end;
  d.chunk = std::max({std::size_t{1}, grain, total / (size() * 4)});
  d.body = &body;
  d.chunks_claimed = observed ? chunks_claimed_ : nullptr;

  {
    std::lock_guard lock(mutex_);
    current_ = &d;
    ++generation_;
  }
  wake_cv_.notify_all();

  drain(d);

  // The range is exhausted; wait until no worker still references `d`
  // (workers that never woke will see current_ == nullptr and skip it).
  {
    std::unique_lock lock(mutex_);
    current_ = nullptr;
    done_cv_.wait(lock, [&] { return attached_ == 0; });
  }
  if (d.error) {
    std::rethrow_exception(d.error);
  }
}

}  // namespace greenvis::util
