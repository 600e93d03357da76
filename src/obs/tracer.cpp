#include "src/obs/tracer.hpp"

#include <algorithm>
#include <map>

#include "src/obs/json.hpp"

namespace greenvis::obs {

/// Per-thread span storage: fixed-size blocks written by the owner thread
/// only; `committed_` publishes fully-written slots to the exporter. The
/// first block is allocated by the first push, so a thread that only labels
/// itself (every pool worker does, traced or not) costs no block.
class Tracer::ThreadBuffer {
 public:
  static constexpr std::size_t kBlockEvents = 4096;
  /// Cap per thread (~1M spans, ~64 MB worst case); beyond it spans are
  /// counted as dropped instead of recorded.
  static constexpr std::size_t kMaxEvents = 1u << 20;

  explicit ThreadBuffer(std::uint32_t tid) : tid_(tid) {}

  [[nodiscard]] std::uint32_t tid() const { return tid_; }

  void set_name(const char* name) {
    name_.store(name, std::memory_order_release);
  }
  /// nullptr when the thread never labeled itself.
  [[nodiscard]] const char* name() const {
    return name_.load(std::memory_order_acquire);
  }

  /// Owner thread only. Returns false when the cap is hit.
  bool push(std::string&& name, const char* category, std::uint64_t begin_ns,
            std::uint64_t dur_ns) {
    const std::size_t n = committed_.load(std::memory_order_relaxed);
    if (n >= kMaxEvents) {
      return false;
    }
    if (tail_ == nullptr || write_idx_ == kBlockEvents) {
      add_block();
      write_idx_ = 0;
    }
    SpanEvent& e = tail_->slots[write_idx_++];
    e.name = std::move(name);
    e.category = category;
    e.begin_ns = begin_ns;
    e.dur_ns = dur_ns;
    e.tid = tid_;
    committed_.store(n + 1, std::memory_order_release);
    return true;
  }

  /// Exporter: visit every committed event in record order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    // Load the count before listing blocks: every committed event's block
    // was added before its commit, so the listing then covers all n (the
    // reverse order could see n past the blocks listed).
    const std::size_t n = committed_.load(std::memory_order_acquire);
    std::vector<const Block*> blocks;
    {
      std::lock_guard lock(blocks_mutex_);
      blocks.reserve(blocks_.size());
      for (const auto& b : blocks_) {
        blocks.push_back(b.get());
      }
    }
    for (std::size_t k = 0; k < n; ++k) {
      fn(blocks[k / kBlockEvents]->slots[k % kBlockEvents]);
    }
  }

  /// Requires quiescence (see Tracer::clear).
  void clear() {
    {
      std::lock_guard lock(blocks_mutex_);
      blocks_.resize(std::min<std::size_t>(blocks_.size(), 1));
      tail_ = blocks_.empty() ? nullptr : blocks_.front().get();
    }
    write_idx_ = 0;
    committed_.store(0, std::memory_order_release);
  }

 private:
  struct Block {
    std::vector<SpanEvent> slots{std::vector<SpanEvent>(kBlockEvents)};
  };

  void add_block() {
    auto block = std::make_unique<Block>();
    Block* raw = block.get();
    std::lock_guard lock(blocks_mutex_);
    blocks_.push_back(std::move(block));
    tail_ = raw;
  }

  std::uint32_t tid_;
  std::atomic<const char*> name_{nullptr};
  mutable std::mutex blocks_mutex_;  // guards blocks_ growth vs. export
  std::vector<std::unique_ptr<Block>> blocks_;
  Block* tail_{nullptr};          // owner thread only
  std::size_t write_idx_{0};      // owner thread only
  std::atomic<std::size_t> committed_{0};
};

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::global() {
  static Tracer* instance = new Tracer;  // leaked: see class comment
  return *instance;
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard lock(mutex_);
    auto owned = std::make_unique<ThreadBuffer>(
        static_cast<std::uint32_t>(buffers_.size() + 1));
    buffer = owned.get();
    buffers_.push_back(std::move(owned));
  }
  return *buffer;
}

void Tracer::record(std::string&& name, const char* category,
                    std::uint64_t begin_ns, std::uint64_t end_ns) {
  const std::uint64_t dur = end_ns >= begin_ns ? end_ns - begin_ns : 0;
  if (!local_buffer().push(std::move(name), category, begin_ns, dur)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Tracer::set_thread_name(const char* name) {
  local_buffer().set_name(name);
}

void Tracer::record_counter(const char* name, double ts_us, double value) {
  std::lock_guard lock(counters_mutex_);
  counter_samples_.push_back(CounterSample{name, ts_us, value});
}

std::vector<CounterSample> Tracer::counters() const {
  std::lock_guard lock(counters_mutex_);
  return counter_samples_;
}

std::vector<SpanEvent> Tracer::events() const {
  std::vector<const ThreadBuffer*> buffers;
  {
    std::lock_guard lock(mutex_);
    buffers.reserve(buffers_.size());
    for (const auto& b : buffers_) {
      buffers.push_back(b.get());
    }
  }
  std::vector<SpanEvent> out;
  for (const ThreadBuffer* b : buffers) {
    b->for_each([&](const SpanEvent& e) { out.push_back(e); });
  }
  return out;
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  // Group by thread and order by begin time so `ts` is monotonic per tid.
  std::map<std::uint32_t, std::vector<SpanEvent>> by_tid;
  for (auto& e : events()) {
    by_tid[e.tid].push_back(std::move(e));
  }
  for (auto& [tid, spans] : by_tid) {
    std::stable_sort(spans.begin(), spans.end(),
                     [](const SpanEvent& a, const SpanEvent& b) {
                       return a.begin_ns < b.begin_ns;
                     });
  }

  // Thread labels registered via set_thread_name (pool workers, the async
  // staging writer); unlabeled threads keep the "greenvis-N" default.
  std::map<std::uint32_t, const char*> names;
  {
    std::lock_guard lock(mutex_);
    for (const auto& b : buffers_) {
      if (const char* n = b->name(); n != nullptr) {
        names[b->tid()] = n;
      }
    }
  }

  const auto flags = os.flags();
  const auto precision = os.precision();
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [";
  os << "\n{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
        "\"process_name\", \"args\": {\"name\": \"greenvis host\"}}";
  for (const auto& [tid, spans] : by_tid) {
    os << ",\n{\"ph\": \"M\", \"pid\": 1, \"tid\": " << tid
       << ", \"name\": \"thread_name\", \"args\": {\"name\": \"";
    if (auto it = names.find(tid); it != names.end()) {
      os << it->second << "\"}}";
    } else {
      os << "greenvis-" << tid << "\"}}";
    }
    for (const SpanEvent& e : spans) {
      os << ",\n{\"name\": ";
      detail::write_json_string(os, e.name);
      os << ", \"cat\": ";
      detail::write_json_string(os, e.category);
      os << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << e.tid
         << ", \"ts\": " << static_cast<double>(e.begin_ns) / 1e3
         << ", \"dur\": " << static_cast<double>(e.dur_ns) / 1e3 << "}";
    }
  }
  // Counter tracks (modeled power rails, virtual time) under their own pid
  // so the viewer renders them as graphs beside the host spans.
  const std::vector<CounterSample> counters = this->counters();
  if (!counters.empty()) {
    os << ",\n{\"ph\": \"M\", \"pid\": 2, \"tid\": 0, \"name\": "
          "\"process_name\", \"args\": {\"name\": \"greenvis virtual "
          "rails\"}}";
    for (const CounterSample& c : counters) {
      os << ",\n{\"name\": ";
      detail::write_json_string(os, c.name);
      os << ", \"ph\": \"C\", \"pid\": 2, \"tid\": 0, \"ts\": " << c.ts_us
         << ", \"args\": {\"value\": " << c.value << "}}";
    }
  }
  os << "\n]\n}\n";
  os.flags(flags);
  os.precision(precision);
}

void Tracer::clear() {
  std::lock_guard lock(mutex_);
  for (auto& b : buffers_) {
    b->clear();
  }
  {
    std::lock_guard counters_lock(counters_mutex_);
    counter_samples_.clear();
  }
  dropped_.store(0, std::memory_order_relaxed);
}

namespace {

/// Per-category duration histogram, cached so the hot path is one pointer
/// scan instead of a registry mutex. Categories are the static kCat*
/// constants, so pointer identity keys the cache. A slot is claimed by
/// CAS-ing the category in first; the histogram pointer follows, and racing
/// readers spin the few cycles until it lands.
Histogram& category_histogram(const char* category) {
  struct Entry {
    std::atomic<const char*> cat{nullptr};
    std::atomic<Histogram*> hist{nullptr};
  };
  static constexpr std::size_t kSlots = 64;
  static Entry entries[kSlots];
  auto make = [&] {
    return &Registry::global().histogram(
        std::string("span.duration_us.") + category, duration_us_bounds());
  };
  for (std::size_t i = 0; i < kSlots; ++i) {
    const char* cur = entries[i].cat.load(std::memory_order_acquire);
    if (cur == nullptr) {
      const char* expected = nullptr;
      if (entries[i].cat.compare_exchange_strong(expected, category,
                                                 std::memory_order_acq_rel)) {
        Histogram* h = make();
        entries[i].hist.store(h, std::memory_order_release);
        return *h;
      }
      cur = expected;
    }
    if (cur == category) {
      Histogram* h;
      while ((h = entries[i].hist.load(std::memory_order_acquire)) ==
             nullptr) {
      }
      return *h;
    }
    // Slot owned by another category: keep probing.
  }
  return *make();  // > kSlots categories: fall back to the registry mutex
}

}  // namespace

void ScopedSpan::finish() {
  const std::uint64_t end = Tracer::global().now_ns();
  const double us = static_cast<double>(end - begin_ns_) / 1e3;
  if (duration_us_ != nullptr) {
    duration_us_->record(us);
  }
  if (category_ != nullptr && category_[0] != '\0') {
    category_histogram(category_).record(us);
  }
  std::string name = static_name_ != nullptr ? std::string{static_name_}
                                             : std::move(dynamic_name_);
  Tracer::global().record(std::move(name), category_, begin_ns_, end);
}

}  // namespace greenvis::obs
