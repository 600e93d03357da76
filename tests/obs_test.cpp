// Observability subsystem tests: registry exactness under contention, the
// Chrome trace-event export schema, the disabled-mode zero-cost guarantee,
// and non-interference with experiment results.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "src/core/experiment.hpp"
#include "src/core/workload.hpp"
#include "src/obs/registry.hpp"
#include "src/obs/tracer.hpp"
#include "src/util/thread_pool.hpp"

// ---------- global allocation counter (for the zero-alloc test) ----------

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};
}  // namespace

namespace {
void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
// The nothrow forms must be replaced too: the library uses them (e.g. for
// std::stable_sort's temporary buffer), and mixing a default nothrow new
// with the replaced delete is an alloc/dealloc mismatch under ASan.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return operator new(n, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace greenvis::obs {
namespace {

// ---------- a minimal JSON reader (enough for the trace schema) ----------

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>
      v{nullptr};

  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<std::shared_ptr<JsonObject>>(v);
  }
  [[nodiscard]] const JsonObject& object() const {
    return *std::get<std::shared_ptr<JsonObject>>(v);
  }
  [[nodiscard]] const JsonArray& array() const {
    return *std::get<std::shared_ptr<JsonArray>>(v);
  }
  [[nodiscard]] const std::string& str() const {
    return std::get<std::string>(v);
  }
  [[nodiscard]] double num() const { return std::get<double>(v); }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    const JsonValue v = value();
    skip_ws();
    EXPECT_EQ(pos_, text_.size()) << "trailing bytes after JSON document";
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    EXPECT_LT(pos_, text_.size()) << "unexpected end of JSON";
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void expect(char c) {
    EXPECT_EQ(peek(), c);
    ++pos_;
  }

  JsonValue value() {
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return JsonValue{string()};
      case 't':
        pos_ += 4;
        return JsonValue{true};
      case 'f':
        pos_ += 5;
        return JsonValue{false};
      case 'n':
        pos_ += 4;
        return JsonValue{nullptr};
      default:
        return JsonValue{number()};
    }
  }

  JsonValue object() {
    expect('{');
    auto obj = std::make_shared<JsonObject>();
    if (peek() != '}') {
      for (;;) {
        const std::string key = string();
        expect(':');
        (*obj)[key] = value();
        if (peek() != ',') {
          break;
        }
        ++pos_;
      }
    }
    expect('}');
    return JsonValue{obj};
  }

  JsonValue array() {
    expect('[');
    auto arr = std::make_shared<JsonArray>();
    if (peek() != ']') {
      for (;;) {
        arr->push_back(value());
        if (peek() != ',') {
          break;
        }
        ++pos_;
      }
    }
    expect(']');
    return JsonValue{arr};
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n':
            c = '\n';
            break;
          case 't':
            c = '\t';
            break;
          case 'u':
            pos_ += 4;  // tests never need the decoded code point
            c = '?';
            break;
          default:
            c = esc;
            break;
        }
      }
      out.push_back(c);
    }
    expect('"');
    return out;
  }

  double number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    return std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                       nullptr);
  }

  std::string_view text_;
  std::size_t pos_{0};
};

/// RAII guard: force observability on/off for one test, restore after.
class ObsGuard {
 public:
  explicit ObsGuard(bool on) { set_enabled(on); }
  ~ObsGuard() { set_enabled(false); }
};

// ---------- registry ----------

TEST(Registry, CounterTotalsAreExactUnderContention) {
  Counter& c = Registry::global().counter("test.contended_counter");
  c.reset();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.add(1);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Registry, HistogramCountAndSumAreExactUnderContention) {
  Histogram& h = Registry::global().histogram("test.contended_hist",
                                              {1.0, 2.0, 4.0});
  h.reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      // Integral values keep the double sum exact.
      const double x = static_cast<double>(t % 4);
      for (int i = 0; i < kPerThread; ++i) {
        h.record(x);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  // Two threads each of x = 0, 1, 2, 3 → sum = 2 * 50k * (0+1+2+3).
  EXPECT_DOUBLE_EQ(h.sum(), 2.0 * kPerThread * 6.0);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // three bounds + overflow
  EXPECT_EQ(buckets[0], 4u * kPerThread);  // 0 and 1 both fall in (≤1]
  EXPECT_EQ(buckets[1], 2u * kPerThread);  // 2 in (1, 2]
  EXPECT_EQ(buckets[2], 2u * kPerThread);  // 3 in (2, 4]
  EXPECT_EQ(buckets[3], 0u);
}

TEST(Registry, FindOrCreateReturnsSameInstance) {
  Counter& a = Registry::global().counter("test.same");
  Counter& b = Registry::global().counter("test.same");
  EXPECT_EQ(&a, &b);
  Gauge& g = Registry::global().gauge("test.gauge");
  g.set(3.5);
  EXPECT_DOUBLE_EQ(Registry::global().gauge("test.gauge").value(), 3.5);
}

TEST(Registry, SnapshotSerializesJsonAndCsv) {
  Registry::global().counter("test.snap_counter").reset();
  Registry::global().counter("test.snap_counter").add(7);
  Registry::global().gauge("test.snap_gauge").set(2.25);
  Histogram& h = Registry::global().histogram("test.snap_hist", {10.0});
  h.reset();
  h.record(3.0);
  h.record(100.0);

  const MetricsSnapshot snap = Registry::global().snapshot();
  std::ostringstream json;
  snap.write_json(json);
  const JsonValue doc = JsonParser(json.str()).parse();
  ASSERT_TRUE(doc.is_object());
  const auto& counters = doc.object().at("counters").object();
  EXPECT_DOUBLE_EQ(counters.at("test.snap_counter").num(), 7.0);
  const auto& gauges = doc.object().at("gauges").object();
  EXPECT_DOUBLE_EQ(gauges.at("test.snap_gauge").num(), 2.25);
  const auto& hist = doc.object().at("histograms").object().at("test.snap_hist");
  EXPECT_DOUBLE_EQ(hist.object().at("count").num(), 2.0);
  EXPECT_DOUBLE_EQ(hist.object().at("sum").num(), 103.0);
  ASSERT_EQ(hist.object().at("bucket_counts").array().size(), 2u);
  EXPECT_DOUBLE_EQ(hist.object().at("bucket_counts").array()[0].num(), 1.0);
  EXPECT_DOUBLE_EQ(hist.object().at("bucket_counts").array()[1].num(), 1.0);

  std::ostringstream csv;
  snap.write_csv(csv);
  EXPECT_NE(csv.str().find("counter,test.snap_counter,value,7"),
            std::string::npos);
  EXPECT_NE(csv.str().find("gauge,test.snap_gauge,value,2.25"),
            std::string::npos);
}

// ---------- tracer ----------

TEST(Tracer, ChromeTraceSchemaAndThreadAttribution) {
  ObsGuard guard(true);
  Tracer::global().clear();

  // Pool work with a body slow enough that the workers reliably wake and
  // claim chunks (recording "pool.drain" spans on their own tids).
  {
    util::ThreadPool pool(4);
    pool.parallel_for(std::size_t{0}, std::size_t{16},
                      [](std::size_t b, std::size_t e) {
                        for (std::size_t i = b; i < e; ++i) {
                          std::this_thread::sleep_for(
                              std::chrono::microseconds(300));
                        }
                      });
  }

  // A tiny experiment so pipeline-stage and kernel spans appear too.
  core::CaseStudyConfig config = core::case_study(1);
  config.iterations = 4;
  config.vis.width = 64;
  config.vis.height = 64;
  core::PipelineOptions options;
  options.host_threads = 2;
  (void)core::Experiment{}.run(core::PipelineKind::kInSitu, config, options);

  std::ostringstream os;
  Tracer::global().write_chrome_trace(os);
  const JsonValue doc = JsonParser(os.str()).parse();
  ASSERT_TRUE(doc.is_object());
  const JsonArray& events = doc.object().at("traceEvents").array();
  ASSERT_FALSE(events.empty());

  std::map<double, double> last_ts_per_tid;
  std::map<std::string, int> names;
  std::map<std::string, std::vector<double>> tids_by_name;
  std::map<std::string, int> process_labels;
  std::map<std::string, int> thread_labels;
  for (const JsonValue& ev : events) {
    ASSERT_TRUE(ev.is_object());
    const JsonObject& e = ev.object();
    const std::string& ph = e.at("ph").str();
    ASSERT_TRUE(ph == "X" || ph == "M") << "unexpected phase " << ph;
    if (ph == "M") {
      const std::string& meta = e.at("name").str();
      ASSERT_TRUE(meta == "thread_name" || meta == "process_name") << meta;
      const std::string& label = e.at("args").object().at("name").str();
      (meta == "process_name" ? process_labels : thread_labels)[label] += 1;
      continue;
    }
    // Complete events carry the full schema.
    ASSERT_TRUE(e.contains("name"));
    ASSERT_TRUE(e.contains("cat"));
    ASSERT_TRUE(e.contains("ts"));
    ASSERT_TRUE(e.contains("dur"));
    ASSERT_TRUE(e.contains("pid"));
    ASSERT_TRUE(e.contains("tid"));
    const double ts = e.at("ts").num();
    const double tid = e.at("tid").num();
    EXPECT_GE(ts, 0.0);
    EXPECT_GE(e.at("dur").num(), 0.0);
    // Per-thread event streams are ordered by begin time.
    const auto it = last_ts_per_tid.find(tid);
    if (it != last_ts_per_tid.end()) {
      EXPECT_GE(ts, it->second);
    }
    last_ts_per_tid[tid] = ts;
    names[e.at("name").str()] += 1;
    tids_by_name[e.at("name").str()].push_back(tid);
  }

  // The instrumented layers all showed up.
  EXPECT_GE(names["pool.drain"], 1);
  EXPECT_GE(names["pool.dispatch"], 1);
  EXPECT_EQ(names["stage.simulate"], 4);
  EXPECT_EQ(names["stage.visualize"], 4);
  EXPECT_EQ(names["heat2d.step"], 4);
  EXPECT_EQ(names["vis.render"], 4);

  // pool.drain spans belong to pool workers, never to the dispatching
  // thread (the one that ran the pipeline stages).
  ASSERT_FALSE(tids_by_name["stage.simulate"].empty());
  const double caller_tid = tids_by_name["stage.simulate"].front();
  for (const double tid : tids_by_name["pool.drain"]) {
    EXPECT_NE(tid, caller_tid);
  }

  // The host process is named, and every pool worker that recorded spans
  // exports under its registered thread label.
  EXPECT_EQ(process_labels["greenvis host"], 1);
  EXPECT_GE(thread_labels["pool-worker"], 1);
}

TEST(Tracer, DropsInsteadOfGrowingWithoutBound) {
  // Not exercised end to end (a million spans would slow the suite); just
  // check the counter is wired up and reads zero here.
  EXPECT_EQ(Tracer::global().dropped(), 0u);
}

// ---------- disabled mode ----------

TEST(DisabledMode, ScopedSpansAllocateNothing) {
  set_enabled(false);
  // Warm both code paths once so lazy statics elsewhere cannot pollute the
  // measured window.
  {
    ScopedSpan a("warm", kCatPool);
    ScopedSpan b(std::string_view{"warm:"}, std::string_view{"up"}, kCatPool);
  }
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 10'000; ++i) {
    ScopedSpan a("hot.static", kCatPool);
    ScopedSpan b(std::string_view{"hot:"}, std::string_view{"dynamic"},
                 kCatHeat);
  }
  EXPECT_EQ(g_allocations.load(), before);
}

TEST(DisabledMode, ShortLivedPoolThreadsDoNotPinSpanBlocks) {
  // Every pool worker labels itself for the trace, so each new host thread
  // registers a tracer buffer that lives as long as the process. With obs
  // off that registration must stay small: no span block until a span is
  // actually recorded.
  set_enabled(false);
  const std::uint64_t before = g_allocated_bytes.load();
  for (int i = 0; i < 16; ++i) {
    util::ThreadPool pool(4);
  }
  EXPECT_LT(g_allocated_bytes.load() - before, 256u * 1024u);
}

TEST(DisabledMode, EnabledIsASingleRelaxedLoad) {
  set_enabled(false);
  EXPECT_FALSE(enabled());
  set_enabled(true);
  EXPECT_TRUE(enabled());
  set_enabled(false);
}

// ---------- non-interference ----------

TEST(NonInterference, ResultsIdenticalWithObservabilityOnAndOff) {
  core::CaseStudyConfig config = core::case_study(1);
  config.iterations = 4;
  config.vis.width = 64;
  config.vis.height = 64;
  core::PipelineOptions options;
  options.host_threads = 2;
  options.frame_digests = true;

  set_enabled(false);
  const auto off = core::Experiment{}.run(core::PipelineKind::kInSitu,
                                          config, options);
  core::PipelineMetrics on;
  {
    ObsGuard guard(true);
    on = core::Experiment{}.run(core::PipelineKind::kInSitu, config, options);
  }
  EXPECT_TRUE(core::same_frames(off.output, on.output));
  EXPECT_DOUBLE_EQ(off.energy.value(), on.energy.value());
  EXPECT_DOUBLE_EQ(off.duration.value(), on.duration.value());

  // And across pool sizes while instrumented.
  core::PipelineMetrics wide;
  {
    ObsGuard guard(true);
    options.host_threads = 4;
    wide = core::Experiment{}.run(core::PipelineKind::kInSitu, config,
                                  options);
  }
  EXPECT_TRUE(core::same_frames(off.output, wide.output));
  EXPECT_DOUBLE_EQ(off.energy.value(), wide.energy.value());
}

}  // namespace
}  // namespace greenvis::obs
