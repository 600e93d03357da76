#include "src/trace/timeline.hpp"

#include <algorithm>

#include "src/util/csv.hpp"
#include "src/util/error.hpp"

namespace greenvis::trace {

void Timeline::record(std::string_view category, Seconds begin, Seconds end) {
  GREENVIS_REQUIRE_MSG(end >= begin, "interval must not be negative");
  intervals_.push_back(Interval{std::string{category}, begin, end});
}

Seconds Timeline::total(std::string_view category) const {
  Seconds sum{0.0};
  for (const auto& iv : intervals_) {
    if (iv.category == category) {
      sum += iv.duration();
    }
  }
  return sum;
}

Seconds Timeline::total_recorded() const {
  Seconds sum{0.0};
  for (const auto& iv : intervals_) {
    sum += iv.duration();
  }
  return sum;
}

Seconds Timeline::span_begin() const {
  if (intervals_.empty()) {
    return Seconds{0.0};
  }
  auto it = std::min_element(
      intervals_.begin(), intervals_.end(),
      [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  return it->begin;
}

Seconds Timeline::span_end() const {
  if (intervals_.empty()) {
    return Seconds{0.0};
  }
  auto it = std::max_element(
      intervals_.begin(), intervals_.end(),
      [](const Interval& a, const Interval& b) { return a.end < b.end; });
  return it->end;
}

std::map<std::string, double> Timeline::fractions() const {
  std::map<std::string, double> out;
  const Seconds total_time = total_recorded();
  if (total_time.value() <= 0.0) {
    return out;
  }
  for (const auto& iv : intervals_) {
    out[iv.category] += iv.duration() / total_time;
  }
  return out;
}

std::string Timeline::category_at(Seconds t) const {
  // Intervals are half-open, so at an abutting boundary (end == next begin)
  // only the later phase contains t and it wins automatically. Among
  // overlapping intervals the one that began last wins — the innermost,
  // most recently started phase — independent of recording order. Recording
  // order breaks exact begin ties only (later recording wins).
  const Interval* best = nullptr;
  for (const auto& iv : intervals_) {
    if (t >= iv.begin && t < iv.end &&
        (best == nullptr || iv.begin >= best->begin)) {
      best = &iv;
    }
  }
  return best == nullptr ? std::string{} : best->category;
}

std::vector<Interval> Timeline::gaps() const {
  std::vector<Interval> out;
  if (intervals_.empty()) {
    return out;
  }
  std::vector<Interval> sorted = intervals_;
  std::sort(sorted.begin(), sorted.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  Seconds covered_to = sorted.front().begin;
  for (const auto& iv : sorted) {
    if (iv.begin > covered_to) {
      out.push_back(Interval{"", covered_to, iv.begin});
    }
    covered_to = std::max(covered_to, iv.end);
  }
  return out;
}

void Timeline::write_csv(std::ostream& os) const {
  util::CsvWriter csv{os};
  csv.row({"category", "begin_s", "end_s", "duration_s"});
  for (const auto& iv : intervals_) {
    csv.field(iv.category);
    csv.field(iv.begin.value());
    csv.field(iv.end.value());
    csv.field(iv.duration().value());
    csv.end_row();
  }
}

}  // namespace greenvis::trace
