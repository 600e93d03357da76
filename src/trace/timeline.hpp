// Phase timeline.
//
// Records labeled intervals of virtual time ("simulation", "write", "read",
// "visualization", ...). The analysis layer uses it for Fig. 4 (percentage of
// execution time per stage) and for segmenting power profiles into the two
// "major power phases" the paper describes in Sec. V-A.
#pragma once

#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/units.hpp"

namespace greenvis::trace {

using util::Seconds;

struct Interval {
  std::string category;
  Seconds begin{0.0};
  Seconds end{0.0};

  [[nodiscard]] Seconds duration() const { return end - begin; }
};

class Timeline {
 public:
  /// Record a closed interval. `end >= begin` required.
  void record(std::string_view category, Seconds begin, Seconds end);

  [[nodiscard]] const std::vector<Interval>& intervals() const {
    return intervals_;
  }
  [[nodiscard]] bool empty() const { return intervals_.empty(); }

  /// Sum of interval durations for one category.
  [[nodiscard]] Seconds total(std::string_view category) const;

  /// Sum over all intervals.
  [[nodiscard]] Seconds total_recorded() const;

  /// Earliest begin / latest end over all intervals; zero when empty.
  [[nodiscard]] Seconds span_begin() const;
  [[nodiscard]] Seconds span_end() const;

  /// Category → fraction of total recorded time. This is exactly the Fig. 4
  /// quantity.
  [[nodiscard]] std::map<std::string, double> fractions() const;

  /// The category active at time `t`, or empty string if none. Intervals are
  /// half-open [begin, end), so when phases abut (end == next begin) a
  /// boundary sample belongs to the later phase — matching how a 1 Hz
  /// sampler attributes it. Among overlapping intervals the latest-started
  /// one wins (the innermost phase), independent of recording order.
  [[nodiscard]] std::string category_at(Seconds t) const;

  /// Maximal uncovered stretches strictly inside [span_begin, span_end):
  /// times where no interval is active. Categories are empty strings.
  /// Useful for spotting unattributed time in a phase breakdown.
  [[nodiscard]] std::vector<Interval> gaps() const;

  /// CSV: category,begin_s,end_s,duration_s
  void write_csv(std::ostream& os) const;

 private:
  std::vector<Interval> intervals_;
};

}  // namespace greenvis::trace
