#include <gtest/gtest.h>

#include <sstream>

#include "src/trace/clock.hpp"
#include "src/trace/timeline.hpp"
#include "src/util/error.hpp"

namespace greenvis::trace {
namespace {

TEST(Clock, AdvancesMonotonically) {
  VirtualClock c;
  EXPECT_DOUBLE_EQ(c.now().value(), 0.0);
  c.advance(Seconds{1.5});
  c.advance_to(Seconds{4.0});
  EXPECT_DOUBLE_EQ(c.now().value(), 4.0);
}

TEST(Clock, RefusesToGoBackwards) {
  VirtualClock c;
  c.advance(Seconds{2.0});
  EXPECT_THROW(c.advance(Seconds{-0.1}), util::ContractViolation);
  EXPECT_THROW(c.advance_to(Seconds{1.0}), util::ContractViolation);
}

TEST(Clock, ResetReturnsToZero) {
  VirtualClock c;
  c.advance(Seconds{3.0});
  c.reset();
  EXPECT_DOUBLE_EQ(c.now().value(), 0.0);
}

TEST(Timeline, TotalsPerCategory) {
  Timeline t;
  t.record("sim", Seconds{0.0}, Seconds{2.0});
  t.record("write", Seconds{2.0}, Seconds{3.0});
  t.record("sim", Seconds{3.0}, Seconds{5.0});
  EXPECT_DOUBLE_EQ(t.total("sim").value(), 4.0);
  EXPECT_DOUBLE_EQ(t.total("write").value(), 1.0);
  EXPECT_DOUBLE_EQ(t.total_recorded().value(), 5.0);
}

TEST(Timeline, FractionsSumToOne) {
  Timeline t;
  t.record("a", Seconds{0.0}, Seconds{3.0});
  t.record("b", Seconds{3.0}, Seconds{4.0});
  const auto f = t.fractions();
  EXPECT_NEAR(f.at("a"), 0.75, 1e-12);
  EXPECT_NEAR(f.at("b"), 0.25, 1e-12);
}

TEST(Timeline, CategoryAtHandsOffAtBoundaries) {
  Timeline t;
  t.record("a", Seconds{0.0}, Seconds{1.0});
  t.record("b", Seconds{1.0}, Seconds{2.0});
  EXPECT_EQ(t.category_at(Seconds{0.5}), "a");
  EXPECT_EQ(t.category_at(Seconds{1.0}), "b");
  EXPECT_EQ(t.category_at(Seconds{2.0}), "");
  EXPECT_EQ(t.category_at(Seconds{-1.0}), "");
}

TEST(Timeline, CategoryAtOverlapsAreOrderIndependent) {
  // A nested sub-phase must win over its enclosing phase no matter which
  // was recorded first (a phase recorded when it closes lands
  // inner-before-outer; one recorded when it opens lands outer-before-inner).
  Timeline outer_first;
  outer_first.record("outer", Seconds{0.0}, Seconds{10.0});
  outer_first.record("inner", Seconds{2.0}, Seconds{4.0});
  Timeline inner_first;
  inner_first.record("inner", Seconds{2.0}, Seconds{4.0});
  inner_first.record("outer", Seconds{0.0}, Seconds{10.0});
  for (const Timeline* t : {&outer_first, &inner_first}) {
    EXPECT_EQ(t->category_at(Seconds{1.0}), "outer");
    EXPECT_EQ(t->category_at(Seconds{3.0}), "inner");
    EXPECT_EQ(t->category_at(Seconds{4.0}), "outer");  // inner is half-open
    EXPECT_EQ(t->category_at(Seconds{9.0}), "outer");
  }
}

TEST(Timeline, CategoryAtBoundaryOfOverlappingPhases) {
  // A phase that starts while another is still running takes over exactly
  // at its begin, regardless of recording order.
  Timeline t;
  t.record("b", Seconds{1.0}, Seconds{3.0});
  t.record("a", Seconds{0.0}, Seconds{2.0});
  EXPECT_EQ(t.category_at(Seconds{0.5}), "a");
  EXPECT_EQ(t.category_at(Seconds{1.0}), "b");
  EXPECT_EQ(t.category_at(Seconds{1.5}), "b");
  EXPECT_EQ(t.category_at(Seconds{2.5}), "b");
}

TEST(Timeline, GapsFindUncoveredStretches) {
  Timeline t;
  t.record("a", Seconds{0.0}, Seconds{1.0});
  t.record("b", Seconds{2.0}, Seconds{3.0});
  t.record("c", Seconds{2.5}, Seconds{4.0});  // overlap must not split a gap
  t.record("d", Seconds{6.0}, Seconds{7.0});
  const auto gaps = t.gaps();
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_DOUBLE_EQ(gaps[0].begin.value(), 1.0);
  EXPECT_DOUBLE_EQ(gaps[0].end.value(), 2.0);
  EXPECT_DOUBLE_EQ(gaps[1].begin.value(), 4.0);
  EXPECT_DOUBLE_EQ(gaps[1].end.value(), 6.0);
}

TEST(Timeline, GapsEmptyWhenFullyCoveredOrEmpty) {
  Timeline t;
  EXPECT_TRUE(t.gaps().empty());
  t.record("a", Seconds{0.0}, Seconds{2.0});
  t.record("b", Seconds{2.0}, Seconds{5.0});  // abutting: no gap at 2.0
  EXPECT_TRUE(t.gaps().empty());
}

TEST(Timeline, SpanCoversAllIntervals) {
  Timeline t;
  t.record("x", Seconds{1.0}, Seconds{2.0});
  t.record("y", Seconds{4.0}, Seconds{9.0});
  EXPECT_DOUBLE_EQ(t.span_begin().value(), 1.0);
  EXPECT_DOUBLE_EQ(t.span_end().value(), 9.0);
}

TEST(Timeline, RejectsNegativeInterval) {
  Timeline t;
  EXPECT_THROW(t.record("bad", Seconds{2.0}, Seconds{1.0}),
               util::ContractViolation);
}

TEST(Timeline, CsvExport) {
  Timeline t;
  t.record("sim", Seconds{0.0}, Seconds{1.5});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_NE(os.str().find("category,begin_s,end_s,duration_s"),
            std::string::npos);
  EXPECT_NE(os.str().find("sim"), std::string::npos);
}

TEST(Timeline, EmptyTimelineBehaves) {
  Timeline t;
  EXPECT_TRUE(t.empty());
  EXPECT_DOUBLE_EQ(t.total_recorded().value(), 0.0);
  EXPECT_TRUE(t.fractions().empty());
  EXPECT_DOUBLE_EQ(t.span_begin().value(), 0.0);
}

}  // namespace
}  // namespace greenvis::trace
