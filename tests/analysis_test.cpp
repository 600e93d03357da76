#include <gtest/gtest.h>

#include <cmath>

#include "src/analysis/advisor.hpp"
#include "src/analysis/metrics.hpp"
#include "src/analysis/report.hpp"
#include "src/analysis/whatif.hpp"
#include "src/fio/runner.hpp"
#include "src/util/error.hpp"

namespace greenvis::analysis {
namespace {

core::PipelineMetrics fake_metrics(const std::string& name, double seconds,
                                   double watts) {
  core::PipelineMetrics m;
  m.pipeline_name = name;
  m.case_name = "Case Study 1";
  m.duration = Seconds{seconds};
  m.average_power = Watts{watts};
  m.peak_power = Watts{watts + 5.0};
  m.energy = Watts{watts} * Seconds{seconds};
  return m;
}

TEST(Comparison, DerivedRatios) {
  const auto post = fake_metrics("Traditional", 200.0, 130.0);
  const auto insitu = fake_metrics("In-situ", 100.0, 140.0);
  const PipelineComparison c = compare(post, insitu);
  EXPECT_NEAR(c.time_reduction(), 0.5, 1e-12);
  EXPECT_NEAR(c.energy_savings(), 1.0 - 14000.0 / 26000.0, 1e-12);
  EXPECT_NEAR(c.avg_power_increase(), 140.0 / 130.0 - 1.0, 1e-12);
  EXPECT_NEAR(c.efficiency_improvement(), 26000.0 / 14000.0 - 1.0, 1e-12);
}

TEST(Comparison, RejectsMismatchedCases) {
  auto post = fake_metrics("Traditional", 200.0, 130.0);
  auto insitu = fake_metrics("In-situ", 100.0, 140.0);
  insitu.case_name = "Case Study 2";
  EXPECT_THROW((void)compare(post, insitu), util::ContractViolation);
}

TEST(SavingsBreakdown, PaperMethodDecomposition) {
  const auto post = fake_metrics("Traditional", 215.0, 134.0);
  const auto insitu = fake_metrics("In-situ", 100.0, 145.0);
  // Table II: ~10 W dynamic in the I/O stages.
  const SavingsBreakdown b = savings_breakdown(post, insitu, Watts{10.15});
  EXPECT_NEAR(b.total_savings.value(),
              215.0 * 134.0 - 100.0 * 145.0, 1e-9);
  EXPECT_NEAR(b.dynamic_savings.value(), 115.0 * 10.15, 1e-9);
  EXPECT_NEAR(b.static_savings.value(),
              b.total_savings.value() - b.dynamic_savings.value(), 1e-9);
  EXPECT_NEAR(b.dynamic_fraction() + b.static_fraction(), 1.0, 1e-12);
  // The paper's headline: static dominates.
  EXPECT_GT(b.static_fraction(), 0.85);
}

TEST(PhaseStats, AttributesSamplesToPhases) {
  power::PowerTrace trace{Seconds{1.0}};
  for (int i = 0; i < 10; ++i) {
    power::PowerSample s;
    s.time = Seconds{static_cast<double>(i + 1)};
    s.system = Watts{i < 5 ? 150.0 : 110.0};
    trace.add(s);
  }
  trace::Timeline timeline;
  timeline.record("Simulation", Seconds{0.0}, Seconds{5.0});
  timeline.record("Write", Seconds{5.0}, Seconds{10.0});
  const auto stats = phase_power_stats(trace, timeline);
  EXPECT_NEAR(stats.at("Simulation").average_power.value(), 150.0, 1e-9);
  EXPECT_NEAR(stats.at("Write").average_power.value(), 110.0, 1e-9);
  EXPECT_NEAR(stats.at("Simulation").time.value(), 5.0, 1e-9);
  EXPECT_NEAR(stats.at("Write").energy.value(), 550.0, 1e-9);
}

TEST(PhaseStats, UncoveredSamplesAreIdle) {
  power::PowerTrace trace{Seconds{1.0}};
  power::PowerSample s;
  s.time = Seconds{1.0};
  s.system = Watts{100.0};
  trace.add(s);
  const auto stats = phase_power_stats(trace, trace::Timeline{});
  EXPECT_EQ(stats.count("Idle"), 1u);
}

TEST(WhatIf, ReproducesPaperArithmetic) {
  // Table III energies: 4.2, 238.6, 3.1, 3.6 kJ.
  fio::FioResult seq_read, rand_read, seq_write, rand_write;
  seq_read.full_system_energy = util::kilojoules(4.2);
  rand_read.full_system_energy = util::kilojoules(238.6);
  seq_write.full_system_energy = util::kilojoules(3.1);
  rand_write.full_system_energy = util::kilojoules(3.6);
  const ReorganizationWhatIf w =
      reorganization_whatif(seq_read, rand_read, seq_write, rand_write);
  EXPECT_NEAR(w.random_io_energy.value(), 242200.0, 1.0);
  EXPECT_NEAR(w.reorganized_energy.value(), 7300.0, 1.0);
  EXPECT_NEAR(w.insitu_savings().value(), 242200.0, 1.0);
  EXPECT_NEAR(w.reorganization_residual().value(), 7300.0, 1.0);
}

// ---------- advisor ----------

Advisor make_advisor() {
  return Advisor(machine::sandy_bridge_testbed(), power::hdd_power_params(),
                 util::Watts{103.0});
}

AccessPattern random_heavy() {
  AccessPattern p;
  p.accesses = 1u << 18;
  p.bytes_per_access = util::kibibytes(16);
  p.random_fraction = 1.0;
  p.read_fraction = 0.9;
  return p;
}

TEST(Advisor, RandomIoPredictedFarSlowerThanSequential) {
  const Advisor a = make_advisor();
  AccessPattern rnd = random_heavy();
  AccessPattern seq = rnd;
  seq.random_fraction = 0.0;
  EXPECT_GT(a.predict_io_time(rnd).value(),
            20.0 * a.predict_io_time(seq).value());
}

TEST(Advisor, RecommendsInSituWhenExplorationNotNeeded) {
  const Advisor a = make_advisor();
  AccessPattern p = random_heavy();
  p.exploratory_analysis_required = false;
  const Recommendation rec = a.recommend(p);
  EXPECT_EQ(rec.chosen.strategy, Strategy::kInSitu);
}

TEST(Advisor, RecommendsReorganizationWhenExplorationRequired) {
  const Advisor a = make_advisor();
  AccessPattern p = random_heavy();
  p.exploratory_analysis_required = true;
  const Recommendation rec = a.recommend(p);
  EXPECT_EQ(rec.chosen.strategy, Strategy::kDataReorganization);
  EXPECT_TRUE(rec.chosen.preserves_exploration);
}

TEST(Advisor, SequentialWorkloadGainsLittleFromReorganization) {
  const Advisor a = make_advisor();
  AccessPattern p = random_heavy();
  p.random_fraction = 0.0;
  const Recommendation rec = a.recommend(p);
  // Already sequential: reorganization cannot beat DVFS's static trim.
  EXPECT_EQ(rec.chosen.strategy, Strategy::kFrequencyScaling);
}

TEST(Advisor, EstimatesCoverAllStrategies) {
  const Advisor a = make_advisor();
  const Recommendation rec = a.recommend(random_heavy());
  EXPECT_EQ(rec.all.size(), 4u);
  for (const auto& e : rec.all) {
    EXPECT_FALSE(std::string(strategy_name(e.strategy)).empty());
  }
}

TEST(Advisor, RejectsFractionsOutsideUnitInterval) {
  const Advisor a = make_advisor();
  for (const double bad : {-3.0, 1.5, std::nan("")}) {
    AccessPattern reads = random_heavy();
    reads.read_fraction = bad;
    EXPECT_THROW((void)a.recommend(reads), util::ContractViolation) << bad;
    AccessPattern random = random_heavy();
    random.random_fraction = bad;
    EXPECT_THROW((void)a.recommend(random), util::ContractViolation) << bad;
  }
  AccessPattern edges = random_heavy();
  edges.read_fraction = 0.0;
  EXPECT_NO_THROW((void)a.recommend(edges));
  edges.read_fraction = 1.0;
  EXPECT_NO_THROW((void)a.recommend(edges));
}

// ---------- report ----------

TEST(Report, ContainsAllSectionsAndNumbers) {
  std::vector<StudyCase> cases;
  StudyCase c;
  c.post = fake_metrics("Traditional", 215.0, 134.0);
  c.insitu = fake_metrics("In-situ", 100.0, 145.0);
  cases.push_back(c);
  const std::string md = render_report(cases);
  EXPECT_NE(md.find("# Greenness audit"), std::string::npos);
  EXPECT_NE(md.find("## Summary"), std::string::npos);
  EXPECT_NE(md.find("## Case Study 1"), std::string::npos);
  EXPECT_NE(md.find("## Recommendation"), std::string::npos);
  EXPECT_NE(md.find("215.0"), std::string::npos);
  EXPECT_NE(md.find("avoided idle time"), std::string::npos);
}

TEST(Report, RecommendationDependsOnSavings) {
  StudyCase big;
  big.post = fake_metrics("Traditional", 200.0, 130.0);
  big.insitu = fake_metrics("In-situ", 80.0, 140.0);  // ~57% savings
  const std::string aggressive = render_report({big});
  EXPECT_NE(aggressive.find("pays substantially"), std::string::npos);

  StudyCase small;
  small.post = fake_metrics("Traditional", 200.0, 130.0);
  small.insitu = fake_metrics("In-situ", 180.0, 132.0);  // ~8% savings
  const std::string modest = render_report({small});
  EXPECT_NE(modest.find("modest"), std::string::npos);
}

TEST(Report, RejectsEmptyStudy) {
  EXPECT_THROW((void)render_report({}), util::ContractViolation);
}

}  // namespace
}  // namespace greenvis::analysis
