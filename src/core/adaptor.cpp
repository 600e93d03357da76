#include "src/core/adaptor.hpp"

#include "src/core/pipeline.hpp"
#include "src/util/error.hpp"
#include "src/vis/filters.hpp"

namespace greenvis::core {

PeriodicTrigger::PeriodicTrigger(int period) : period_(period) {
  GREENVIS_REQUIRE(period >= 1);
}

bool PeriodicTrigger::fires(int step, const util::Field2D& field) {
  (void)field;
  return step % period_ == 0;
}

std::string PeriodicTrigger::describe() const {
  return "every " + std::to_string(period_) + " steps";
}

ChangeTrigger::ChangeTrigger(double min_rms) : min_rms_(min_rms) {
  GREENVIS_REQUIRE(min_rms >= 0.0);
}

bool ChangeTrigger::fires(int step, const util::Field2D& field) {
  (void)step;
  if (!last_rendered_.has_value()) {
    last_rendered_ = field;
    return true;
  }
  if (vis::rms_difference(field, *last_rendered_) >= min_rms_) {
    last_rendered_ = field;
    return true;
  }
  return false;
}

std::string ChangeTrigger::describe() const {
  return "RMS drift >= " + std::to_string(min_rms_);
}

InSituAdaptor::InSituAdaptor(Testbed& bed, const vis::VisConfig& vis_config,
                             util::ThreadPool* pool)
    : bed_(&bed), pipeline_(vis_config, pool) {}

void InSituAdaptor::add_trigger(std::unique_ptr<Trigger> trigger) {
  GREENVIS_REQUIRE(trigger != nullptr);
  triggers_.push_back(std::move(trigger));
}

bool InSituAdaptor::process(int step, const util::Field2D& field) {
  GREENVIS_REQUIRE_MSG(!triggers_.empty(), "adaptor has no triggers");
  ++offered_;

  // Trigger evaluation itself costs one pass over the field per
  // data-dependent trigger — a cheap in-situ analysis.
  machine::ActivityRecord probe;
  probe.flops = static_cast<double>(field.size()) *
                static_cast<double>(triggers_.size()) * 2.0;
  probe.active_cores = 1;
  bed_->run_compute(probe, stage::kVisualization);

  bool fire = false;
  for (const auto& trigger : triggers_) {
    if (trigger->fires(step, field)) {
      fire = true;
      // Keep evaluating: stateful triggers must observe every step they
      // would have fired on.
    }
  }
  if (!fire) {
    return false;
  }
  (void)pipeline_.render(field);
  bed_->run_compute(pipeline_.render_activity(), stage::kVisualization);
  ++rendered_;
  return true;
}

}  // namespace greenvis::core
