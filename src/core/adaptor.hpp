// In-situ coprocessing adaptor.
//
// The ParaView/VisIt coupling libraries the paper surveys ([15], [16])
// expose in-situ processing as an *adaptor*: the simulation hands each
// timestep to the adaptor, and triggers decide whether this step is worth
// rendering. The periodic trigger reproduces the paper's every-k-th-step
// configurations; the change trigger implements "importance-driven" triage
// (Wang, Yu & Ma [23]) — render only when the field has moved, saving
// visualization energy on quiescent stretches.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/testbed.hpp"
#include "src/util/field.hpp"
#include "src/vis/pipeline.hpp"

namespace greenvis::core {

/// Decides whether a timestep gets visualized. Triggers may keep state
/// (e.g. the last rendered field).
class Trigger {
 public:
  virtual ~Trigger() = default;
  [[nodiscard]] virtual bool fires(int step, const util::Field2D& field) = 0;
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Every k-th step (the paper's case-study schedule).
class PeriodicTrigger final : public Trigger {
 public:
  explicit PeriodicTrigger(int period);
  [[nodiscard]] bool fires(int step, const util::Field2D& field) override;
  [[nodiscard]] std::string describe() const override;

 private:
  int period_;
};

/// Fires when the field has drifted at least `min_rms` (RMS) from the last
/// *rendered* field — importance-driven triage: quiescent stretches render
/// nothing, transients render densely. Always fires on the first step.
class ChangeTrigger final : public Trigger {
 public:
  explicit ChangeTrigger(double min_rms);
  [[nodiscard]] bool fires(int step, const util::Field2D& field) override;
  [[nodiscard]] std::string describe() const override;

 private:
  double min_rms_;
  std::optional<util::Field2D> last_rendered_;
};

/// The adaptor: owns the render pipeline and a trigger set (any-of). The
/// evaluation cost of data-dependent triggers is charged to the testbed
/// (one pass over the field).
class InSituAdaptor {
 public:
  InSituAdaptor(Testbed& bed, const vis::VisConfig& vis_config,
                util::ThreadPool* pool);

  void add_trigger(std::unique_ptr<Trigger> trigger);

  /// Offer one timestep; renders (and charges the testbed) when any trigger
  /// fires. Returns whether the step was rendered.
  bool process(int step, const util::Field2D& field);

  [[nodiscard]] int steps_offered() const { return offered_; }
  [[nodiscard]] int steps_rendered() const { return rendered_; }

 private:
  Testbed* bed_;
  vis::VisPipeline pipeline_;
  std::vector<std::unique_ptr<Trigger>> triggers_;
  int offered_{0};
  int rendered_{0};
};

}  // namespace greenvis::core
