#include "src/core/experiment.hpp"

#include <cmath>

#include "src/io/dataset.hpp"
#include "src/obs/tracer.hpp"
#include "src/util/error.hpp"

namespace greenvis::core {

PipelineMetrics Experiment::run(PipelineKind kind,
                                const CaseStudyConfig& config,
                                const PipelineOptions& options) const {
  obs::ScopedSpan span("experiment:", config.name, obs::kCatCore);
  if (obs::enabled()) {
    static obs::Counter& runs =
        obs::Registry::global().counter("core.experiment_runs");
    runs.add(1);
  }
  Testbed bed(base_);
  PipelineMetrics m;
  m.output = run_pipeline(bed, kind, config, options);
  m.pipeline_name = m.output.pipeline_name;
  m.case_name = config.name;
  m.duration = bed.clock().now();
  m.timeline = bed.phases();
  m.trace = bed.profile();
  m.energy = m.trace.energy(&power::PowerSample::system);
  m.average_power = m.trace.average(&power::PowerSample::system);
  m.peak_power = m.trace.peak(&power::PowerSample::system);
  const double cells = static_cast<double>((config.problem.nx - 2) *
                                           (config.problem.ny - 2));
  const double work = cells * static_cast<double>(config.iterations);
  m.efficiency = work / m.energy.value();
  m.attribution = obs::EnergyAttributor(bed.power_model())
                      .attribute(m.timeline, bed.loads(),
                                 bed.device().activity(), m.duration);
  if (obs::energy_profiler_enabled()) {
    obs::publish_energy_profile(
        m.attribution,
        obs::rail_power_series(bed.loads(), bed.device().activity(),
                               bed.power_model(), m.duration));
  }
  return m;
}

namespace {

StageRun measure_window(const power::PowerModel& model, std::string name,
                        util::Seconds t0, util::Seconds t1,
                        const power::PowerTrace& full) {
  StageRun run;
  run.name = std::move(name);
  run.duration = t1 - t0;
  run.trace = full.slice(t0, t1);
  run.average_power = run.trace.average(&power::PowerSample::system);
  run.average_dynamic_power =
      run.average_power - model.idle_system_power();
  return run;
}

}  // namespace

StageRun Experiment::run_write_stage(const CaseStudyConfig& config,
                                     int steps) const {
  GREENVIS_REQUIRE(steps >= 1);
  Testbed bed(base_);
  util::ThreadPool pool(1);
  heat::HeatSolver solver(config.problem, &pool);
  solver.step();  // something physical to write
  const auto payload = solver.temperature().serialize();

  // Align the measured window to whole sampling seconds.
  bed.clock().advance_to(util::Seconds{std::ceil(bed.clock().now().value())});
  const util::Seconds t0 = bed.clock().now();

  io::TimestepWriter writer(bed.fs(), config.dataset);
  for (int s = 0; s < steps; ++s) {
    bed.run_io(stage::kWrite, config.io_stage_cores,
               config.io_stage_utilization,
               [&] { writer.write_step(s, payload); });
  }
  const util::Seconds t1 = bed.clock().now();
  return measure_window(bed.power_model(), "nnwrite", t0, t1,
                        bed.profile());
}

StageRun Experiment::run_read_stage(const CaseStudyConfig& config,
                                    int steps) const {
  GREENVIS_REQUIRE(steps >= 1);
  Testbed bed(base_);
  util::ThreadPool pool(1);
  heat::HeatSolver solver(config.problem, &pool);
  solver.step();
  const auto payload = solver.temperature().serialize();

  // Preparation (unmeasured): write the dataset, then flush everything out
  // of the caches so the reads are cold.
  {
    io::TimestepWriter writer(bed.fs(), config.dataset);
    for (int s = 0; s < steps; ++s) {
      writer.write_step(s, payload);
    }
    bed.fs().drop_caches();
  }
  bed.clock().advance_to(util::Seconds{std::ceil(bed.clock().now().value())});
  const util::Seconds t0 = bed.clock().now();

  io::TimestepReader reader(bed.fs(), config.dataset);
  for (int s = 0; s < steps; ++s) {
    bed.run_io(stage::kRead, config.io_stage_cores,
               config.io_stage_utilization,
               [&] { (void)reader.read_step(s); });
  }
  const util::Seconds t1 = bed.clock().now();
  return measure_window(bed.power_model(), "nnread", t0, t1,
                        bed.profile());
}

}  // namespace greenvis::core
