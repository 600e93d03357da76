#include "src/serve/session.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <memory>
#include <ostream>

#include "src/machine/activity.hpp"

#include "src/core/pipeline.hpp"
#include "src/heat/solver.hpp"
#include "src/obs/json.hpp"
#include "src/obs/registry.hpp"
#include "src/obs/tracer.hpp"
#include "src/sched/staging.hpp"
#include "src/util/error.hpp"
#include "src/util/sharded.hpp"
#include "src/util/thread_pool.hpp"

namespace greenvis::serve {

namespace {

/// CPU footprint of the delivery path (NIC driver + protocol stack).
constexpr double kDeliveryCores = 1.0;
constexpr double kDeliveryUtilization = 0.35;

/// Modeled cost of encoding one frame for the wire (pack + frame checksum:
/// a handful of ops per pixel, one streaming read of the framebuffer and
/// one write of the payload).
machine::ActivityRecord encode_activity(const ViewParams& params) {
  const double pixels =
      static_cast<double>(params.width) * static_cast<double>(params.height);
  machine::ActivityRecord a;
  a.flops = pixels * 24.0;
  a.active_cores = 1;
  a.dram_bytes = util::Bytes{static_cast<std::uint64_t>(pixels * 6.0)};
  return a;
}

/// A unique view's host-side state: its renderer (which keeps the per-view
/// contour scratch), its cropped region of interest and a frame buffer,
/// both reused across steps.
struct ViewPipe {
  std::unique_ptr<vis::VisPipeline> pipe;
  util::Field2D roi;
  vis::Image frame;
  // Digest of `frame`, computed once per render and reused by every sharing viewer's delivery — hashing the same pixels
  // once per viewer would scale with the fleet, not with unique views.
  std::uint64_t frame_digest{0};
};

/// All viewers sharing one frame key this step.
struct Group {
  ViewParams params{};
  std::vector<int> viewers;  // ascending (built in id order)
  ViewPipe* pipe{nullptr};
};

}  // namespace

ServeReport run_serve_session(const ServeConfig& config,
                              const core::TestbedConfig& bed_config) {
  obs::ScopedSpan session_span("serve.session", obs::kCatServe);
  GREENVIS_REQUIRE(!config.viewers.empty());
  GREENVIS_REQUIRE(config.delivery_buffers >= 1);
  GREENVIS_REQUIRE(config.delivery_mb_per_s > 0.0);

  // Schedules sorted by viewer id (ids must be unique): every per-step scan
  // below walks this order, so deliveries come out (step, viewer)-sorted.
  std::vector<ViewerSchedule> fleet = config.viewers;
  std::sort(fleet.begin(), fleet.end(),
            [](const ViewerSchedule& a, const ViewerSchedule& b) {
              return a.viewer < b.viewer;
            });
  for (std::size_t i = 1; i < fleet.size(); ++i) {
    GREENVIS_REQUIRE(fleet[i - 1].viewer < fleet[i].viewer);
  }
  // Commands in virtual-time order; stable sort keeps list order within a
  // step (the documented tie-break).
  std::vector<SteerCommand> commands = config.commands;
  std::stable_sort(commands.begin(), commands.end(),
                   [](const SteerCommand& a, const SteerCommand& b) {
                     return a.step < b.step;
                   });

  core::Testbed bed(bed_config);
  util::ThreadPool pool(config.host_threads);
  heat::HeatSolver solver(config.base.problem, &pool);

  // Per-viewer steerable state and report rows.
  std::map<int, ViewParams> params_of;
  std::map<int, std::size_t> row_of;
  ServeReport report;
  report.name = "Serve: " + config.base.name;
  for (const ViewerSchedule& sched : fleet) {
    params_of[sched.viewer] = sched.params;
    row_of[sched.viewer] = report.viewers.size();
    report.viewers.push_back(ViewerEnergy{.viewer = sched.viewer});
  }

  // One renderer + frame buffer per unique view, created on demand and
  // reused across steps (keyed by the canonical view text). Renderers are serial (null pool): they run inside run_sharded jobs, and
  // pool bodies must not dispatch on the same pool — the parallelism here
  // is across views, not within one raster.
  std::map<std::string, ViewPipe> view_pipes;
  const auto pipe_for = [&](const ViewParams& p) -> ViewPipe& {
    ViewPipe& vp = view_pipes[canonical_view_text(p)];
    if (!vp.pipe) {
      vp.pipe = std::make_unique<vis::VisPipeline>(
          vis_config_for(p, config.base.vis), nullptr);
    }
    return vp;
  };
  // Delivery ring: the writer thread owns the shared clock and models the
  // egress link (payload bytes over the configured link rate), chaining
  // transfers exactly like the async staging pipeline chains disk writes.
  // Its load/phase intervals go to private sinks, merged at the drain
  // barrier.
  machine::LoadTimeline writer_loads;
  trace::Timeline writer_phases;
  sched::AsyncStager stager(
      config.delivery_buffers,
      [&](sched::StagedSnapshot& snap, util::Seconds start) {
        const util::Seconds transfer{
            static_cast<double>(snap.payload.size()) /
            (config.delivery_mb_per_s * 1e6)};
        return bed.run_io_at(
            start, stage::kDeliver, kDeliveryCores, kDeliveryUtilization,
            [&] { bed.clock().advance(transfer); }, &writer_loads,
            &writer_phases);
      });

  const double bytes_per_second = config.delivery_mb_per_s * 1e6;
  util::Seconds cpu = bed.clock().now();
  std::size_t next_command = 0;
  std::vector<Group*> to_render;  // key-sorted groups

  for (int step = 0; step < config.base.iterations; ++step) {
    // Steering applies between timesteps: every command scheduled at or
    // before this step lands before the step's frame renders.
    while (next_command < commands.size() &&
           commands[next_command].step <= step) {
      const SteerCommand& cmd = commands[next_command++];
      const auto it = params_of.find(cmd.viewer);
      if (it != params_of.end()) {
        it->second = apply_steer(it->second, cmd);
      }
    }

    {
      obs::ScopedSpan span("stage.simulate", obs::kCatStage);
      solver.step();
      cpu = bed.run_compute_at(cpu, solver.step_activity(),
                               core::stage::kSimulation);
    }
    if (!config.base.is_io_step(step)) {
      continue;
    }

    obs::ScopedSpan frame_span("serve.frame_step", obs::kCatServe);
    const util::Field2D& field = solver.temperature();
    const std::uint64_t digest = field_digest(field);

    // Group active viewers by frame key (map = deterministic key order).
    std::map<std::uint64_t, Group> groups;
    for (const ViewerSchedule& sched : fleet) {
      if (!sched.active_at(step)) {
        continue;
      }
      const ViewParams& p = params_of[sched.viewer];
      Group& g = groups[frame_key(step, digest, p)];
      if (g.viewers.empty()) {
        g.params = p;
        g.pipe = &pipe_for(p);
      }
      g.viewers.push_back(sched.viewer);
    }
    if (groups.empty()) {
      continue;
    }
    ++report.frame_steps;

    // Host rendering: every unique view once, as one work-stealing batch.
    to_render.clear();
    for (auto& [key, group] : groups) {
      to_render.push_back(&group);
    }
    util::ShardedOptions opts;
    opts.span_name = "serve.render_batch";
    util::run_sharded(
        pool, to_render.size(),
        [&](std::size_t i) {
          Group& g = *to_render[i];
          render_view(g.params, field, *g.pipe->pipe, g.pipe->roi,
                      g.pipe->frame);
          g.pipe->frame_digest = g.pipe->frame.digest();
        },
        opts);
    report.host_renders += to_render.size();

    // Virtual render cost: ONE burst per unique view, in key order. Each of
    // the k sharing viewers is billed 1/k of the group's render time.
    for (const Group* group : to_render) {
      const util::Seconds end = bed.run_compute_at(
          cpu, group->pipe->pipe->render_activity(), core::stage::kVisualization);
      const double share = (end - cpu).value() /
                           static_cast<double>(group->viewers.size());
      cpu = end;
      for (const int viewer : group->viewers) {
        report.viewers[row_of[viewer]].render_share_s += share;
      }
    }

    // Fan-out: encode + submit one delivery per active viewer, id order.
    for (const ViewerSchedule& sched : fleet) {
      if (!sched.active_at(step)) {
        continue;
      }
      const int viewer = sched.viewer;
      const ViewParams& p = params_of[viewer];
      const std::uint64_t key = frame_key(step, digest, p);
      const ViewPipe& view = *groups.at(key).pipe;

      sched::AsyncStager::Slot slot = stager.acquire();
      if (slot.freed_at > cpu) {
        bed.record_stall(stage::kDeliver, cpu, slot.freed_at, kDeliveryCores,
                         kDeliveryUtilization);
        cpu = slot.freed_at;
        if (obs::enabled()) {
          static obs::Counter& stalls =
              obs::Registry::global().counter("serve.virtual_stalls");
          stalls.add(1);
        }
      }
      sched::StagedSnapshot& snap = *slot.snapshot;
      {
        obs::ScopedSpan span("serve.encode", obs::kCatServe);
        snap.payload = view.frame.serialize();
      }
      snap.step = step;
      snap.tag = static_cast<std::uint64_t>(viewer);
      snap.raw_bytes = snap.payload.size();
      const std::uint64_t bytes = snap.payload.size();

      const util::Seconds encode_end =
          bed.run_compute_at(cpu, encode_activity(p), stage::kEncode);
      ViewerEnergy& row = report.viewers[row_of[viewer]];
      row.encode_s += (encode_end - cpu).value();
      row.deliver_s += static_cast<double>(bytes) / bytes_per_second;
      row.bytes += bytes;
      ++row.frames;
      cpu = encode_end;

      report.deliveries.push_back(Delivery{.step = step,
                                           .viewer = viewer,
                                           .key = key,
                                           .digest = view.frame_digest,
                                           .bytes = bytes});
      ++report.frames_delivered;
      stager.submit(cpu);
    }
  }

  report.final_field_digest = field_digest(solver.temperature());

  // Drain barrier: both tracks join, the shared clock lands at the later of
  // compute-end and delivery-end, writer timelines merge into the main ones.
  const util::Seconds io_end = stager.drain();
  cpu = std::max(cpu, io_end);
  if (cpu > bed.clock().now()) {
    bed.clock().advance_to(cpu);
  }
  bed.loads().merge(writer_loads);
  for (const auto& iv : writer_phases.intervals()) {
    bed.phases().record(iv.category, iv.begin, iv.end);
  }

  // Session measurement + attribution (same recipe as core::Experiment).
  report.duration = bed.clock().now();
  const power::PowerTrace trace = bed.profile();
  report.energy = trace.energy(&power::PowerSample::system);
  report.average_power = trace.average(&power::PowerSample::system);
  report.peak_power = trace.peak(&power::PowerSample::system);
  report.attribution = obs::EnergyAttributor(bed.power_model())
                           .attribute(bed.phases(), bed.loads(),
                                      bed.device().activity(), report.duration);
  if (obs::energy_profiler_enabled()) {
    obs::publish_energy_profile(
        report.attribution,
        obs::rail_power_series(bed.loads(), bed.device().activity(),
                               bed.power_model(), report.duration));
  }
  report.cache.misses = report.host_renders;
  report.cache.hits = report.frames_delivered - report.host_renders;

  // Split the bill: render joules by shared-render seconds, encode joules
  // by encode seconds, delivery joules by bytes; everything else —
  // simulation, stalls' compute share, the static/idle floor — is the
  // shared session cost no single viewer owns.
  const obs::StageEnergy* vis_stage =
      report.attribution.stage(core::stage::kVisualization);
  const obs::StageEnergy* enc_stage = report.attribution.stage(stage::kEncode);
  const obs::StageEnergy* del_stage = report.attribution.stage(stage::kDeliver);
  const double vis_j = vis_stage ? vis_stage->total().value() : 0.0;
  const double enc_j = enc_stage ? enc_stage->total().value() : 0.0;
  const double del_j = del_stage ? del_stage->total().value() : 0.0;
  double render_s_total = 0.0;
  double encode_s_total = 0.0;
  double bytes_total = 0.0;
  for (const ViewerEnergy& row : report.viewers) {
    render_s_total += row.render_share_s;
    encode_s_total += row.encode_s;
    bytes_total += static_cast<double>(row.bytes);
  }
  for (ViewerEnergy& row : report.viewers) {
    row.render_j =
        render_s_total > 0.0 ? vis_j * row.render_share_s / render_s_total : 0.0;
    row.encode_j =
        encode_s_total > 0.0 ? enc_j * row.encode_s / encode_s_total : 0.0;
    row.deliver_j = bytes_total > 0.0
                        ? del_j * static_cast<double>(row.bytes) / bytes_total
                        : 0.0;
  }
  report.shared_j = report.energy.value() - vis_j - enc_j - del_j;
  return report;
}

ServeConfig solo_config(const ServeConfig& config,
                        const ViewerSchedule& viewer) {
  ServeConfig solo = config;
  solo.viewers.assign(1, viewer);
  solo.commands.clear();
  for (const SteerCommand& cmd : config.commands) {
    if (cmd.viewer == viewer.viewer) {
      solo.commands.push_back(cmd);
    }
  }
  return solo;
}

ServeReport run_serve_with_baseline(const ServeConfig& config,
                                    const core::TestbedConfig& bed_config) {
  ServeReport full = run_serve_session(config, bed_config);
  const std::size_t n = config.viewers.size();
  if (n <= 1) {
    full.single_viewer_j = full.energy.value();
    return full;
  }
  // The marginal cost of a viewer: same simulation, same steering, but only
  // the first subscriber — (E_N - E_1) / (N - 1).
  const ServeReport base = run_serve_session(
      solo_config(config, config.viewers.front()), bed_config);
  full.single_viewer_j = base.energy.value();
  full.marginal_j_per_viewer =
      (full.energy.value() - base.energy.value()) / static_cast<double>(n - 1);
  return full;
}

namespace {

void json_double(std::ostream& os, double v) {
  os << std::setprecision(17) << v;
}

}  // namespace

void write_serve_profile_json(std::ostream& os, const ServeConfig& config,
                              const ServeReport& report) {
  os << "{\n  \"schema\": \"greenvis.serve_profile.v1\",\n  \"case\": ";
  obs::detail::write_json_string(os, config.base.name);
  os << ",\n  \"viewers\": " << config.viewers.size()
     // These keys stay for the v1 schema: "cache_enabled" is always true,
     // the cache block's insertions equal its misses (the renders) and its
     // evictions are 0, and "unique_views_rendered" equals "host_renders".
     << ",\n  \"cache_enabled\": true"
     << ",\n  \"frame_steps\": " << report.frame_steps
     << ",\n  \"duration_s\": ";
  json_double(os, report.duration.value());
  os << ",\n  \"energy_j\": ";
  json_double(os, report.energy.value());
  os << ",\n  \"average_power_w\": ";
  json_double(os, report.average_power.value());
  os << ",\n  \"peak_power_w\": ";
  json_double(os, report.peak_power.value());
  os << ",\n  \"cache\": {\"hits\": " << report.cache.hits
     << ", \"misses\": " << report.cache.misses
     << ", \"insertions\": " << report.cache.misses
     << ", \"evictions\": 0}"
     << ",\n  \"host_renders\": " << report.host_renders
     << ",\n  \"unique_views_rendered\": " << report.host_renders
     << ",\n  \"frames_delivered\": " << report.frames_delivered
     << ",\n  \"shared_j\": ";
  json_double(os, report.shared_j);
  os << ",\n  \"single_viewer_j\": ";
  json_double(os, report.single_viewer_j);
  os << ",\n  \"marginal_j_per_viewer\": ";
  json_double(os, report.marginal_j_per_viewer);
  os << ",\n  \"per_viewer\": [\n";
  for (std::size_t i = 0; i < report.viewers.size(); ++i) {
    const ViewerEnergy& row = report.viewers[i];
    os << "    {\"viewer\": " << row.viewer << ", \"frames\": " << row.frames
       << ", \"bytes\": " << row.bytes << ", \"render_share_s\": ";
    json_double(os, row.render_share_s);
    os << ", \"encode_s\": ";
    json_double(os, row.encode_s);
    os << ", \"deliver_s\": ";
    json_double(os, row.deliver_s);
    os << ", \"render_j\": ";
    json_double(os, row.render_j);
    os << ", \"encode_j\": ";
    json_double(os, row.encode_j);
    os << ", \"deliver_j\": ";
    json_double(os, row.deliver_j);
    os << ", \"total_j\": ";
    json_double(os, row.total_j());
    os << "}" << (i + 1 < report.viewers.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace greenvis::serve
