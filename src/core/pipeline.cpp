#include "src/core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "src/io/dataset.hpp"
#include "src/obs/registry.hpp"
#include "src/obs/tracer.hpp"
#include "src/sched/staging.hpp"
#include "src/util/error.hpp"
#include "src/vis/filters.hpp"

namespace greenvis::core {

const char* pipeline_kind_name(PipelineKind kind) {
  switch (kind) {
    case PipelineKind::kPostProcessing:
      return "Traditional";
    case PipelineKind::kPostProcessingAsync:
      return "Traditional (async)";
    case PipelineKind::kInSitu:
      return "In-situ";
  }
  return "?";
}

bool same_frames(const PipelineOutput& a, const PipelineOutput& b) {
  const auto complete = [](const PipelineOutput& out) {
    return out.image_digests.size() ==
           static_cast<std::size_t>(out.visualized_steps);
  };
  return complete(a) && complete(b) && a.image_digests == b.image_digests;
}

namespace {

/// Render one frame: real raster + modeled compute burst. `frame` is a
/// caller-owned buffer reused across steps (no per-frame image allocation).
void visualize_step(Testbed& bed, const vis::VisPipeline& pipeline,
                    const util::Field2D& field, PipelineOutput& out,
                    const PipelineOptions& options, vis::Image& frame) {
  obs::ScopedSpan span("stage.visualize", obs::kCatStage);
  pipeline.render_into(field, frame);
  bed.run_compute(pipeline.render_activity(), stage::kVisualization);
  if (options.frame_digests) {
    out.image_digests.push_back(frame.digest());
  }
  ++out.visualized_steps;
  if (options.keep_images) {
    out.images.push_back(frame);
  }
}

std::string pipeline_name(PipelineKind kind,
                          const SnapshotTransform& transform) {
  if (kind == PipelineKind::kInSitu) {
    return "In-situ";
  }
  std::string detail;
  if (const auto* sampling = std::get_if<Sampling>(&transform)) {
    detail = "sampled 1/" + std::to_string(sampling->stride);
  } else if (const auto* predictive = std::get_if<Predictive>(&transform)) {
    detail = predictive->error_bound == 0.0
                 ? "lossless compression"
                 : "lossy, eb=" + std::to_string(predictive->error_bound);
  }
  if (kind == PipelineKind::kPostProcessingAsync) {
    detail = detail.empty() ? "async staging" : "async staging, " + detail;
  }
  return detail.empty() ? "Post-processing"
                        : "Post-processing (" + detail + ")";
}

/// The codec `transform` encodes with. Sampling writes the plain
/// serialization (the raw codec) and the predictive transform's step is
/// twice its bound. Only runs that encode with config.snapshot_codec build
/// (and so validate) it; in-situ writes no snapshot and keeps the raw codec.
codec::CodecConfig codec_config(PipelineKind kind,
                                const CaseStudyConfig& config,
                                const SnapshotTransform& transform) {
  if (const auto* p = std::get_if<Predictive>(&transform)) {
    return {codec::Kind::kLorenzo, 2.0 * p->error_bound};
  }
  if (std::holds_alternative<Sampling>(transform) ||
      kind == PipelineKind::kInSitu) {
    return {};
  }
  return config.snapshot_codec;
}

/// One SnapshotTransform's write half (encode) and read half (decode), with
/// its byte and quality accounting. Host work only: the modeled compute
/// each encode and each decode costs is `cost()`.
class SnapshotCoder {
 public:
  SnapshotCoder(PipelineKind kind, const CaseStudyConfig& config,
                const SnapshotTransform& transform)
      : problem_(config.problem),
        sampling_(std::get_if<Sampling>(&transform)),
        predictive_(std::holds_alternative<Predictive>(transform)),
        codec_(codec_config(kind, config, transform)) {
    GREENVIS_REQUIRE(sampling_ == nullptr || sampling_->stride >= 1);
    // Per cell, the field codec's quantize + delta + pack is a handful of
    // ops and the predictive codec's predictor + quantize/unpack several
    // times that; either streams one read and one write of the field.
    // Sampling and the raw codec are free.
    const double cells = static_cast<double>(problem_.nx * problem_.ny);
    work_.flops = cells * (predictive_ ? 60.0 : 12.0);
    work_.active_cores = 1;
    work_.dram_bytes = util::Bytes{static_cast<std::uint64_t>(cells * 16)};
    if (codec_.active()) {
      cost_ = &work_;
    }
  }

  /// Modeled compute per encode and per decode; nullptr when free.
  [[nodiscard]] const machine::ActivityRecord* cost() const { return cost_; }

  /// Encode `field` into `payload`. The field codec reuses its own
  /// scratch, so its steady state performs zero heap allocations.
  void encode(const util::Field2D& field, std::vector<std::uint8_t>& payload,
              PipelineOutput& out) {
    // Lossy transforms keep the exact field so the reconstruction can be
    // scored on read (an analysis convenience — the testbed app would not
    // retain it).
    if (sampling_ != nullptr) {
      codec_.encode(vis::downsample(field, sampling_->stride), payload);
      truths_.push_back(field);
    } else {
      codec_.encode(field, payload);
    }
    if (predictive_) {
      ratio_sum_ += codec_.last_stats().ratio();
      truths_.push_back(field);
    }
    out.snapshot_bytes_written += util::Bytes{payload.size()};
    out.snapshot_bytes_raw += util::Bytes{field.serialized_bytes()};
  }

  /// Invert the transform and update `out`'s quality fields (running means
  /// over the steps read so far); the result stays valid until the next
  /// decode.
  const util::Field2D& decode(const std::vector<std::uint8_t>& payload,
                              PipelineOutput& out) {
    out.snapshot_bytes_read += util::Bytes{payload.size()};
    codec_.decode_into(payload, field_);
    if (sampling_ != nullptr) {
      if (sampling_->stride != 1) {
        field_ = vis::resample(field_, problem_.nx, problem_.ny);
      }
      error_sum_ += vis::rms_difference(field_, truths_[scored_++]);
      out.mean_rms_error = error_sum_ / static_cast<double>(scored_);
    } else if (predictive_) {
      const util::Field2D& truth = truths_[scored_++];
      for (std::size_t k = 0; k < field_.size(); ++k) {
        out.max_abs_error =
            std::max(out.max_abs_error,
                     std::abs(field_.values()[k] - truth.values()[k]));
      }
      out.mean_compression_ratio = ratio_sum_ / static_cast<double>(scored_);
    }
    return field_;
  }

 private:
  const heat::HeatProblem& problem_;
  const Sampling* sampling_;
  bool predictive_;
  codec::FieldCodec codec_;
  machine::ActivityRecord work_;
  const machine::ActivityRecord* cost_{nullptr};
  util::Field2D field_;
  std::vector<util::Field2D> truths_;
  std::size_t scored_{0};
  double error_sum_{0.0};
  double ratio_sum_{0.0};
};

}  // namespace

PipelineOutput run_pipeline(Testbed& bed, PipelineKind kind,
                            const CaseStudyConfig& config,
                            const PipelineOptions& options,
                            const SnapshotTransform& transform) {
  GREENVIS_REQUIRE_MSG(kind != PipelineKind::kInSitu ||
                           std::holds_alternative<ConfigCodec>(transform),
                       "in-situ writes no snapshots to transform");
  PipelineOutput out;
  out.pipeline_name = pipeline_name(kind, transform);
  util::ThreadPool pool(options.host_threads);
  heat::HeatSolver solver(config.problem, &pool);
  vis::VisPipeline vis_pipeline(config.vis, &pool);
  vis::Image frame;  // reused across visualize steps
  io::TimestepWriter writer(bed.fs(), config.dataset);
  const bool staged = kind == PipelineKind::kPostProcessingAsync;
  SnapshotCoder coder(kind, config, transform);
  std::vector<std::uint8_t> payload;

  // The staged data path overlaps simulate and write: the producer (this
  // thread) simulates and encodes along its private compute cursor `cpu`;
  // the stager's writer thread owns the shared clock, placing write k at
  // max(write k-1 end, snapshot k ready). Writer-side load/phase intervals
  // go to private sinks and are merged at the drain barrier, so the main
  // timelines see genuinely concurrent simulate/write activity.
  machine::LoadTimeline writer_loads;
  trace::Timeline writer_phases;
  std::optional<sched::AsyncStager> stager;
  if (staged) {
    stager.emplace(
        options.stage_buffers,
        [&](sched::StagedSnapshot& snap, util::Seconds start) {
          return bed.run_io_at(
              start, stage::kWrite, config.io_stage_cores,
              config.io_stage_utilization,
              [&] { writer.write_step(snap.step, snap.payload); },
              &writer_loads, &writer_phases);
        });
  }
  util::Seconds cpu = bed.clock().now();
  const auto simulation_compute = [&](const machine::ActivityRecord& work) {
    if (stager) {
      cpu = bed.run_compute_at(cpu, work, stage::kSimulation);
    } else {
      bed.run_compute(work, stage::kSimulation);
    }
  };

  // Phase 1: simulate; every io_period-th step is visualized in situ or
  // transformed and written to disk.
  for (int step = 0; step < config.iterations; ++step) {
    {
      obs::ScopedSpan span("stage.simulate", obs::kCatStage);
      solver.step();
      simulation_compute(solver.step_activity());
    }
    if (!config.is_io_step(step)) {
      continue;
    }
    if (kind == PipelineKind::kInSitu) {
      visualize_step(bed, vis_pipeline, solver.temperature(), out, options,
                     frame);
    } else if (stager) {
      sched::AsyncStager::Slot slot = stager->acquire();
      if (slot.freed_at > cpu) {
        // Backpressure: the ring was still draining past our cursor. The
        // producer busy-waits like an I/O region until the slot's write
        // ends.
        bed.record_stall(stage::kWrite, cpu, slot.freed_at,
                         config.io_stage_cores, config.io_stage_utilization);
        cpu = slot.freed_at;
        if (obs::enabled()) {
          static obs::Counter& stalls =
              obs::Registry::global().counter("sched.virtual_stalls");
          stalls.add(1);
        }
      }
      // Each slot owns the payload its encode fills.
      sched::StagedSnapshot& snap = *slot.snapshot;
      {
        obs::ScopedSpan span("sched.encode", obs::kCatStage);
        coder.encode(solver.temperature(), snap.payload, out);
      }
      if (const machine::ActivityRecord* work = coder.cost()) {
        simulation_compute(*work);
      }
      snap.step = step;
      snap.raw_bytes = solver.temperature().serialized_bytes();
      stager->submit(cpu);
    } else {
      coder.encode(solver.temperature(), payload, out);
      if (const machine::ActivityRecord* work = coder.cost()) {
        simulation_compute(*work);
      }
      bed.run_io(stage::kWrite, config.io_stage_cores,
                 config.io_stage_utilization,
                 [&] { writer.write_step(step, payload); });
    }
  }
  out.steps = config.iterations;
  out.final_field = solver.temperature();
  if (kind == PipelineKind::kInSitu) {
    return out;
  }

  if (stager) {
    // Drain barrier: everything staged is on disk; both tracks join and the
    // shared clock lands at the later of compute-end and write-end.
    cpu = std::max(cpu, stager->drain());
    if (cpu > bed.clock().now()) {
      bed.clock().advance_to(cpu);
    }
    bed.loads().merge(writer_loads);
    for (const auto& iv : writer_phases.intervals()) {
      bed.phases().record(iv.category, iv.begin, iv.end);
    }
  }

  // Between phases: sync and drop the caches (Sec. IV-C) so the read phase
  // really hits the disk.
  bed.run_io(stage::kWrite, config.io_stage_cores,
             config.io_stage_utilization, [&] { bed.fs().drop_caches(); });

  // Phase 2: read each written step back, invert the transform, visualize.
  io::TimestepReader reader(bed.fs(), config.dataset);
  for (int step = 0; step < config.iterations; ++step) {
    if (!config.is_io_step(step)) {
      continue;
    }
    bed.run_io(stage::kRead, config.io_stage_cores,
               config.io_stage_utilization,
               [&] { payload = reader.read_step(step); });
    const util::Field2D& field = coder.decode(payload, out);
    if (const machine::ActivityRecord* work = coder.cost()) {
      bed.run_compute(*work, stage::kRead);
    }
    visualize_step(bed, vis_pipeline, field, out, options, frame);
  }
  return out;
}

}  // namespace greenvis::core
