#include "src/core/cinema.hpp"

#include "src/core/pipeline.hpp"
#include "src/util/error.hpp"

namespace greenvis::core {

int cinema_key(int step, std::size_t view, std::size_t view_count) {
  GREENVIS_REQUIRE(view < view_count);
  return step * static_cast<int>(view_count) + static_cast<int>(view);
}

CinemaConfig CinemaConfig::orbit(std::size_t count, double elevation_deg) {
  GREENVIS_REQUIRE(count >= 1);
  CinemaConfig config;
  config.views.reserve(count);
  for (std::size_t v = 0; v < count; ++v) {
    vis::Camera cam;
    cam.azimuth_deg = 360.0 * static_cast<double>(v) /
                      static_cast<double>(count);
    cam.elevation_deg = elevation_deg;
    config.views.push_back(cam);
  }
  config.dataset.basename = "cinema";
  return config;
}

CinemaWriter::CinemaWriter(Testbed& bed, const CinemaConfig& config,
                           util::ThreadPool* pool)
    : bed_(&bed),
      config_(config),
      pool_(pool),
      writer_(bed.fs(), config.dataset) {
  GREENVIS_REQUIRE_MSG(!config_.views.empty(), "cinema needs views");
}

util::Bytes CinemaWriter::write_step(int step, const util::Field3D& field) {
  util::Bytes step_bytes{0};
  for (std::size_t v = 0; v < config_.views.size(); ++v) {
    vis::VolumeConfig volume = config_.volume;
    volume.camera = config_.views[v];
    const vis::Image image = vis::render_volume(field, volume, pool_);
    bed_->run_compute(vis::volume_render_activity(field, volume),
                      stage::kVisualization);
    const auto payload = image.serialize();
    step_bytes += util::Bytes{payload.size()};
    bed_->run_io(stage::kWrite, 3.0, 0.5, [&] {
      writer_.write_step(cinema_key(step, v, config_.views.size()), payload);
    });
    ++images_;
  }
  bytes_ += step_bytes;
  return step_bytes;
}

void CinemaWriter::finalize() {
  bed_->run_io(stage::kWrite, 3.0, 0.5, [&] {
    writer_.catalog().save(bed_->fs(), config_.dataset);
    bed_->fs().drop_caches();
  });
}

}  // namespace greenvis::core
