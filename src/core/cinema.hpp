// Cinema-style in-situ image databases (Ahrens et al. [12], the paper's
// co-authors' system: "An Image-based Approach to Extreme Scale in Situ
// Visualization and Analysis").
//
// The paper's central trade-off is in-situ's energy savings versus the loss
// of post-hoc exploration. Cinema splits the difference: render *many*
// pre-chosen views in situ and store the images — orders of magnitude
// smaller than raw 3-D fields — so an analyst can still browse camera
// angles after the run. The writer stores one image per (step, view) with a
// catalog for discovery; io::TimestepReader reads any of them back, byte for
// byte, under its cinema_key.
#pragma once

#include <vector>

#include "src/core/testbed.hpp"
#include "src/io/catalog.hpp"
#include "src/io/dataset.hpp"
#include "src/util/field3d.hpp"
#include "src/vis/volume.hpp"

namespace greenvis::core {

struct CinemaConfig {
  /// The view matrix: one rendered image per camera per visualized step.
  std::vector<vis::Camera> views;
  /// Rendering parameters shared by all views.
  vis::VolumeConfig volume{};
  io::DatasetConfig dataset{};

  /// An orbit of `count` azimuths at a fixed elevation — the standard
  /// Cinema camera sweep.
  static CinemaConfig orbit(std::size_t count, double elevation_deg = 25.0);
};

class CinemaWriter {
 public:
  CinemaWriter(Testbed& bed, const CinemaConfig& config,
               util::ThreadPool* pool);

  /// Render all views of `field` and persist them (charges the testbed for
  /// the renders and the writes). Returns bytes written for this step.
  util::Bytes write_step(int step, const util::Field3D& field);

  /// Persist the catalog (call once after the last step).
  void finalize();

  [[nodiscard]] std::size_t images_written() const { return images_; }
  [[nodiscard]] util::Bytes total_bytes() const { return bytes_; }

 private:
  Testbed* bed_;
  CinemaConfig config_;
  util::ThreadPool* pool_;
  io::TimestepWriter writer_;
  std::size_t images_{0};
  util::Bytes bytes_{0};
};

/// The dataset key under which (step, view) is stored.
[[nodiscard]] int cinema_key(int step, std::size_t view,
                             std::size_t view_count);

}  // namespace greenvis::core
