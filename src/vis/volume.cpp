#include "src/vis/volume.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "src/util/error.hpp"
#include "src/util/simd/simd.hpp"

namespace greenvis::vis {

namespace {

struct Vec3 {
  double x, y, z;
};

Vec3 operator+(Vec3 a, Vec3 b) { return {a.x + b.x, a.y + b.y, a.z + b.z}; }
Vec3 operator-(Vec3 a, Vec3 b) { return {a.x - b.x, a.y - b.y, a.z - b.z}; }
Vec3 operator*(Vec3 a, double s) { return {a.x * s, a.y * s, a.z * s}; }

Vec3 cross(Vec3 a, Vec3 b) {
  return {a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z,
          a.x * b.y - a.y * b.x};
}

double norm(Vec3 a) { return std::sqrt(a.x * a.x + a.y * a.y + a.z * a.z); }

Vec3 normalized(Vec3 a) {
  const double n = norm(a);
  GREENVIS_REQUIRE(n > 0.0);
  return a * (1.0 / n);
}

/// Slab intersection of a ray with the axis-aligned box [0, ext]; returns
/// false when the ray misses.
bool intersect_box(Vec3 origin, Vec3 dir, Vec3 ext, double& t_enter,
                   double& t_exit) {
  t_enter = 0.0;
  t_exit = std::numeric_limits<double>::infinity();
  const double o[3] = {origin.x, origin.y, origin.z};
  const double d[3] = {dir.x, dir.y, dir.z};
  const double e[3] = {ext.x, ext.y, ext.z};
  for (int axis = 0; axis < 3; ++axis) {
    if (std::abs(d[axis]) < 1e-12) {
      if (o[axis] < 0.0 || o[axis] > e[axis]) {
        return false;
      }
      continue;
    }
    double t0 = (0.0 - o[axis]) / d[axis];
    double t1 = (e[axis] - o[axis]) / d[axis];
    if (t0 > t1) {
      std::swap(t0, t1);
    }
    t_enter = std::max(t_enter, t0);
    t_exit = std::min(t_exit, t1);
  }
  return t_enter < t_exit;
}

}  // namespace

double TransferFunction::intensity(double v) const {
  if (hi <= lo) {
    return 0.0;
  }
  return std::clamp((v - lo) / (hi - lo), 0.0, 1.0);
}

double TransferFunction::opacity(double v, double step) const {
  const double t = intensity(v);
  const double per_length = opacity_scale * std::pow(t, gamma);
  return std::clamp(per_length * step, 0.0, 1.0);
}

double trilinear_sample(const util::Field3D& field, double x, double y,
                        double z) {
  const double mx = static_cast<double>(field.nx() - 1);
  const double my = static_cast<double>(field.ny() - 1);
  const double mz = static_cast<double>(field.nz() - 1);
  x = std::clamp(x, 0.0, mx);
  y = std::clamp(y, 0.0, my);
  z = std::clamp(z, 0.0, mz);
  const auto i0 = static_cast<std::size_t>(x);
  const auto j0 = static_cast<std::size_t>(y);
  const auto k0 = static_cast<std::size_t>(z);
  const std::size_t i1 = std::min(i0 + 1, field.nx() - 1);
  const std::size_t j1 = std::min(j0 + 1, field.ny() - 1);
  const std::size_t k1 = std::min(k0 + 1, field.nz() - 1);
  const double fx = x - static_cast<double>(i0);
  const double fy = y - static_cast<double>(j0);
  const double fz = z - static_cast<double>(k0);

  auto lerp = [](double a, double b, double t) { return a + (b - a) * t; };
  const double c00 = lerp(field.at(i0, j0, k0), field.at(i1, j0, k0), fx);
  const double c10 = lerp(field.at(i0, j1, k0), field.at(i1, j1, k0), fx);
  const double c01 = lerp(field.at(i0, j0, k1), field.at(i1, j0, k1), fx);
  const double c11 = lerp(field.at(i0, j1, k1), field.at(i1, j1, k1), fx);
  return lerp(lerp(c00, c10, fy), lerp(c01, c11, fy), fz);
}

Image render_volume(const util::Field3D& field, const VolumeConfig& config,
                    util::ThreadPool* pool) {
  GREENVIS_REQUIRE(config.width > 0 && config.height > 0);
  GREENVIS_REQUIRE(config.step > 0.0);
  GREENVIS_REQUIRE(config.camera.zoom > 0.0);

  const Vec3 ext{static_cast<double>(field.nx() - 1),
                 static_cast<double>(field.ny() - 1),
                 static_cast<double>(field.nz() - 1)};
  const Vec3 center = ext * 0.5;
  const double radius = 0.5 * norm(ext);

  const double az = config.camera.azimuth_deg * std::numbers::pi / 180.0;
  const double el = config.camera.elevation_deg * std::numbers::pi / 180.0;
  // View direction: from the camera toward the center.
  const Vec3 dir = normalized(
      Vec3{-std::cos(el) * std::cos(az), -std::cos(el) * std::sin(az),
           -std::sin(el)});
  const Vec3 world_up{0.0, 0.0, 1.0};
  Vec3 right = cross(dir, world_up);
  if (norm(right) < 1e-9) {
    right = Vec3{1.0, 0.0, 0.0};
  }
  right = normalized(right);
  const Vec3 up = cross(right, dir);

  const double half_extent = radius / config.camera.zoom;
  Image image(config.width, config.height, config.background);

  const util::simd::KernelTable& kern = util::simd::kernels();
  const double* fdata = field.values().data();
  const std::size_t fnx = field.nx(), fny = field.ny(), fnz = field.nz();

  // The compositing kernel reads the colormap's own SoA stop arrays.
  const ColorMap::Flat stops = config.tf.color.flat();
  const util::simd::CompositeTf ctf{
      config.tf.lo, config.tf.hi, config.tf.opacity_scale, config.tf.gamma,
      stops.pos,    stops.r,      stops.g,                 stops.b,
      stops.count};

  auto rows = [&](std::size_t y_begin, std::size_t y_end) {
    // Sample positions are generated in blocks of 8 so both the trilinear
    // interpolation and the front-to-back compositing run through the
    // vector kernels. Samples precomputed past the early-termination point
    // are discarded, so the pixels are bit-identical to the
    // one-sample-at-a-time loop.
    constexpr std::size_t kBlock = 8;
    double xs[kBlock], ys[kBlock], zs[kBlock], vs[kBlock];
    for (std::size_t py = y_begin; py < y_end; ++py) {
      for (std::size_t px = 0; px < config.width; ++px) {
        const double ndc_x = 2.0 * (static_cast<double>(px) + 0.5) /
                                 static_cast<double>(config.width) -
                             1.0;
        // Flip y so +up in world maps to up in the image.
        const double ndc_y = 1.0 - 2.0 * (static_cast<double>(py) + 0.5) /
                                       static_cast<double>(config.height);
        const Vec3 origin = center + right * (ndc_x * half_extent) +
                            up * (ndc_y * half_extent) -
                            dir * (2.0 * radius + 1.0);
        double t_enter = 0.0, t_exit = 0.0;
        if (!intersect_box(origin, dir, ext, t_enter, t_exit)) {
          continue;
        }
        double acc[4] = {0.0, 0.0, 0.0, 0.0};
        double t = t_enter;
        bool saturated = false;
        while (!saturated && t < t_exit) {
          std::size_t n = 0;
          for (; n < kBlock && t < t_exit; ++n, t += config.step) {
            xs[n] = origin.x + dir.x * t;
            ys[n] = origin.y + dir.y * t;
            zs[n] = origin.z + dir.z * t;
          }
          kern.trilinear_block(fdata, fnx, fny, fnz, xs, ys, zs, vs, n);
          saturated = kern.composite_block(vs, n, &ctf, config.step,
                                           config.early_termination, acc);
        }
        if (acc[3] <= 0.0) {
          continue;
        }
        const Rgb bg = config.background;
        auto blend = [&](double channel, std::uint8_t b) {
          const double out = channel + (1.0 - acc[3]) * b;
          return static_cast<std::uint8_t>(
              std::lround(std::clamp(out, 0.0, 255.0)));
        };
        image.at(px, py) = Rgb{blend(acc[0], bg.r), blend(acc[1], bg.g),
                               blend(acc[2], bg.b)};
      }
    }
  };
  // Same dispatch policy as render_pseudocolor: parallelism must be real
  // (>1 worker) and have enough rows to amortize, else serial is faster
  // and the pixels are identical (rows are disjoint).
  if (pool != nullptr && pool->size() > 1 &&
      config.height >= 4 * pool->size()) {
    pool->parallel_for(0, config.height, rows);
  } else {
    rows(0, config.height);
  }
  return image;
}

machine::ActivityRecord volume_render_activity(const util::Field3D& field,
                                               const VolumeConfig& config) {
  machine::ActivityRecord a;
  const double rays =
      static_cast<double>(config.width) * static_cast<double>(config.height);
  // Average chord through the volume ~ 2/3 of its diagonal.
  const double diag = std::sqrt(
      static_cast<double>(field.nx() * field.nx() + field.ny() * field.ny() +
                          field.nz() * field.nz()));
  const double samples_per_ray = (2.0 / 3.0) * diag / config.step;
  a.flops = rays * samples_per_ray * 40.0;
  a.dram_bytes = util::Bytes{static_cast<std::uint64_t>(
      rays * samples_per_ray * 8.0 * 0.5)};  // half the samples miss cache
  a.active_cores = 16;
  a.core_utilization = 0.6;
  return a;
}

}  // namespace greenvis::vis
