// Domain generators: greenvis-shaped values built from the gen.hpp
// combinators. Everything shrinks toward the smallest structurally valid
// instance (tiny grids, short request streams, few iterations).
#pragma once

#include <cmath>
#include <vector>

#include "src/core/workload.hpp"
#include "src/qa/gen.hpp"
#include "src/storage/request.hpp"
#include "src/util/field.hpp"

namespace greenvis::qa {

/// A 2-D field mixing a smooth trend with bounded noise — the shape every
/// codec in the tree is designed for. Edge lengths shrink toward
/// `min_edge`; amplitudes shrink toward zero.
[[nodiscard]] inline Gen<util::Field2D> smooth_field(std::size_t min_edge,
                                                     std::size_t max_edge,
                                                     double max_amplitude,
                                                     double max_noise) {
  return [=](Choices& c) {
    const auto nx = static_cast<std::size_t>(c.draw_range(min_edge, max_edge));
    const auto ny = static_cast<std::size_t>(c.draw_range(min_edge, max_edge));
    const double amplitude = c.draw_real(0.0, max_amplitude);
    const double noise = c.draw_real(0.0, max_noise);
    const double kx = c.draw_real(0.05, 0.5);
    const double ky = c.draw_real(0.05, 0.5);
    util::Field2D f(nx, ny);
    // One draw seeds the per-cell noise so the tape stays short: field
    // contents are still a pure function of the tape.
    util::Xoshiro256 noise_rng{c.draw_below(1ULL << 32)};
    for (std::size_t j = 0; j < ny; ++j) {
      for (std::size_t i = 0; i < nx; ++i) {
        f.at(i, j) = amplitude * std::sin(kx * static_cast<double>(i)) *
                         std::cos(ky * static_cast<double>(j)) +
                     noise_rng.uniform(-noise, noise);
      }
    }
    return f;
  };
}

/// An arbitrary byte payload (codec/decoder fuzz input).
[[nodiscard]] inline Gen<std::vector<std::uint8_t>> byte_payload(
    std::size_t min_len, std::size_t max_len) {
  return fmap(vector_of(uint_in(0, 255), min_len, max_len),
              [](const std::vector<std::uint64_t>& words) {
                std::vector<std::uint8_t> bytes;
                bytes.reserve(words.size());
                for (const std::uint64_t w : words) {
                  bytes.push_back(static_cast<std::uint8_t>(w));
                }
                return bytes;
              });
}

/// One block-device request. Offsets land on `align` boundaries within
/// `max_offset`; lengths are multiples of `align` in [align, max_length].
[[nodiscard]] inline Gen<storage::IoRequest> io_request(
    std::uint64_t max_offset, std::uint32_t max_length,
    std::uint32_t align = 4096) {
  return [=](Choices& c) {
    storage::IoRequest r;
    r.kind = c.draw_bool() ? storage::IoKind::kWrite : storage::IoKind::kRead;
    r.offset = c.draw_below(max_offset / align + 1) * align;
    r.length = static_cast<std::uint32_t>(
        c.draw_range(1, max_length / align) * align);
    return r;
  };
}

/// A scaled-down case-study configuration: paper phase structure, small
/// enough for differential pipeline runs inside a property sweep. Shrinks
/// toward 1 iteration at period 1 with a tiny grid and frame.
[[nodiscard]] inline Gen<core::CaseStudyConfig> small_case_config() {
  return [](Choices& c) {
    core::CaseStudyConfig config = core::case_study(1);
    config.iterations = static_cast<int>(c.draw_range(1, 8));
    config.io_period = static_cast<int>(c.draw_range(1, 4));
    const auto grid = static_cast<std::size_t>(c.draw_range(16, 48));
    config.problem.nx = grid;
    config.problem.ny = grid;
    config.problem.executed_sweeps = 8;
    const auto frame = static_cast<std::size_t>(c.draw_range(16, 64));
    config.vis.width = frame;
    config.vis.height = frame;
    config.name = "qa-small-case";
    return config;
  };
}

}  // namespace greenvis::qa
