// Colors and transfer functions for pseudocolor rendering.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace greenvis::vis {

struct Rgb {
  std::uint8_t r{0};
  std::uint8_t g{0};
  std::uint8_t b{0};

  friend constexpr bool operator==(Rgb a, Rgb b2) {
    return a.r == b2.r && a.g == b2.g && a.b == b2.b;
  }
};

/// Quantize a channel value `c` in [0, 255] to the nearest integer, halves
/// away from zero: exactly std::lround on that interval (c - int(c) is
/// exact there, see DESIGN.md §3j), but inline. NaN maps to 0 explicitly;
/// the float-to-int cast would be undefined for it.
[[nodiscard]] inline std::uint8_t round_channel(double c) {
  if (std::isnan(c)) {
    return 0;
  }
  const int i = static_cast<int>(c);
  return static_cast<std::uint8_t>(
      i + (c - static_cast<double>(i) >= 0.5 ? 1 : 0));
}

/// Piecewise-linear colormap over normalized [0, 1].
class ColorMap {
 public:
  struct Stop {
    double position;  // in [0, 1], strictly increasing
    double r, g, b;   // in [0, 1]
  };

  /// The stops as structure-of-arrays views into the owning ColorMap: the
  /// form the raster loop and the volume compositing kernel read. Copy it
  /// into a local before a pixel loop, so its pointers stay in registers
  /// across the loop's byte stores.
  struct Flat {
    const double* pos;
    const double* r;
    const double* g;
    const double* b;
    std::size_t count;

    /// Map a normalized value (clamped to [0, 1]; NaN maps to channel 0).
    [[nodiscard]] Rgb map(double t) const {
      t = std::clamp(t, 0.0, 1.0);
      std::size_t hi = 1;
      while (hi + 1 < count && pos[hi] < t) {
        ++hi;
      }
      const double f = (t - pos[hi - 1]) / (pos[hi] - pos[hi - 1]);
      const auto chan = [f, hi](const double* c) {
        const double v = c[hi - 1] + f * (c[hi] - c[hi - 1]);
        return round_channel(std::clamp(v, 0.0, 1.0) * 255.0);
      };
      return Rgb{chan(r), chan(g), chan(b)};
    }
  };

  /// Bins of the lookup table over the normalized value: bin k holds every
  /// double in [k / kBins, (k + 1) / kBins), and one entry more holds 1.0.
  static constexpr std::size_t kBins = std::size_t{1} << 14;

  /// One lookup-table entry: the color Flat::map gives every t in the bin,
  /// valid only when `exact` (see DESIGN.md §3j for why it is exact).
  struct Bin {
    Rgb rgb;
    bool exact{false};
  };

  /// The lookup table beside the stops it falls back on, by value like
  /// Flat. `map` equals Flat::map for every double, NaN included.
  struct Lookup {
    const Bin* bins;  // kBins + 1 entries
    Flat flat;

    [[nodiscard]] Rgb map(double t) const {
      t = std::clamp(t, 0.0, 1.0);
      if (std::isnan(t)) {
        return flat.map(t);  // no bin; the cast below would be undefined
      }
      // t * kBins is exact (a power of two), so the cast is floor.
      const Bin bin = bins[static_cast<std::size_t>(t * double{kBins})];
      return bin.exact ? bin.rgb : flat.map(t);
    }
  };

  /// Validates the stops and builds the lookup table from them.
  explicit ColorMap(const std::vector<Stop>& stops);

  /// Map a normalized value (clamped to [0, 1]; NaN maps to channel 0).
  [[nodiscard]] Rgb map(double t) const { return flat().map(t); }

  /// Map a raw value given a data range (degenerate range maps to 0).
  [[nodiscard]] Rgb map_range(double v, double lo, double hi) const {
    if (hi <= lo) {
      return map(0.0);
    }
    return map((v - lo) / (hi - lo));
  }

  /// The classic blue-white-red diverging map (ParaView's default look for
  /// temperature fields). Each built-in map is built once per process, and
  /// its copies share its lookup table.
  [[nodiscard]] static ColorMap cool_warm();
  /// Black-red-yellow-white "hot" map.
  [[nodiscard]] static ColorMap hot();
  [[nodiscard]] static ColorMap grayscale();

  [[nodiscard]] Flat flat() const {
    const std::size_t n = soa_.size() / 4;
    const double* p = soa_.data();
    return Flat{p, p + n, p + 2 * n, p + 3 * n, n};
  }

  [[nodiscard]] Lookup lookup() const { return Lookup{bins_->data(), flat()}; }

 private:
  /// The validated stops, once: n positions, then n reds, greens, blues.
  std::vector<double> soa_;
  /// kBins + 1 entries, immutable, shared by every copy of this map.
  std::shared_ptr<const std::vector<Bin>> bins_;
};

}  // namespace greenvis::vis
