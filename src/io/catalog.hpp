// Dataset catalog: a manifest of written timesteps.
//
// The pipelines know their I/O schedule, but a post-hoc analyst (or another
// tool) does not — the catalog is the small index file a writer leaves
// behind so readers can discover which steps exist, how large they are, and
// what their payload checksums should be, without probing file names.
// Format (text, one line per step):
//
//   greenvis-catalog 2
//   step <n> bytes <payload-bytes> sum <checksum-hex>
//
// The checksum is the frame header's util::wide_checksum64, in unpadded hex.
// Version 1 recorded FNV-1a under the keyword `fnv` and is rejected.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/io/dataset.hpp"

namespace greenvis::io {

struct CatalogEntry {
  int step{0};
  std::uint64_t payload_bytes{0};
  std::uint64_t checksum{0};
};

class DatasetCatalog {
 public:
  /// Record one written step (writers call this after write_step).
  void record(int step, std::uint64_t payload_bytes, std::uint64_t checksum);

  [[nodiscard]] bool contains(int step) const {
    return entries_.contains(step);
  }
  [[nodiscard]] std::optional<CatalogEntry> entry(int step) const;
  /// All steps in ascending order.
  [[nodiscard]] std::vector<int> steps() const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t total_payload_bytes() const;

  /// Serialize to the text format / parse it back (throws on malformed
  /// input).
  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] static DatasetCatalog parse(std::string_view text);

  /// Persist to "<basename>.catalog" on the simulated filesystem (durable).
  void save(Filesystem& fs, const DatasetConfig& config) const;
  /// Load from the filesystem.
  [[nodiscard]] static DatasetCatalog load(Filesystem& fs,
                                           const DatasetConfig& config);
  [[nodiscard]] static std::string file_name(const DatasetConfig& config) {
    return config.basename + ".catalog";
  }

 private:
  std::map<int, CatalogEntry> entries_;
};

}  // namespace greenvis::io
