// Chunked timestep datasets.
//
// The proxy app writes its grid to disk every k-th iteration (Sec. IV-C:
// "grid size and chunk size were fixed at 128 KB") and the post-processing
// pipeline later reads the timesteps back for visualization. This layer
// implements that on the simulated filesystem:
//
//  * one file per timestep, each framed with a magic/step/size/checksum
//    header (util::wide_checksum64) so the reader can verify integrity —
//    both pipelines must produce *identical* images, so corruption
//    anywhere in the storage stack is a test failure, not a silent wrong
//    answer;
//  * the writer emits O_SYNC chunks (checkpoint-style durability: a crashed
//    simulation must not lose committed steps), which is what makes the
//    write stage cost ~30% of case study 1;
//  * the reader consumes records through a cold cache with a deserialization
//    gap between records, reproducing the paper's read stage.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/storage/filesystem.hpp"

namespace greenvis::io {

using storage::Filesystem;

struct DatasetConfig {
  std::string basename{"heat"};
  /// Durable-write granularity (one fsync per chunk).
  util::Bytes chunk_size{util::kibibytes(4)};
  /// Read/deserialize granularity (per-element records of the FEM mesh).
  util::Bytes read_record{util::kibibytes(1)};
  storage::WriteMode write_mode{storage::WriteMode::kSync};
  storage::ReadMode read_mode{storage::ReadMode::kDirect};
  /// Host compute between records on the read path (deserialize + verify) —
  /// long enough that the platter rotates past the next sector.
  util::Seconds record_processing{util::microseconds(1200.0)};
  /// Host compute between chunks on the write path (serialize).
  util::Seconds chunk_processing{util::microseconds(150.0)};
};

/// Name of the file holding one timestep.
[[nodiscard]] std::string step_file_name(const DatasetConfig& config,
                                         int step);

class TimestepWriter {
 public:
  TimestepWriter(Filesystem& fs, const DatasetConfig& config)
      : fs_(&fs), config_(config) {}

  /// Persist one timestep's payload durably.
  void write_step(int step, std::span<const std::uint8_t> payload);

  [[nodiscard]] std::uint64_t steps_written() const { return steps_written_; }

  /// The in-memory manifest of everything written so far; persist it with
  /// DatasetCatalog::save (see io/catalog.hpp) so post-hoc tools can
  /// discover the steps.
  [[nodiscard]] const class DatasetCatalog& catalog() const;

 private:
  Filesystem* fs_;
  DatasetConfig config_;
  std::uint64_t steps_written_{0};
  std::shared_ptr<class DatasetCatalog> catalog_;
};

class TimestepReader {
 public:
  TimestepReader(Filesystem& fs, const DatasetConfig& config)
      : fs_(&fs), config_(config) {}

  [[nodiscard]] bool has_step(int step) const;

  /// Read one timestep back; throws ContractViolation on any header or
  /// checksum mismatch.
  [[nodiscard]] std::vector<std::uint8_t> read_step(int step);

  [[nodiscard]] std::uint64_t steps_read() const { return steps_read_; }

 private:
  Filesystem* fs_;
  DatasetConfig config_;
  std::uint64_t steps_read_{0};
};

}  // namespace greenvis::io
