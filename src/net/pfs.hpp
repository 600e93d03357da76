// Parallel filesystem model (Lustre-style).
//
// N clients write/read through `storage_targets` object storage targets,
// each an independent HDD-backed server. Striped access divides a file
// across targets; with more clients than targets the per-client share of a
// target's bandwidth shrinks, and concurrent clients on one spinning target
// destroy its sequentiality (an interference penalty) — the reason parallel
// I/O at scale is so much worse than one client's streaming rate
// (refs [27]-[29] in the paper).
#pragma once

#include <cstddef>

#include "src/machine/spec.hpp"
#include "src/net/network.hpp"
#include "src/util/units.hpp"

namespace greenvis::net {

struct PfsSpec {
  std::size_t storage_targets{4};
  machine::DiskSpec target_disk{};
  /// Fraction of a target's streaming bandwidth retained per additional
  /// concurrent client (seek interleaving between streams): effective
  /// bandwidth = streaming * interference^(clients_per_target - 1).
  double interference{0.85};
  /// Server-side cost per file operation (create/commit on write, metadata
  /// walk on cold read) — the collective-checkpoint analogue of the
  /// single-node journal commit. Targets serve these serially.
  Seconds per_file_overhead{util::milliseconds(35.0)};
  NetworkSpec network{};
};

class PfsModel {
 public:
  explicit PfsModel(const PfsSpec& spec);

  /// Aggregate bandwidth seen by `clients` concurrently writing (or
  /// reading) large striped files.
  [[nodiscard]] util::BytesPerSecond aggregate_bandwidth(
      std::size_t clients) const;

  /// Time for `clients` ranks to each move `bytes_per_client` concurrently
  /// (collective checkpoint write / restart read), network included.
  [[nodiscard]] Seconds collective_io_time(std::size_t clients,
                                           double bytes_per_client) const;

  /// Disk busy fraction across the targets during such a collective op.
  [[nodiscard]] double target_busy_fraction(std::size_t clients) const;

  [[nodiscard]] const PfsSpec& spec() const { return spec_; }

 private:
  PfsSpec spec_;
};

}  // namespace greenvis::net
