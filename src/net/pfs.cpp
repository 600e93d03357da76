#include "src/net/pfs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/obs/registry.hpp"

namespace greenvis::net {

PfsModel::PfsModel(const PfsSpec& spec) : spec_(spec) {
  GREENVIS_REQUIRE(spec_.storage_targets >= 1);
  GREENVIS_REQUIRE(spec_.interference > 0.0 && spec_.interference <= 1.0);
}

util::BytesPerSecond PfsModel::aggregate_bandwidth(std::size_t clients) const {
  GREENVIS_REQUIRE(clients >= 1);
  const double streaming = spec_.target_disk.sustained_rate.value();
  const double clients_per_target =
      static_cast<double>(clients) /
      static_cast<double>(spec_.storage_targets);
  // One client per target keeps the stream sequential; extra concurrent
  // streams force seeks between them.
  const double sharers = std::max(1.0, clients_per_target);
  const double per_target =
      streaming * std::pow(spec_.interference, sharers - 1.0);
  const double busy_targets = std::min(
      static_cast<double>(clients), static_cast<double>(spec_.storage_targets));
  return util::BytesPerSecond{per_target * busy_targets};
}

Seconds PfsModel::collective_io_time(std::size_t clients,
                                     double bytes_per_client) const {
  GREENVIS_REQUIRE(bytes_per_client >= 0.0);
  const double total = bytes_per_client * static_cast<double>(clients);
  if (obs::enabled()) {
    auto& registry = obs::Registry::global();
    static obs::Counter& ops = registry.counter("net.collective_ops");
    static obs::Counter& bytes = registry.counter("net.collective_bytes");
    ops.add(1);
    bytes.add(static_cast<std::uint64_t>(total));
  }
  const Seconds disk_time{total / aggregate_bandwidth(clients).value()};
  // One file operation per client, served serially per target.
  const Seconds ops_time{spec_.per_file_overhead.value() *
                         static_cast<double>(clients) /
                         static_cast<double>(spec_.storage_targets)};
  // Each client also pushes its bytes through its own NIC; ports operate in
  // parallel, so the network contribution is one client's transfer.
  const Seconds wire = message_time(spec_.network, bytes_per_client);
  return std::max(disk_time + ops_time, wire) + spec_.network.latency;
}

double PfsModel::target_busy_fraction(std::size_t clients) const {
  const double busy_targets = std::min(
      static_cast<double>(clients), static_cast<double>(spec_.storage_targets));
  return busy_targets / static_cast<double>(spec_.storage_targets);
}

}  // namespace greenvis::net
