#include "src/net/multinode.hpp"

#include <algorithm>
#include <cmath>

#include "src/heat/solver.hpp"
#include "src/util/error.hpp"
#include "src/vis/pipeline.hpp"

namespace greenvis::net {

util::Seconds MultiNodeResult::phase_time(const std::string& name) const {
  util::Seconds sum{0.0};
  for (const PhaseCost& p : phases) {
    if (p.name == name) {
      sum += p.total_time();
    }
  }
  return sum;
}

MultiNodeStudy::MultiNodeStudy(const ClusterSpec& cluster,
                               const core::CaseStudyConfig& workload)
    : cluster_(cluster),
      workload_(workload),
      cost_model_(cluster.node, cluster.cost),
      node_power_(cluster.calibration, power::hdd_power_params()),
      pfs_(cluster.pfs) {
  GREENVIS_REQUIRE(cluster_.compute_nodes >= 1);
  GREENVIS_REQUIRE((cluster_.compute_nodes & (cluster_.compute_nodes - 1)) ==
                   0);
  GREENVIS_REQUIRE(cluster_.staging_nodes >= 1);
}

std::size_t MultiNodeStudy::total_nodes() const {
  return cluster_.compute_nodes + cluster_.staging_nodes +
         cluster_.pfs.storage_targets;
}

util::Seconds MultiNodeStudy::solve_time() const {
  const heat::HeatSolver probe(workload_.problem, nullptr);
  return cost_model_.duration(probe.step_activity(),
                              cluster_.node.cpu.nominal_ghz);
}

util::Seconds MultiNodeStudy::halo_time() const {
  // Two ghost rows/columns of doubles per exchange direction.
  const double halo_bytes =
      2.0 * static_cast<double>(workload_.problem.nx) * sizeof(double);
  return halo_exchange_time(cluster_.network, halo_bytes);
}

util::Seconds MultiNodeStudy::render_time() const {
  const vis::VisPipeline probe(workload_.vis, nullptr);
  return cost_model_.duration(probe.render_activity(),
                              cluster_.node.cpu.nominal_ghz);
}

double MultiNodeStudy::subdomain_bytes() const {
  return static_cast<double>(workload_.problem.nx * workload_.problem.ny *
                             sizeof(double)) +
         48.0;  // serialization + dataset framing
}

double MultiNodeStudy::tile_bytes() const {
  return static_cast<double>(workload_.vis.width * workload_.vis.height * 3);
}

double MultiNodeStudy::pfs_bytes_per_io_step() const {
  return subdomain_bytes() * static_cast<double>(cluster_.compute_nodes);
}

double MultiNodeStudy::total_pfs_bytes() const {
  return pfs_bytes_per_io_step() * static_cast<double>(workload_.io_steps()) *
         2.0;
}

util::Watts MultiNodeStudy::node_idle_power() const {
  // Compute nodes are diskless: package + DRAM + rest of system.
  const auto& cal = cluster_.calibration;
  return cal.cpu.package_idle + cal.dram.idle + cal.rest.constant;
}

util::Watts MultiNodeStudy::cluster_power(double sim_nodes, double vis_nodes,
                                          double nics, double targets) const {
  const double n_total = static_cast<double>(total_nodes());
  const auto& net = cluster_.network;

  // Idle floor: every node's diskless idle, every NIC's idle, the switch,
  // and the storage targets' spinning disks.
  util::Watts total = node_idle_power() * n_total + net.nic_idle * n_total +
                      net.switch_per_port * n_total +
                      node_power_.disk_idle_power() *
                          static_cast<double>(cluster_.pfs.storage_targets);

  machine::ComponentLoad sim_load;
  sim_load.active_cores =
      static_cast<double>(cluster_.node.cpu.total_cores());
  sim_load.frequency_ghz = cluster_.node.cpu.nominal_ghz;
  machine::ComponentLoad idle_load;
  const util::Watts sim_delta =
      node_power_.package_power(sim_load) - node_power_.package_power(idle_load);

  machine::ComponentLoad vis_load;
  vis_load.active_cores = 16.0;
  vis_load.core_utilization = 0.35;
  vis_load.frequency_ghz = cluster_.node.cpu.nominal_ghz;
  const util::Watts vis_delta =
      node_power_.package_power(vis_load) - node_power_.package_power(idle_load);

  // Streaming storage target: sequential write/read transfer power.
  const util::Watts target_delta = node_power_.disk_params().write_transfer;

  total += sim_delta * sim_nodes;
  total += vis_delta * vis_nodes;
  total += (net.nic_active - net.nic_idle) * nics;
  total += target_delta * targets;
  return total;
}

MultiNodeResult MultiNodeStudy::finish(std::string name,
                                       std::vector<PhaseCost> phases) const {
  MultiNodeResult r;
  r.pipeline = std::move(name);
  for (const PhaseCost& p : phases) {
    if (!p.overlapped) {
      r.duration += p.total_time();
    }
    r.energy += p.energy();
  }
  r.average_power = r.duration.value() > 0.0
                        ? r.energy / r.duration
                        : util::Watts{0.0};
  r.phases = std::move(phases);
  return r;
}

MultiNodeResult MultiNodeStudy::post_processing() const {
  const auto n = cluster_.compute_nodes;
  const auto steps = static_cast<std::size_t>(workload_.iterations);
  const auto io_steps = static_cast<std::size_t>(workload_.io_steps());
  std::vector<PhaseCost> phases;

  phases.push_back({"Simulation", solve_time(), steps,
                    cluster_power(static_cast<double>(n), 0, 0, 0), false});
  phases.push_back({"Halo", halo_time(), steps,
                    cluster_power(0, 0, static_cast<double>(n), 0), false});
  // Collective checkpoint write, all ranks to the PFS.
  const util::Seconds write_time =
      pfs_.collective_io_time(n, subdomain_bytes());
  phases.push_back(
      {"Write", write_time, io_steps,
       cluster_power(0, 0, static_cast<double>(n),
                     pfs_.target_busy_fraction(n) *
                         static_cast<double>(cluster_.pfs.storage_targets)),
       false});
  // Post-hoc: one visualization node reads every subdomain back — striped
  // data streams from all targets (bounded by the reader's NIC), but each
  // of the N files costs a cold metadata walk, served serially.
  const double total_bytes = subdomain_bytes() * static_cast<double>(n);
  const double read_bw = std::min(
      cluster_.network.per_port_bandwidth.value(),
      cluster_.pfs.target_disk.sustained_rate.value() *
          static_cast<double>(cluster_.pfs.storage_targets));
  const util::Seconds read_time{
      total_bytes / read_bw + cluster_.pfs.per_file_overhead.value() *
                                  static_cast<double>(n) /
                                  static_cast<double>(
                                      cluster_.pfs.storage_targets)};
  phases.push_back(
      {"Read", read_time, io_steps,
       cluster_power(0, 0, 1.0,
                     static_cast<double>(cluster_.pfs.storage_targets)),
       false});
  // The single node renders the global frame.
  phases.push_back({"Visualization", render_time(), io_steps,
                    cluster_power(0, 1.0, 0, 0), false});
  return finish("Post-processing", std::move(phases));
}

MultiNodeResult MultiNodeStudy::in_situ() const {
  const auto n = cluster_.compute_nodes;
  const auto steps = static_cast<std::size_t>(workload_.iterations);
  const auto io_steps = static_cast<std::size_t>(workload_.io_steps());
  std::vector<PhaseCost> phases;

  phases.push_back({"Simulation", solve_time(), steps,
                    cluster_power(static_cast<double>(n), 0, 0, 0), false});
  phases.push_back({"Halo", halo_time(), steps,
                    cluster_power(0, 0, static_cast<double>(n), 0), false});
  // Sort-first: every rank renders its 1/n portion of the global frame in
  // parallel.
  phases.push_back({"Visualization",
                    render_time() / static_cast<double>(n), io_steps,
                    cluster_power(0, static_cast<double>(n), 0, 0), false});
  // Tiles gathered to a root and assembled into the global frame.
  phases.push_back(
      {"Composite",
       gather_time(cluster_.network, tile_bytes() / static_cast<double>(n), n),
       io_steps, cluster_power(0, 0, static_cast<double>(n), 0), false});
  return finish("In-situ", std::move(phases));
}

MultiNodeResult MultiNodeStudy::in_transit() const {
  const auto n = cluster_.compute_nodes;
  const auto s = cluster_.staging_nodes;
  const auto steps = static_cast<std::size_t>(workload_.iterations);
  const auto io_steps = static_cast<std::size_t>(workload_.io_steps());
  std::vector<PhaseCost> phases;

  phases.push_back({"Simulation", solve_time(), steps,
                    cluster_power(static_cast<double>(n), 0, 0, 0), false});
  phases.push_back({"Halo", halo_time(), steps,
                    cluster_power(0, 0, static_cast<double>(n), 0), false});

  // Ship raw subdomains to the staging nodes; each staging port receives
  // n/s subdomains per I/O step.
  const double ranks_per_staging =
      static_cast<double>(n) / static_cast<double>(s);
  const util::Seconds ship{
      cluster_.network.latency.value() +
      subdomain_bytes() * ranks_per_staging /
          cluster_.network.per_port_bandwidth.value()};
  phases.push_back({"Ship", ship, io_steps,
                    cluster_power(0, 0, static_cast<double>(n + s), 0),
                    false});

  // Staging renders its share of the global frame (n/s tiles of 1/n pixels
  // each) per I/O step, overlapped with the next simulation window. If it
  // cannot keep up, the simulation stalls.
  const util::Seconds staging_cycle =
      render_time() / static_cast<double>(s);
  const util::Seconds window =
      (solve_time() + halo_time()) * static_cast<double>(workload_.io_period);
  const util::Seconds stall{
      std::max(0.0, (staging_cycle - window).value())};
  if (stall.value() > 0.0) {
    phases.push_back({"Stall", stall, io_steps,
                      cluster_power(0, static_cast<double>(s), 0, 0), false});
  }
  // Overlapped staging work: only the staging nodes' extra power counts
  // (their idle is in every phase's floor).
  machine::ComponentLoad vis_load;
  vis_load.active_cores = 16.0;
  vis_load.core_utilization = 0.35;
  vis_load.frequency_ghz = cluster_.node.cpu.nominal_ghz;
  machine::ComponentLoad idle_load;
  const util::Watts staging_delta =
      (node_power_.package_power(vis_load) -
       node_power_.package_power(idle_load)) *
      static_cast<double>(s);
  const util::Seconds staging_busy{
      std::min(staging_cycle.value(), window.value() + stall.value())};
  phases.push_back(
      {"Staging render (overlapped)", staging_busy, io_steps, staging_delta,
       true});
  return finish("In-transit", std::move(phases));
}

}  // namespace greenvis::net
