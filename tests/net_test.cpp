#include <gtest/gtest.h>

#include <cmath>

#include "src/net/multinode.hpp"
#include "src/net/network.hpp"
#include "src/net/pfs.hpp"
#include "src/util/error.hpp"

namespace greenvis::net {
namespace {

// ---------- link ----------

TEST(Network, MessageTimeIsLatencyPlusTransfer) {
  NetworkSpec net;
  const double t = message_time(net, net.per_port_bandwidth.value()).value();
  EXPECT_NEAR(t, net.latency.value() + 1.0, 1e-9);
  EXPECT_NEAR(message_time(net, 0.0).value(), net.latency.value(), 1e-15);
}

TEST(Network, HaloIsTwoExchanges) {
  NetworkSpec net;
  EXPECT_NEAR(halo_exchange_time(net, 1000.0).value(),
              2.0 * message_time(net, 1000.0).value(), 1e-15);
}

TEST(Network, GatherBoundByReceiverPort) {
  NetworkSpec net;
  const double one = gather_time(net, 1e6, 1).value();
  const double four = gather_time(net, 1e6, 4).value();
  EXPECT_NEAR(four - net.latency.value(),
              4.0 * (one - net.latency.value()), 1e-9);
}

// ---------- parallel filesystem ----------

TEST(Pfs, AggregateBandwidthGrowsWithTargetsUntilSaturated) {
  PfsSpec spec;
  spec.storage_targets = 4;
  const PfsModel pfs(spec);
  const double one_client = pfs.aggregate_bandwidth(1).value();
  const double four_clients = pfs.aggregate_bandwidth(4).value();
  EXPECT_NEAR(four_clients, 4.0 * one_client, 1e-6);
}

TEST(Pfs, OversubscriptionDegradesPerTargetRate) {
  PfsSpec spec;
  spec.storage_targets = 4;
  const PfsModel pfs(spec);
  const double matched = pfs.aggregate_bandwidth(4).value();
  const double oversubscribed = pfs.aggregate_bandwidth(16).value();
  // 16 clients on 4 spinning targets interleave seeks: less than the
  // matched aggregate, not more.
  EXPECT_LT(oversubscribed, matched);
}

TEST(Pfs, CollectiveIoTimeScalesWithVolume) {
  const PfsModel pfs{PfsSpec{}};
  const double small = pfs.collective_io_time(8, 1e6).value();
  const double large = pfs.collective_io_time(8, 1e8).value();
  EXPECT_GT(large, 15.0 * small);
  // Tiny collective checkpoints are dominated by per-file server overhead,
  // not bandwidth — the cluster analogue of the sync-write pathology.
  const double ops_floor = PfsSpec{}.per_file_overhead.value() * 8.0 /
                           static_cast<double>(PfsSpec{}.storage_targets);
  EXPECT_GT(small, ops_floor * 0.9);
}

TEST(Pfs, BusyFractionCapped) {
  PfsSpec spec;
  spec.storage_targets = 4;
  const PfsModel pfs(spec);
  EXPECT_NEAR(pfs.target_busy_fraction(2), 0.5, 1e-12);
  EXPECT_NEAR(pfs.target_busy_fraction(100), 1.0, 1e-12);
}

// ---------- multi-node study ----------

ClusterSpec small_cluster() {
  ClusterSpec c;
  c.compute_nodes = 8;
  c.staging_nodes = 2;
  return c;
}

core::CaseStudyConfig workload() { return core::case_study(1); }

TEST(MultiNode, InSituFasterAndGreenerThanPostProcessing) {
  const MultiNodeStudy study(small_cluster(), workload());
  const auto post = study.post_processing();
  const auto insitu = study.in_situ();
  EXPECT_LT(insitu.duration.value(), post.duration.value());
  EXPECT_LT(insitu.energy.value(), post.energy.value());
}

TEST(MultiNode, InTransitBetweenTheTwo) {
  const MultiNodeStudy study(small_cluster(), workload());
  const auto post = study.post_processing();
  const auto transit = study.in_transit();
  const auto insitu = study.in_situ();
  EXPECT_LT(transit.energy.value(), post.energy.value());
  // In-transit burns staging nodes but avoids storage: costlier than pure
  // in-situ on this balanced configuration.
  EXPECT_GE(transit.energy.value(), insitu.energy.value() * 0.95);
}

TEST(MultiNode, EnergyEqualsPhaseSum) {
  const MultiNodeStudy study(small_cluster(), workload());
  for (const auto& result :
       {study.post_processing(), study.in_situ(), study.in_transit()}) {
    double e = 0.0;
    double t = 0.0;
    for (const auto& p : result.phases) {
      e += p.energy().value();
      if (!p.overlapped) {
        t += p.total_time().value();
      }
    }
    EXPECT_NEAR(e, result.energy.value(), 1e-6) << result.pipeline;
    EXPECT_NEAR(t, result.duration.value(), 1e-9) << result.pipeline;
  }
}

TEST(MultiNode, WeakScalingRaisesPostProcessingIoShare) {
  core::CaseStudyConfig w = workload();
  ClusterSpec small = small_cluster();
  ClusterSpec big = small_cluster();
  big.compute_nodes = 64;
  const auto post_small = MultiNodeStudy(small, w).post_processing();
  const auto post_big = MultiNodeStudy(big, w).post_processing();
  const double io_small = post_small.phase_time("Write").value() /
                          post_small.duration.value();
  const double io_big =
      post_big.phase_time("Write").value() / post_big.duration.value();
  // Same targets, 8x the writers: the I/O share of the run grows.
  EXPECT_GT(io_big, io_small);
}

TEST(MultiNode, InSituAdvantageGrowsWithScale) {
  core::CaseStudyConfig w = workload();
  ClusterSpec small = small_cluster();
  ClusterSpec big = small_cluster();
  big.compute_nodes = 64;
  const auto s_small = MultiNodeStudy(small, w);
  const auto s_big = MultiNodeStudy(big, w);
  const double savings_small =
      1.0 - s_small.in_situ().energy.value() /
                s_small.post_processing().energy.value();
  const double savings_big =
      1.0 - s_big.in_situ().energy.value() /
                s_big.post_processing().energy.value();
  EXPECT_GT(savings_big, savings_small);
}

TEST(MultiNode, StallAppearsWhenStagingUndersized) {
  // A heavyweight render (4K frame) on a single staging node cannot keep up
  // with per-step output.
  core::CaseStudyConfig heavy = workload();
  heavy.vis.width = 2048;
  heavy.vis.height = 2048;
  ClusterSpec starved = small_cluster();
  starved.staging_nodes = 1;
  const auto transit = MultiNodeStudy(starved, heavy).in_transit();
  EXPECT_GT(transit.phase_time("Stall").value(), 0.0);

  ClusterSpec ample = small_cluster();
  ample.staging_nodes = 8;
  const auto smooth = MultiNodeStudy(ample, workload()).in_transit();
  EXPECT_DOUBLE_EQ(smooth.phase_time("Stall").value(), 0.0);
}

TEST(MultiNode, RejectsNonPowerOfTwo) {
  ClusterSpec bad = small_cluster();
  bad.compute_nodes = 6;
  EXPECT_THROW(MultiNodeStudy(bad, workload()), util::ContractViolation);
}

// ---------- edge cases ----------

TEST(MultiNode, SingleNodeClusterDegeneratesCleanly) {
  // One compute rank is a legal (power-of-two) cluster; every pipeline must
  // produce finite, positive durations and energies, and the composite
  // gather of a 1-node in-situ run reduces to a self-send.
  ClusterSpec c = small_cluster();
  c.compute_nodes = 1;
  const MultiNodeStudy study(c, workload());
  for (const auto& result :
       {study.post_processing(), study.in_situ(), study.in_transit()}) {
    EXPECT_TRUE(std::isfinite(result.duration.value())) << result.pipeline;
    EXPECT_TRUE(std::isfinite(result.energy.value())) << result.pipeline;
    EXPECT_GT(result.duration.value(), 0.0) << result.pipeline;
    EXPECT_GT(result.energy.value(), 0.0) << result.pipeline;
    for (const auto& p : result.phases) {
      EXPECT_GE(p.time_per_occurrence.value(), 0.0)
          << result.pipeline << "/" << p.name;
    }
  }
}

TEST(Network, ZeroByteStagingPayloadCostsOnlyLatency) {
  NetworkSpec net;
  // An empty staging ship / gather still pays the wire latency and nothing
  // else; the PFS likewise charges only its per-file overhead.
  EXPECT_NEAR(message_time(net, 0.0).value(), net.latency.value(), 1e-15);
  EXPECT_NEAR(gather_time(net, 0.0, 8).value(), net.latency.value(), 1e-15);
  const PfsModel pfs{PfsSpec{}};
  const double empty = pfs.collective_io_time(4, 0.0).value();
  EXPECT_TRUE(std::isfinite(empty));
  EXPECT_GT(empty, 0.0);
  EXPECT_LE(empty, pfs.collective_io_time(4, 1.0).value());
}

TEST(MultiNode, AggregatePfsBytesMonotoneInNodeCount) {
  // Weak scaling: every rank checkpoints its own subdomain, so the bytes
  // crossing the PFS can only grow with the node count.
  double previous = 0.0;
  for (std::size_t n = 1; n <= 64; n *= 2) {
    ClusterSpec c = small_cluster();
    c.compute_nodes = n;
    const MultiNodeStudy study(c, workload());
    EXPECT_NEAR(study.pfs_bytes_per_io_step(),
                study.subdomain_bytes() * static_cast<double>(n), 1e-9);
    const double total = study.total_pfs_bytes();
    EXPECT_GT(total, previous);
    previous = total;
  }
  // The total accounts for one write plus one read-back of every I/O step.
  ClusterSpec c = small_cluster();
  const MultiNodeStudy study(c, workload());
  const auto io_steps = static_cast<double>(workload().io_steps());
  EXPECT_NEAR(study.total_pfs_bytes(),
              study.pfs_bytes_per_io_step() * io_steps * 2.0, 1e-6);
}

}  // namespace
}  // namespace greenvis::net
