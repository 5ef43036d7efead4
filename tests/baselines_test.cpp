// Baseline protocols (HotStuff, PBFT): commit progress, chain consistency,
// and the leader-dissemination traffic pattern that motivates Leopard.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baselines/hotstuff.hpp"
#include "baselines/pbft.hpp"
#include "core/client.hpp"
#include "crypto/threshold_sig.hpp"
#include "protocol/factory.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

using namespace leopard;

namespace {

template <typename Replica, typename Config>
struct BaselineCluster {
  sim::Simulator sim;
  sim::Network net;
  crypto::ThresholdScheme ts;
  core::ProtocolMetrics metrics;
  std::vector<protocol::SimReplica> handles;
  std::vector<Replica*> replicas;  // typed views into `handles`
  protocol::SimClient client;

  BaselineCluster(Config cfg, double rate)
      : net(sim, make_net()), ts(cfg.n, cfg.quorum(), 11) {
    for (std::uint32_t id = 0; id < cfg.n; ++id) {
      protocol::ProtocolSpec spec;
      spec.config = cfg;
      handles.push_back(protocol::make_sim_replica(net, metrics, spec, ts, id));
      replicas.push_back(&handles.back().template as<Replica>());
    }
    core::ClientConfig ccfg;
    ccfg.request_rate = rate;
    ccfg.payload_size = cfg.payload_size;
    ccfg.initial_backlog = 2 * cfg.batch_size;
    client = protocol::make_sim_client(net, metrics, ccfg, 0, cfg.n, cfg.n, 77);
  }

  static sim::NetworkConfig make_net() {
    sim::NetworkConfig cfg;
    cfg.propagation_delay = 100 * sim::kMicrosecond;
    return cfg;
  }

  void run_for(double seconds) {
    if (!started) {
      net.start_all();
      started = true;
    }
    sim.run_until(sim.now() + sim::from_seconds(seconds));
  }
  bool started = false;
};

}  // namespace

TEST(HotStuff, CommitsAndExecutes) {
  baselines::HotStuffConfig cfg;
  cfg.n = 4;
  cfg.batch_size = 100;
  BaselineCluster<baselines::HotStuffReplica, baselines::HotStuffConfig> cluster(cfg, 20000);
  cluster.run_for(2.0);

  EXPECT_GT(cluster.metrics.executed_requests, 5000u);
  EXPECT_GT(cluster.metrics.acked_requests, 5000u);
  for (auto& r : cluster.replicas) EXPECT_GT(r->committed_height(), 3u);
}

TEST(HotStuff, ReplicasCommitSameChain) {
  baselines::HotStuffConfig cfg;
  cfg.n = 7;
  cfg.batch_size = 100;
  BaselineCluster<baselines::HotStuffReplica, baselines::HotStuffConfig> cluster(cfg, 20000);
  cluster.run_for(2.0);

  // Compare a recent committed height present at all replicas.
  proto::SeqNum h = cluster.replicas[0]->committed_height();
  for (auto& r : cluster.replicas) h = std::min(h, r->committed_height());
  ASSERT_GT(h, 1u);
  const auto want = cluster.replicas[0]->committed_digest(h);
  ASSERT_TRUE(want.has_value());
  for (auto& r : cluster.replicas) {
    const auto got = r->committed_digest(h);
    if (got.has_value()) {
      EXPECT_EQ(*got, *want);
    }
  }
}

TEST(HotStuff, ThroughputGrowsWithBatchSizeThenSaturates) {
  auto run = [](std::uint32_t batch) {
    baselines::HotStuffConfig cfg;
    cfg.n = 7;
    cfg.batch_size = batch;
    BaselineCluster<baselines::HotStuffReplica, baselines::HotStuffConfig> cluster(cfg,
                                                                                   300000);
    cluster.run_for(2.0);
    return cluster.metrics.executed_requests;
  };
  const auto t_small = run(10);
  const auto t_large = run(400);
  EXPECT_GT(t_large, 2 * t_small);  // Fig. 6's rising region
}

TEST(HotStuff, LeaderSendsEveryRequestToAllReplicas) {
  baselines::HotStuffConfig cfg;
  cfg.n = 4;
  cfg.batch_size = 100;
  BaselineCluster<baselines::HotStuffReplica, baselines::HotStuffConfig> cluster(cfg, 20000);
  cluster.run_for(2.0);

  const auto leader_sent =
      cluster.net.traffic().bytes(0, sim::Direction::kSend, sim::Component::kDatablock);
  const auto executed = cluster.metrics.executed_requests;
  // Eq. (1): ≈ executed × payload × (n−1) bytes, plus headers/partial blocks.
  const double expected = static_cast<double>(executed) * cfg.payload_size * 3;
  EXPECT_GT(static_cast<double>(leader_sent), 0.9 * expected);
}

TEST(Pbft, CommitsAndExecutes) {
  baselines::PbftConfig cfg;
  cfg.n = 4;
  cfg.batch_size = 100;
  BaselineCluster<baselines::PbftReplica, baselines::PbftConfig> cluster(cfg, 20000);
  cluster.run_for(2.0);

  EXPECT_GT(cluster.metrics.executed_requests, 5000u);
  for (auto& r : cluster.replicas) EXPECT_GT(r->executed_through(), 3u);
}

TEST(Pbft, VoteTrafficIsAllToAll) {
  baselines::PbftConfig cfg;
  cfg.n = 7;
  cfg.batch_size = 200;
  BaselineCluster<baselines::PbftReplica, baselines::PbftConfig> cluster(cfg, 20000);
  cluster.run_for(2.0);

  // Every replica multicasts prepare+commit votes: each non-leader's vote
  // send traffic is ≈ 2(n−1) votes per block — far more than one share.
  const auto votes_sent =
      cluster.net.traffic().messages(2, sim::Direction::kSend, sim::Component::kVote);
  const auto blocks = cluster.replicas[2]->executed_through();
  ASSERT_GT(blocks, 0u);
  EXPECT_GE(votes_sent, blocks * 2 * (cfg.n - 1) / 2);  // ≥ half (windowing slack)
}

TEST(Pbft, ParallelInstancesRespectWindow) {
  baselines::PbftConfig cfg;
  cfg.n = 4;
  cfg.batch_size = 50;
  cfg.max_parallel_instances = 3;
  BaselineCluster<baselines::PbftReplica, baselines::PbftConfig> cluster(cfg, 50000);
  cluster.run_for(1.0);
  EXPECT_GT(cluster.metrics.executed_requests, 1000u);
}
