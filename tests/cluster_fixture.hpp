// Shared test fixture: builds a small Leopard cluster (sans-I/O cores behind
// SimEnv adapters) with per-replica Byzantine specs and direct access to
// replicas/clients for invariant checks. Optionally records each replica's
// full event/action trace for determinism and replay tests.
#pragma once

#include <memory>
#include <vector>

#include "core/client.hpp"
#include "core/config.hpp"
#include "core/metrics.hpp"
#include "core/replica.hpp"
#include "crypto/threshold_sig.hpp"
#include "protocol/factory.hpp"
#include "protocol/replay.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace leopard::test {

struct ClusterOptions {
  std::uint32_t n = 4;
  core::LeopardConfig protocol;                 // n is overwritten from `n`
  std::vector<core::ByzantineSpec> byzantine;   // per-replica; missing = honest
  double client_rate_per_replica = 2000;        // req/s to each non-leader replica
  std::uint32_t client_backlog = 0;
  std::uint32_t client_submit_copies = 1;
  sim::SimTime client_resubmit_timeout = 0;
  sim::SimTime client_stop_at = -1;             // clients stop submitting here (<0 = never)
  std::uint32_t payload_size = 64;
  bool real_payload = false;
  std::uint64_t seed = 7;
  bool record_traces = false;  // capture per-replica event/action traces
};

class LeopardCluster {
 public:
  explicit LeopardCluster(ClusterOptions opts)
      : opts_(std::move(opts)),
        net_(sim_, make_net_config()),
        ts_(opts_.n, 2 * ((opts_.n - 1) / 3) + 1, opts_.seed) {
    opts_.protocol.n = opts_.n;
    opts_.protocol.payload_size = opts_.payload_size;
    if (opts_.record_traces) traces_.resize(opts_.n);

    const sim::NodeId leader = 1 % opts_.n;
    for (std::uint32_t id = 0; id < opts_.n; ++id) {
      protocol::ProtocolSpec spec;
      spec.config = opts_.protocol;
      if (id < opts_.byzantine.size()) spec.byzantine = opts_.byzantine[id];
      replicas_.push_back(protocol::make_sim_replica(net_, metrics_, spec, ts_, id));
      if (opts_.record_traces) replicas_.back().env->set_recorder(&traces_[id]);
    }
    for (std::uint32_t id = 0; id < opts_.n; ++id) {
      if (id == leader) continue;
      core::ClientConfig ccfg;
      ccfg.request_rate = opts_.client_rate_per_replica;
      ccfg.payload_size = opts_.payload_size;
      ccfg.real_payload = opts_.real_payload;
      ccfg.resubmit_timeout = opts_.client_resubmit_timeout;
      ccfg.stop_at = opts_.client_stop_at;
      ccfg.initial_backlog = opts_.client_backlog;
      ccfg.submit_copies = opts_.client_submit_copies;
      ccfg.burst = 1;
      clients_.push_back(protocol::make_sim_client(net_, metrics_, ccfg, id, opts_.n, leader,
                                                   opts_.seed + 100 + id));
    }
  }

  void run_for(double seconds) {
    if (!started_) {
      net_.start_all();
      started_ = true;
    }
    sim_.run_until(sim_.now() + sim::from_seconds(seconds));
  }

  [[nodiscard]] core::LeopardReplica& replica(std::uint32_t id) {
    return replicas_[id].as<core::LeopardReplica>();
  }
  [[nodiscard]] std::size_t replica_count() const { return replicas_.size(); }
  [[nodiscard]] protocol::SimEnv& env(std::uint32_t id) { return *replicas_[id].env; }
  [[nodiscard]] const protocol::Trace& trace(std::uint32_t id) const {
    util::expects(id < traces_.size(), "trace(): cluster built without record_traces");
    return traces_[id];
  }
  [[nodiscard]] core::LeopardClient& client(std::size_t i) { return *clients_[i].core; }
  [[nodiscard]] std::size_t client_count() const { return clients_.size(); }
  [[nodiscard]] core::ProtocolMetrics& metrics() { return metrics_; }
  [[nodiscard]] sim::Network& network() { return net_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const crypto::ThresholdScheme& scheme() const { return ts_; }
  [[nodiscard]] const core::LeopardConfig& protocol_config() const { return opts_.protocol; }

  /// Theorem 1 invariant: all honest replicas' confirmed logs agree
  /// position-wise (honest = not in `byzantine_ids`).
  [[nodiscard]] bool logs_consistent(const std::vector<std::uint32_t>& byzantine_ids = {}) {
    for (std::uint32_t a = 0; a < opts_.n; ++a) {
      if (is_in(a, byzantine_ids)) continue;
      const auto& log_a = replica(a).confirmed_log();
      for (std::uint32_t b = a + 1; b < opts_.n; ++b) {
        if (is_in(b, byzantine_ids)) continue;
        const auto& log_b = replica(b).confirmed_log();
        for (const auto& [sn, digest] : log_a) {
          const auto it = log_b.find(sn);
          if (it != log_b.end() && it->second != digest) return false;
        }
      }
    }
    return true;
  }

  /// Smallest executed_through() among honest replicas.
  [[nodiscard]] proto::SeqNum min_executed(const std::vector<std::uint32_t>& byzantine_ids = {}) {
    proto::SeqNum lo = std::numeric_limits<proto::SeqNum>::max();
    for (std::uint32_t id = 0; id < opts_.n; ++id) {
      if (is_in(id, byzantine_ids)) continue;
      lo = std::min(lo, replica(id).executed_through());
    }
    return lo;
  }

 private:
  static bool is_in(std::uint32_t id, const std::vector<std::uint32_t>& ids) {
    return std::find(ids.begin(), ids.end(), id) != ids.end();
  }

  static sim::NetworkConfig make_net_config() {
    sim::NetworkConfig cfg;
    cfg.propagation_delay = 100 * sim::kMicrosecond;  // tight for fast tests
    return cfg;
  }

  ClusterOptions opts_;
  sim::Simulator sim_;
  sim::Network net_;
  crypto::ThresholdScheme ts_;
  core::ProtocolMetrics metrics_;
  std::vector<protocol::Trace> traces_;
  std::vector<protocol::SimReplica> replicas_;
  std::vector<protocol::SimClient> clients_;
  bool started_ = false;
};

}  // namespace leopard::test
