// One node composition for a real-wire deployment. A Leopard replica is one
// thing — datablock generation, BFT agreement and retrieval (paper §IV) — and
// ReplicaNode composes it once, for any shard count S >= 1:
//
//   transport  one net::SocketEnv: TCP to every peer, wire framing, timer
//              wheels, the epoll loop.
//   shards     S unmodified protocol cores, each behind a shard::MuxEnv.
//              Shard s hosts core-level replica (id - s) mod n under the
//              threshold domain seed + s, so each shard's leader lands on a
//              different machine. Shard 0 travels as bare frames: S = 1 is
//              the classic single-instance deployment, byte-identical on the
//              wire, and with S = 1 `io_threads` spawns no worker.
//   sequencer  shard::Sequencer merges the S commit streams into one global
//              stream. At S = 1 it emits each record of the open round as it
//              arrives, so (gseq, gordinal) = (sn, link index).
//   state      store::StateSync folds the merged stream (exec_digest),
//              appends it to the ReplicaStore WAL when a data dir is set,
//              and catches a restarted replica up from its peers.
//   chaos      under `byzantine`, each core is wrapped in a
//              chaos::ByzantineInterposer, which also taps state-sync sends
//              so the attack covers every byte the node sends.
//   obs        the request-stage tracer, the transport and core series in
//              the given obs::Registry, and /metrics, /statusz and /healthz
//              on the transport loop when `metrics_addr` is set.
//
// ClientNode is the matching closed-loop driver: S LeopardClients behind
// MuxEnvs over one SocketEnv, with the request index space hash-partitioned
// across shards (shard::shard_of) and the window split between them.
//
// Both take the obs::Registry as a parameter, so several nodes can share a
// process (tests/node_test.cpp). Instruments that library layers register on
// their own (store and erasure histograms, interposer counters) still land in
// obs::Registry::global().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/interposer.hpp"
#include "core/client.hpp"
#include "core/replica.hpp"
#include "crypto/digest.hpp"
#include "crypto/threshold_sig.hpp"
#include "net/manifest.hpp"
#include "net/socket_env.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "protocol/protocol.hpp"
#include "shard/mux_env.hpp"
#include "shard/sequencer.hpp"
#include "store/replica_store.hpp"
#include "store/state_sync.hpp"

namespace leopard::node {

/// Options every node kind shares.
struct NodeOptions {
  sim::NodeId id = 0;
  /// Parallel protocol instances; 0 = the manifest's `shards`. Every node of
  /// a cluster must agree.
  std::uint32_t shards = 0;
  /// HOST:PORT, :PORT or PORT for /metrics, /statusz and /healthz; empty
  /// disables the endpoint.
  std::string metrics_addr;
};

struct ReplicaOptions : NodeOptions {
  /// Threads for the shard cores (net::SocketEnvOptions::io_threads).
  std::uint32_t io_threads = 1;
  /// Stage tracer 1-in-N span sampling (0 = histograms only).
  std::uint32_t trace_sample = 64;
  /// A chaos::parse_wire_attack mode; empty = honest.
  std::string byzantine;
  std::uint32_t byzantine_lag_ms = 150;
  /// Durable store; an empty dir runs without persistence.
  std::string data_dir;
  store::RecoverMode recover = store::RecoverMode::kStrict;
  store::FsyncPolicy fsync = store::FsyncPolicy::kAlways;
  std::uint32_t fsync_interval_ms = 50;
  std::uint64_t snapshot_every = 4096;
};

struct ClientOptions : NodeOptions {
  std::uint64_t requests = 0;  // total requests to drive (> 0)
  std::uint32_t window = 64;   // closed-loop window, split across shards
  std::uint32_t payload = 0;   // payload bytes (0 = the manifest's)
  std::uint32_t resubmit_ms = 1000;
};

/// Sizes the process-wide erasure/crypto worker pool from the manifest's
/// `encode_workers` (0 = one lane per hardware thread). The pool has a single
/// dispatcher, so a process hosting several nodes leaves it at one lane.
void size_worker_pool(const net::Manifest& manifest);

/// The shard-local stream fold a replica reports as shardN_digest: chains
/// (fold, block digest, seq, ordinal) through SHA-256 per Execute record.
[[nodiscard]] crypto::Digest fold_execute(const crypto::Digest& fold,
                                          const crypto::Digest& block_digest,
                                          std::uint64_t seq, std::uint32_t ordinal);

class ReplicaNode {
 public:
  /// Builds replica `opts.id` of `manifest`: recovers the data dir and binds
  /// the metrics endpoint before touching the network. Returns nullptr with
  /// `*error` set when the data dir is unusable (a corrupt store under
  /// RecoverMode::kStrict) or the endpoint cannot bind.
  static std::unique_ptr<ReplicaNode> open(const net::Manifest& manifest,
                                           const ReplicaOptions& opts,
                                           obs::Registry& registry, std::string* error);

  ReplicaNode(const ReplicaNode&) = delete;
  ReplicaNode& operator=(const ReplicaNode&) = delete;

  /// Starts state sync, then serves until stop() or `should_stop` returns
  /// true (checked at least every 100 ms), then flushes the store. Call once.
  void run(const std::function<bool()>& should_stop = {});
  /// Ends a concurrent run(). Thread- and signal-safe.
  void stop() { env_.stop(); }
  [[nodiscard]] sim::SimTime now() const { return env_.now(); }

  /// key=value report lines (docs/DEPLOY.md). Call after run() returns.
  [[nodiscard]] std::string report();

 private:
  /// Per-shard state: the hosted core and its env, plus the shard-local
  /// stream totals for the report.
  struct Shard {
    std::unique_ptr<protocol::Protocol> core;  // possibly byzantine-wrapped
    std::unique_ptr<shard::MuxEnv> mux;
    const core::LeopardReplica* leopard = nullptr;  // the inner core, Leopard only
    chaos::ByzantineInterposer* byz = nullptr;
    std::uint64_t requests = 0;
    std::uint64_t blocks = 0;
    crypto::Digest fold;
  };

  ReplicaNode(const net::Manifest& manifest, const ReplicaOptions& opts,
              obs::Registry& registry);
  bool init(std::string* error);
  void add_shard(std::uint32_t s);
  void on_shard_execute(std::uint32_t s, const protocol::Execute& e);
  void on_global(const shard::GlobalRecord& record);
  void stall_tick();
  void register_metrics();
  [[nodiscard]] obs::HttpServer::Response statusz(std::string_view query);
  /// True when the shard cores run on the transport thread (S = 1 or one io
  /// thread), so scrape handlers may read their state.
  [[nodiscard]] bool cores_on_transport() const {
    return shards_.size() == 1 || opts_.io_threads <= 1;
  }
  /// Shard 0's Leopard core, when its state may be read (see above).
  [[nodiscard]] const core::LeopardReplica* readable_leopard() const {
    return cores_on_transport() ? shards_[0].leopard : nullptr;
  }

  net::Manifest manifest_;
  ReplicaOptions opts_;
  std::uint32_t f_;
  obs::Registry& registry_;
  net::SocketEnv env_;
  std::unique_ptr<store::ReplicaStore> store_;
  store::RecoveryResult recovery_;
  store::StateSync sync_;
  shard::Sequencer sequencer_;
  obs::StageTracer tracer_;
  std::vector<crypto::ThresholdScheme> schemes_;  // one per shard, outlive the cores
  std::vector<Shard> shards_;
  std::unique_ptr<obs::HttpServer> http_;

  // Stall detection (shard/sequencer.hpp): real records pushed but not yet
  // merged, resynced to zero whenever the sequencer drains completely.
  std::uint64_t pending_real_ = 0;
  std::uint64_t noops_injected_ = 0;
  std::uint64_t noop_seq_ = 0;
  std::uint64_t last_emitted_ = 0;
};

class ClientNode {
 public:
  /// Builds client `opts.id` (>= n) of `manifest`. Returns nullptr with
  /// `*error` set when the metrics endpoint cannot bind.
  static std::unique_ptr<ClientNode> open(const net::Manifest& manifest,
                                          const ClientOptions& opts,
                                          obs::Registry& registry, std::string* error);

  ClientNode(const ClientNode&) = delete;
  ClientNode& operator=(const ClientNode&) = delete;

  /// Drives requests until every one is acked, stop(), or `should_stop`.
  void run(const std::function<bool()>& should_stop = {});
  void stop() { env_.stop(); }
  [[nodiscard]] sim::SimTime now() const { return env_.now(); }

  /// True once every request was acked.
  [[nodiscard]] bool done() const;
  /// key=value report lines (docs/DEPLOY.md). Call after run() returns.
  [[nodiscard]] std::string report();

 private:
  ClientNode(const net::Manifest& manifest, const ClientOptions& opts,
             obs::Registry& registry);
  [[nodiscard]] std::uint64_t submitted() const;
  [[nodiscard]] std::uint64_t acked() const;

  net::Manifest manifest_;
  ClientOptions opts_;
  std::uint32_t shards_;
  obs::Registry& registry_;
  net::SocketEnv env_;
  std::vector<std::unique_ptr<core::LeopardClient>> subs_;
  std::vector<std::unique_ptr<shard::MuxEnv>> muxes_;
  std::unique_ptr<obs::HttpServer> http_;
  sim::SimTime finished_at_ = 0;  // when run() returned
};

}  // namespace leopard::node
