// In-process cluster of the src/node/ library: four ReplicaNodes and one
// ClientNode on loopback, each node on its own thread with its own
// obs::Registry. For S in {1, 2} and all three protocol specs, the client's
// requests must all be acked and every replica must report the same merged
// exec_digest and the same per-shard digests.
//
// At S = 1 the sequencer passes the core's stream through, so the WAL must
// hold the core's own coordinates: folding the WAL entries' (seq, ordinal)
// with node::fold_execute has to reproduce shard0_digest, the fold of the
// core's (sn, link index) stream. That is what lets a data dir written by a
// single-instance replica recover under the one composition.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/manifest.hpp"
#include "node/node.hpp"
#include "obs/metrics.hpp"
#include "store/replica_store.hpp"

namespace {

namespace lp = leopard;

constexpr std::uint32_t kReplicas = 4;
constexpr std::uint64_t kRequests = 300;

/// Picks distinct free loopback ports, holding every probe socket open until
/// all are chosen so the kernel cannot hand out the same port twice.
std::vector<std::uint16_t> pick_free_ports(std::size_t count) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    ports.push_back(ntohs(addr.sin_port));
    fds.push_back(fd);
  }
  for (const int fd : fds) ::close(fd);
  return ports;
}

lp::net::Manifest make_manifest(const std::string& protocol, std::uint32_t shards) {
  std::ostringstream text;
  text << "protocol " << protocol << "\n"
       << "n " << kReplicas << "\n"
       << "seed 7\n"
       << "payload_size 64\n"
       << "datablock_requests 50\n"
       << "bftblock_links 4\n"
       << "max_parallel_instances 40\n"
       << "datablock_max_wait_ms 20\n"
       << "proposal_max_wait_ms 10\n"
       << "retrieval_timeout_ms 20\n"
       << "view_timeout_ms 60000\n"  // no spurious view changes under sanitizers
       << "batch_size 50\n"
       << "shards " << shards << "\n";
  const auto ports = pick_free_ports(kReplicas);
  for (std::uint32_t id = 0; id < kReplicas; ++id) {
    text << "node " << id << " 127.0.0.1:" << ports[id] << "\n";
  }
  return lp::net::Manifest::parse(text.str());
}

/// key=value tokens of a node report.
std::map<std::string, std::string> parse_report(const std::string& report) {
  std::map<std::string, std::string> kv;
  std::istringstream in(report);
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq != std::string::npos) kv[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return kv;
}

struct Spec {
  const char* protocol;
  std::uint32_t shards;
};

class NodeCluster : public ::testing::TestWithParam<Spec> {};

TEST_P(NodeCluster, CommitsWithEqualDigestsAcrossReplicas) {
  const auto [protocol, shards] = GetParam();
  std::signal(SIGPIPE, SIG_IGN);
  const auto manifest = make_manifest(protocol, shards);
  char tmpl[] = "/tmp/leopard_node_test_XXXXXX";
  const std::string dir = ::mkdtemp(tmpl);
  const auto data_dir = [&](std::uint32_t id) { return dir + "/data" + std::to_string(id); };

  std::vector<std::unique_ptr<lp::obs::Registry>> registries;
  std::vector<std::unique_ptr<lp::node::ReplicaNode>> replicas;
  for (std::uint32_t id = 0; id < kReplicas; ++id) {
    lp::node::ReplicaOptions opts;
    opts.id = id;
    opts.data_dir = data_dir(id);
    opts.fsync = lp::store::FsyncPolicy::kNever;
    registries.push_back(std::make_unique<lp::obs::Registry>());
    std::string error;
    replicas.push_back(lp::node::ReplicaNode::open(manifest, opts, *registries.back(), &error));
    ASSERT_NE(replicas.back(), nullptr) << error;
  }
  std::vector<std::thread> threads;
  for (auto& replica : replicas) threads.emplace_back([&replica] { replica->run(); });
  const auto stop_all = [&] {
    for (auto& replica : replicas) replica->stop();
    for (auto& t : threads) t.join();
    threads.clear();
  };
  // Stops the replicas and removes the data dirs also when an assertion
  // returns early.
  struct OnExit {
    std::function<void()> fn;
    ~OnExit() { fn(); }
  } on_exit{[&] {
    stop_all();
    std::filesystem::remove_all(dir);
  }};

  lp::node::ClientOptions copts;
  copts.id = 100;
  copts.requests = kRequests;
  copts.window = 32;
  lp::obs::Registry client_registry;
  std::string error;
  auto client = lp::node::ClientNode::open(manifest, copts, client_registry, &error);
  ASSERT_NE(client, nullptr) << error;
  client->run([&] { return client->now() >= lp::sim::from_seconds(90); });
  ASSERT_TRUE(client->done()) << client->report();
  EXPECT_EQ(parse_report(client->report()).at("acked"), std::to_string(kRequests));

  // The last ack proves SOME replica executed: let the others drain the last
  // commit-carrying broadcasts (and at S > 1 the stall ticks flush trailing
  // rounds) before the digest snapshot.
  std::this_thread::sleep_for(std::chrono::milliseconds(shards > 1 ? 1000 : 500));
  stop_all();

  std::vector<std::map<std::string, std::string>> reports;
  for (auto& replica : replicas) reports.push_back(parse_report(replica->report()));
  for (std::uint32_t id = 0; id < kReplicas; ++id) {
    const auto& r = reports[id];
    ASSERT_TRUE(r.contains("exec_digest")) << "replica " << id;
    EXPECT_EQ(r.at("exec_digest"), reports[0].at("exec_digest")) << "replica " << id;
    EXPECT_EQ(r.at("shards"), std::to_string(shards)) << "replica " << id;
    for (std::uint32_t s = 0; s < shards; ++s) {
      const auto key = "shard" + std::to_string(s) + "_digest";
      EXPECT_EQ(r.at(key), reports[0].at(key)) << "replica " << id << " " << key;
    }
    EXPECT_GE(std::stoull(r.at("executed_requests")), kRequests) << "replica " << id;
    EXPECT_EQ(r.at("sync_live"), "1") << "replica " << id;
    EXPECT_EQ(r.at("decode_errors"), "0") << "replica " << id;
    EXPECT_EQ(r.at("store_append_errors"), "0") << "replica " << id;
    if (std::string(protocol) == "leopard") {
      EXPECT_EQ(r.at("state_digest"), reports[0].at("state_digest")) << "replica " << id;
    }
  }
  replicas.clear();  // closes the stores
  if (shards != 1) return;

  for (std::uint32_t id = 0; id < kReplicas; ++id) {
    lp::store::StoreOptions sopts;
    sopts.dir = data_dir(id);
    lp::store::ReplicaStore store(sopts);
    ASSERT_TRUE(store.open(lp::store::RecoverMode::kStrict).ok()) << "replica " << id;
    std::vector<lp::store::WalEntry> entries;
    ASSERT_TRUE(store.read_entries(0, store.entries(), entries)) << "replica " << id;
    EXPECT_EQ(std::to_string(entries.size()), reports[id].at("shard0_blocks")) << id;
    lp::crypto::Digest fold;
    for (const auto& e : entries) {
      fold = lp::node::fold_execute(fold, e.block_digest, e.seq, e.ordinal);
    }
    EXPECT_EQ(fold.hex(), reports[id].at("shard0_digest"))
        << "replica " << id << ": WAL (seq, ordinal) differ from the core's (sn, link index)";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecs, NodeCluster,
    ::testing::Values(Spec{"leopard", 1}, Spec{"hotstuff", 1}, Spec{"pbft", 1},
                      Spec{"leopard", 2}, Spec{"hotstuff", 2}, Spec{"pbft", 2}),
    [](const ::testing::TestParamInfo<Spec>& info) {
      return std::string(info.param.protocol) + "_S" + std::to_string(info.param.shards);
    });

}  // namespace
