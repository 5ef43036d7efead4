// leopard_node: run one replica of a real-wire Leopard/HotStuff/PBFT cluster,
// or a closed-loop client driver, from a cluster manifest (net/manifest.hpp).
// The node itself is the src/node/ library (node::ReplicaNode and
// node::ClientNode); this tool parses arguments and prints the report.
//
// Replica mode (one process per replica):
//
//   leopard_node --manifest cluster.conf --id 2 [--run-for SECONDS]
//
// Hosts the manifest's protocol as S >= 1 shards (`--shards`, default the
// manifest's, normally 1) over one SocketEnv: real nonblocking TCP to every
// peer, wire framing, timer wheels. Runs until SIGINT/SIGTERM (or --run-for
// elapses), then prints a key=value report: executed request count, the
// Execute-stream fold digest (exec_digest, equal across honest replicas),
// Leopard's state_digest, per-shard digests, and transport stats.
//
// Client mode (the throughput driver):
//
//   leopard_node --manifest cluster.conf --client --id 100 --requests 500
//                [--window 64] [--payload 128] [--resubmit-ms 1000]
//                [--timeout SECONDS]
//
// Submits a closed-loop window of requests (Leopard: µ(req)-routed to
// non-leader replicas; baselines: to the leader), waits for every ack, and
// reports achieved kreq/s plus latency. Exits non-zero if the run times out
// before all requests are acked.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "chaos/interposer.hpp"
#include "net/manifest.hpp"
#include "node/node.hpp"
#include "obs/metrics.hpp"
#include "shard/sequencer.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

struct Args {
  std::string manifest_path;
  bool id_set = false;
  bool client = false;
  double run_for = -1;         // replica: seconds before voluntary shutdown
  double timeout = 120;        // client: give-up deadline
  std::string report_path;     // optional: also write the report to a file
  leopard::node::ReplicaOptions replica;
  leopard::node::ClientOptions client_opts;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --manifest FILE --id ID [--run-for SEC] [--shards S]\n"
               "          [--io-threads N]\n"
               "          [--byzantine equivocate|silence|garbage-shares|laggard]\n"
               "          [--byzantine-lag-ms MS]\n"
               "          [--data-dir DIR] [--recover strict|truncate]\n"
               "          [--fsync always|interval|none] [--fsync-interval-ms MS]\n"
               "          [--snapshot-every N]\n"
               "          [--metrics-addr HOST:PORT] [--trace-sample N] [--report FILE]\n"
               "       %s --manifest FILE --id ID --client --requests N [--window W]\n"
               "          [--payload BYTES] [--resubmit-ms MS] [--timeout SEC]\n"
               "          [--shards S] [--metrics-addr HOST:PORT] [--report FILE]\n"
               "  --shards S      protocol shards per node, the same on every node\n"
               "                  (default: the manifest's `shards`, normally 1)\n"
               "  --io-threads N  threads running the shard cores; at S = 1 the one\n"
               "                  core stays on the transport thread\n"
               "  (see docs/DEPLOY.md)\n",
               argv0, argv0);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  auto& r = args.replica;
  auto& c = args.client_opts;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--manifest") {
      args.manifest_path = next();
    } else if (arg == "--id") {
      r.id = static_cast<leopard::sim::NodeId>(std::strtoul(next(), nullptr, 10));
      args.id_set = true;
    } else if (arg == "--client") {
      args.client = true;
    } else if (arg == "--run-for") {
      args.run_for = std::strtod(next(), nullptr);
    } else if (arg == "--timeout") {
      args.timeout = std::strtod(next(), nullptr);
    } else if (arg == "--requests") {
      c.requests = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--window") {
      c.window = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--payload") {
      c.payload = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--resubmit-ms") {
      c.resubmit_ms = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--shards") {
      r.shards = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
      if (r.shards < 1 || r.shards > leopard::shard::kMaxShards) {
        std::fprintf(stderr, "--shards out of range\n");
        usage(argv[0]);
      }
    } else if (arg == "--io-threads") {
      r.io_threads = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
      if (r.io_threads < 1 || r.io_threads > 64) {
        std::fprintf(stderr, "--io-threads out of range\n");
        usage(argv[0]);
      }
    } else if (arg == "--report") {
      args.report_path = next();
    } else if (arg == "--metrics-addr") {
      r.metrics_addr = next();
    } else if (arg == "--trace-sample") {
      r.trace_sample = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--byzantine") {
      r.byzantine = next();
      if (!leopard::chaos::parse_wire_attack(r.byzantine)) {
        std::fprintf(stderr, "unknown --byzantine mode '%s'\n", r.byzantine.c_str());
        usage(argv[0]);
      }
    } else if (arg == "--byzantine-lag-ms") {
      r.byzantine_lag_ms = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--data-dir") {
      r.data_dir = next();
    } else if (arg == "--recover") {
      const std::string_view mode = next();
      if (mode == "strict") {
        r.recover = leopard::store::RecoverMode::kStrict;
      } else if (mode == "truncate") {
        r.recover = leopard::store::RecoverMode::kTruncate;
      } else {
        std::fprintf(stderr, "--recover must be strict or truncate\n");
        usage(argv[0]);
      }
    } else if (arg == "--fsync") {
      const std::string_view policy = next();
      if (policy == "always") {
        r.fsync = leopard::store::FsyncPolicy::kAlways;
      } else if (policy == "interval") {
        r.fsync = leopard::store::FsyncPolicy::kInterval;
      } else if (policy == "none") {
        r.fsync = leopard::store::FsyncPolicy::kNever;
      } else {
        std::fprintf(stderr, "--fsync must be always, interval, or none\n");
        usage(argv[0]);
      }
    } else if (arg == "--fsync-interval-ms") {
      r.fsync_interval_ms = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--snapshot-every") {
      r.snapshot_every = std::strtoull(next(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", std::string(arg).c_str());
      usage(argv[0]);
    }
  }
  if (args.manifest_path.empty() || !args.id_set) usage(argv[0]);
  if (args.client && c.requests == 0) usage(argv[0]);
  // --id, --shards and --metrics-addr mean the same in both modes.
  static_cast<leopard::node::NodeOptions&>(c) = r;
  return args;
}

void emit_report(const Args& args, const std::string& report) {
  std::fputs(report.c_str(), stdout);
  std::fflush(stdout);
  if (!args.report_path.empty()) {
    std::ofstream out(args.report_path);
    out << report;
  }
}

int replica_main(const Args& args, const leopard::net::Manifest& manifest) {
  namespace lp = leopard;
  lp::node::size_worker_pool(manifest);
  std::string error;
  auto node = lp::node::ReplicaNode::open(manifest, args.replica, lp::obs::Registry::global(),
                                          &error);
  if (node == nullptr) {
    std::fprintf(stderr, "leopard_node: %s\n", error.c_str());
    return 3;
  }
  const auto deadline =
      args.run_for >= 0 ? lp::sim::from_seconds(args.run_for) : lp::sim::SimTime{-1};
  node->run([&] { return g_stop != 0 || (deadline >= 0 && node->now() >= deadline); });
  emit_report(args, node->report());
  return 0;
}

int client_main(const Args& args, const leopard::net::Manifest& manifest) {
  namespace lp = leopard;
  std::string error;
  auto node = lp::node::ClientNode::open(manifest, args.client_opts, lp::obs::Registry::global(),
                                         &error);
  if (node == nullptr) {
    std::fprintf(stderr, "leopard_node: %s\n", error.c_str());
    return 3;
  }
  const auto deadline = lp::sim::from_seconds(args.timeout);
  node->run([&] { return g_stop != 0 || node->now() >= deadline; });
  emit_report(args, node->report());
  return node->done() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  try {
    const auto manifest = leopard::net::Manifest::parse_file(args.manifest_path);
    if (!args.client && args.replica.id >= manifest.n) {
      std::fprintf(stderr, "replica id %u out of range (n=%u); did you mean --client?\n",
                   args.replica.id, manifest.n);
      return 2;
    }
    return args.client ? client_main(args, manifest) : replica_main(args, manifest);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "leopard_node: %s\n", e.what());
    return 2;
  }
}
