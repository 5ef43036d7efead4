// The sim-layer measurement: Leopard at n = 64 with Table II batches,
// offered a fixed 160 kreq/s open loop (1.5x the harness capacity estimate),
// the ROADMAP's overload collapse.
//
// First harness::run_experiment runs as is: the reference, and the source of
// the simulated bandwidth and stage fractions. Then the same cluster is
// rebuilt from the public factories (make_protocol, SimEnv, LeopardClient)
// with every replica core wrapped in ProbeCore, which times the
// Protocol::on_* handlers and the Env::apply calls they make, and every
// client wrapped so that its submit-to-ack latencies are copied out exactly
// (the harness keeps them only in a histogram with ~3 % buckets). The event
// count is what Simulator::run_until returns. run.py checks that the probed
// run reproduces the harness's executed and acked counts exactly, which shows
// the probes changed nothing.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/client.hpp"
#include "crypto/threshold_sig.hpp"
#include "harness/experiment.hpp"
#include "load.hpp"
#include "obs/json.hpp"
#include "protocol/factory.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "util/worker_pool.hpp"

namespace e2e {
namespace {

namespace lp = leopard;
using Clock = std::chrono::steady_clock;

// Pinned workload. Warmup and window are absolute simulated times so that a
// change to the harness's automatic window sizing cannot change the workload.
// Commits at this overload arrive in bursts of whole BFTblocks (up to ~10^5
// requests); a 20 s window spans several.
constexpr std::uint32_t kN = 64;
constexpr std::uint32_t kDatablockRequests = 2000;
constexpr std::uint32_t kBftblockLinks = 100;
constexpr std::uint32_t kPayload = 128;
constexpr double kOfferedLoad = 160000.0;
constexpr lp::sim::SimTime kWarmup = 7 * lp::sim::kSecond;
constexpr lp::sim::SimTime kWindow = 20 * lp::sim::kSecond;

lp::harness::ExperimentConfig workload(std::uint64_t seed) {
  lp::harness::ExperimentConfig cfg;
  cfg.protocol = lp::harness::Protocol::kLeopard;
  cfg.n = kN;
  cfg.payload_size = kPayload;
  cfg.datablock_requests = kDatablockRequests;
  cfg.bftblock_links = kBftblockLinks;
  cfg.offered_load = kOfferedLoad;
  cfg.warmup = kWarmup;
  cfg.measure = kWindow;
  cfg.seed = seed;
  return cfg;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Time spent in the decorated replica cores, summed over every replica.
struct CoreTimes {
  std::uint64_t calls = 0;
  double handle_s = 0;  // inclusive time inside Protocol::on_*
  double apply_s = 0;   // time inside Env::apply, called from those handlers
};

/// What a probe records: replica probes time, client probes copy
/// latencies. Null members record nothing.
struct ProbeSinks {
  CoreTimes* times = nullptr;                // replica handler and apply times
  std::vector<double>* latencies = nullptr;  // client submit-to-ack seconds
};

/// Env decorator: forwards every call to the hosting SimEnv, timing apply
/// and copying out ack-latency samples on the way.
class ProbeEnv final : public lp::protocol::Env {
 public:
  ProbeEnv(lp::protocol::Env& inner, ProbeSinks sinks) : inner_(inner), sinks_(sinks) {}

  [[nodiscard]] lp::sim::SimTime now() const override { return inner_.now(); }
  [[nodiscard]] const lp::sim::CostModel& costs() const override { return inner_.costs(); }
  void apply(lp::protocol::Action action) override {
    if (sinks_.latencies != nullptr) {
      if (const auto* m = std::get_if<lp::protocol::MetricsUpdate>(&action);
          m != nullptr && m->metric == lp::protocol::Metric::kAckLatencySample) {
        sinks_.latencies->push_back(m->value);
      }
    }
    if (sinks_.times == nullptr) {
      inner_.apply(std::move(action));
      return;
    }
    const auto t0 = Clock::now();
    inner_.apply(std::move(action));
    sinks_.times->apply_s += seconds_since(t0);
  }

 private:
  lp::protocol::Env& inner_;
  ProbeSinks sinks_;
};

/// Protocol decorator: runs the wrapped core against a ProbeEnv and times
/// every handler. It changes no event, action or order; the traced run's
/// counts matching run_experiment's is the check.
class ProbeCore final : public lp::protocol::Protocol {
 public:
  ProbeCore(lp::protocol::Protocol& inner, lp::protocol::Env& host, ProbeSinks sinks)
      : inner_(inner), env_(host, sinks), times_(sinks.times) {}

  [[nodiscard]] lp::proto::ReplicaId id() const override { return inner_.id(); }

  void on_start(lp::protocol::Env&) override {
    timed([&] { inner_.on_start(env_); });
  }
  void on_message(lp::protocol::Env&, lp::protocol::NodeId from,
                  const lp::sim::PayloadPtr& payload) override {
    timed([&] { inner_.on_message(env_, from, payload); });
  }
  void on_timer(lp::protocol::Env&, lp::protocol::TimerToken token) override {
    timed([&] { inner_.on_timer(env_, token); });
  }
  void on_client_request(lp::protocol::Env&, lp::protocol::NodeId from,
                         const std::shared_ptr<const lp::proto::ClientRequestMsg>& msg) override {
    timed([&] { inner_.on_client_request(env_, from, msg); });
  }

 private:
  template <typename F>
  void timed(F&& fn) {
    if (times_ == nullptr) {
      fn();
      return;
    }
    const auto t0 = Clock::now();
    fn();
    times_->handle_s += seconds_since(t0);
    ++times_->calls;
  }

  lp::protocol::Protocol& inner_;
  ProbeEnv env_;
  CoreTimes* times_;
};

/// The run_experiment cluster for `cfg` (Leopard only), rebuilt from the
/// public factories with every core probed. Construction mirrors
/// harness/experiment.cpp and protocol/factory.cpp step for step: same ids,
/// same order, same seeds.
struct Cluster {
  lp::sim::Simulator sim;
  std::unique_ptr<lp::sim::Network> net;
  std::unique_ptr<lp::crypto::ThresholdScheme> ts;
  lp::core::ProtocolMetrics metrics;
  std::vector<std::unique_ptr<lp::protocol::Protocol>> cores;
  std::vector<std::unique_ptr<lp::core::LeopardClient>> clients;
  std::vector<std::unique_ptr<lp::protocol::SimEnv>> envs;
  std::vector<std::unique_ptr<ProbeCore>> probes;
  std::vector<double> latencies;

  Cluster(const lp::harness::ExperimentConfig& cfg, CoreTimes& times) {
    lp::util::WorkerPool::global().resize(std::max<std::uint32_t>(cfg.encode_workers, 1));
    lp::sim::NetworkConfig net_cfg;
    net_cfg.default_out_bps = cfg.bandwidth_bps;
    net_cfg.default_in_bps = cfg.bandwidth_bps;
    net_cfg.shared_duplex = cfg.shared_duplex;
    net = std::make_unique<lp::sim::Network>(sim, net_cfg);
    const std::uint32_t f = (cfg.n - 1) / 3;
    ts = std::make_unique<lp::crypto::ThresholdScheme>(cfg.n, 2 * f + 1, cfg.seed);
    const lp::sim::NodeId leader = 1 % cfg.n;

    const std::uint32_t backlog = std::max<std::uint32_t>(3 * cfg.datablock_requests, 4000);
    lp::core::LeopardConfig lcfg;
    lcfg.n = cfg.n;
    lcfg.datablock_requests = cfg.datablock_requests;
    lcfg.bftblock_links = cfg.bftblock_links;
    lcfg.payload_size = cfg.payload_size;
    lcfg.mempool_capacity = backlog;
    lcfg.enable_ready_round = cfg.enable_ready_round;
    lcfg.encode_workers = cfg.encode_workers;
    lcfg.view_timeout = 3600 * lp::sim::kSecond;  // as the harness: no view change wanted
    lp::protocol::ProtocolSpec spec;
    spec.config = lcfg;

    for (std::uint32_t id = 0; id < cfg.n; ++id) {
      cores.push_back(lp::protocol::make_protocol(spec, *ts, id));
      auto& env = *envs.emplace_back(std::make_unique<lp::protocol::SimEnv>(*net, metrics, cfg.n));
      env.attach(*probes.emplace_back(
          std::make_unique<ProbeCore>(*cores.back(), env, ProbeSinks{&times, nullptr})));
      const auto node_id = net->add_node(&env);
      lp::util::ensures(node_id == id, "replica node ids must equal replica ids");
      env.set_node_id(node_id);
    }
    const double per_group = cfg.offered_load / static_cast<double>(cfg.n - 1);
    for (std::uint32_t id = 0; id < cfg.n; ++id) {
      if (id == leader) continue;
      lp::core::ClientConfig ccfg;
      ccfg.request_rate = per_group;
      ccfg.payload_size = cfg.payload_size;
      ccfg.resubmit_timeout = cfg.client_resubmit_timeout;
      ccfg.initial_backlog = backlog;
      auto& client = *clients.emplace_back(std::make_unique<lp::core::LeopardClient>(
          ccfg, id, cfg.n, leader, cfg.seed + 1000 + id));
      auto& env = *envs.emplace_back(std::make_unique<lp::protocol::SimEnv>(*net, metrics, cfg.n));
      env.attach(*probes.emplace_back(
          std::make_unique<ProbeCore>(client, env, ProbeSinks{nullptr, &latencies})));
      const auto node_id = net->add_node(&env, /*metered=*/false);
      client.set_self_id(node_id);
      env.set_node_id(node_id);
    }
  }
};

struct Measured {
  double window_wall_s = 0;
  std::uint64_t events = 0;  // simulator events in the window
  std::uint64_t executed = 0;
  std::uint64_t acked = 0;
  bool safety_violation = false;
  std::vector<double> latencies;  // ack latencies recorded in the window
};

/// Builds the probed cluster and runs warmup then window, as run_experiment
/// does. Handler times count from the window start.
Measured measure(const lp::harness::ExperimentConfig& cfg, CoreTimes& times) {
  Measured m;
  Cluster c(cfg, times);
  c.net->start_all();
  c.sim.run_until(cfg.warmup);
  c.net->traffic().mark_measurement_start(c.sim.now());
  const auto base = c.metrics;
  c.latencies.clear();
  times = CoreTimes{};
  const auto t0 = Clock::now();
  m.events = c.sim.run_until(cfg.warmup + cfg.measure);
  m.window_wall_s = seconds_since(t0);
  m.executed = c.metrics.executed_requests - base.executed_requests;
  m.acked = c.metrics.acked_requests - base.acked_requests;
  m.safety_violation = c.metrics.safety_violation;
  m.latencies = std::move(c.latencies);
  return m;
}

void write_component(lp::obs::JsonWriter& w, const char* name,
                     const lp::harness::ComponentBandwidth& b, lp::sim::Component c) {
  w.key(name).value(b.send_bps[static_cast<std::size_t>(c)]);
}

}  // namespace

int run_sim(int argc, char** argv) {
  const auto seed_flag = flag(argc, argv, "--seed");
  const auto out_path = flag(argc, argv, "--out");
  if (seed_flag.empty() || out_path.empty()) {
    std::fprintf(stderr, "e2e_load sim: needs --seed and --out\n");
    return 2;
  }
  const auto seed = std::stoull(seed_flag);
  const auto cfg = workload(seed);

  lp::obs::JsonWriter w;
  w.object_begin();
  w.key("seed").value(static_cast<std::uint64_t>(seed));
  w.key("offered_load").value(kOfferedLoad);
  w.key("capacity_estimate").value(lp::harness::estimate_capacity(cfg));
  w.key("warmup_s").value(lp::sim::to_seconds(kWarmup));
  w.key("window_s").value(lp::sim::to_seconds(cfg.measure));

  const double cpu0 = process_cpu_seconds();
  const auto r = lp::harness::run_experiment(cfg);
  w.key("harness").object_begin();
  w.key("cpu_s").value(process_cpu_seconds() - cpu0);
  w.key("executed").value(r.executed_requests);
  w.key("acked").value(r.acked_requests);
  w.key("p50_latency_s").value(r.p50_latency_sec);
  w.key("p99_latency_s").value(r.p99_latency_sec);
  w.key("safety_violation").value(r.safety_violation);
  w.key("leader_send_bps").value(r.leader_send_bps);
  w.key("leader_recv_bps").value(r.leader_recv_bps);
  w.key("leader_send_bps_by").object_begin();
  write_component(w, "datablock", r.leader_breakdown, lp::sim::Component::kDatablock);
  write_component(w, "bftblock", r.leader_breakdown, lp::sim::Component::kBftBlock);
  write_component(w, "vote", r.leader_breakdown, lp::sim::Component::kVote);
  write_component(w, "proof", r.leader_breakdown, lp::sim::Component::kProof);
  write_component(w, "ready", r.leader_breakdown, lp::sim::Component::kReady);
  w.object_end();
  w.key("frac_generation").value(r.frac_generation);
  w.key("frac_dissemination").value(r.frac_dissemination);
  w.key("frac_agreement").value(r.frac_agreement);
  w.object_end();

  CoreTimes times;
  const auto probed = measure(cfg, times);
  w.key("probed").object_begin();
  w.key("window_wall_s").value(probed.window_wall_s);
  w.key("events").value(probed.events);
  w.key("executed").value(probed.executed);
  w.key("acked").value(probed.acked);
  w.key("safety_violation").value(probed.safety_violation);
  w.key("core_calls").value(times.calls);
  w.key("core_handle_s").value(times.handle_s);
  w.key("core_apply_s").value(times.apply_s);
  w.object_end();
  w.object_end();

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "e2e_load sim: cannot write %s\n", out_path.c_str());
    return 2;
  }
  for (const double s : probed.latencies) {
    std::fprintf(out, "%lld\n", static_cast<long long>(s * 1e9));
  }
  std::fclose(out);
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace e2e
