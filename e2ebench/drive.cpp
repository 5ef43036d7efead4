// Open-loop driver for a leopard_node cluster: one thread, one SocketEnv, one
// connection per replica.
//
// Requests follow a Poisson schedule drawn from --seed at a fixed rate. The
// schedule is fixed before the run, so a stall in the cluster or in the
// driver delays later sends but never thins the load. Each request's latency
// is taken from its due time (not its send time). How late the driver sent
// it is recorded beside it. Requests are routed by the protocol's µ(req)
// assignment, as leopard_node --client does. A request unacked after
// kResubmitAfter (1 s) goes again to the next non-leader replica (§IV-1: up
// to f changes reach an honest one); its latency still counts from the first
// due time.
//
// Timeline (all relative to the first event-loop iteration):
//   [0, W)          warmup; load runs, nothing is recorded
//   [W, W+M)        window; requests due here form the sample
//   [W+M, W+M+G)    grace; load goes on so the window's last datablocks
//                   fill by count, and acks of the sample still count
// A request of the sample still unacked at W+M+G keeps its censored age
// (W+M+G - due) as its latency, so losses cannot improve the percentiles.
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <vector>

#include "core/replica.hpp"
#include "load.hpp"
#include "net/manifest.hpp"
#include "net/socket_env.hpp"
#include "obs/json.hpp"
#include "util/rng.hpp"

namespace e2e {
namespace {

namespace lp = leopard;

// Pinned workload. run.py passes only the manifest, the seed, the window
// (run_seconds) and the sample file; everything else the load depends on is
// fixed here.
constexpr lp::sim::NodeId kDriverId = 100;
constexpr double kRate = 60000.0;  // offered requests/s, far under the knee
constexpr lp::sim::SimTime kWarmup = 2 * lp::sim::kSecond;
constexpr lp::sim::SimTime kGrace = 2500 * lp::sim::kMillisecond;
constexpr lp::sim::SimTime kResubmitAfter = lp::sim::kSecond;

/// What the driver takes from the manifest and from run.py.
struct DriveConfig {
  std::uint32_t n = 4;
  lp::sim::NodeId leader = 1;
  std::uint32_t payload = 128;
  lp::sim::SimTime window = 0;
  std::uint64_t seed = 1;
};

class OpenLoopDriver final : public lp::protocol::ProtocolBase {
 public:
  explicit OpenLoopDriver(const DriveConfig& cfg) : cfg_(cfg), rng_(cfg.seed) {
    const auto expected = static_cast<std::size_t>(
        kRate * lp::sim::to_seconds(kWarmup + cfg.window + kGrace) * 1.1);
    due_.reserve(expected);
    sent_.reserve(expected);
    acked_.reserve(expected);
    last_sent_.reserve(expected);
    target_.reserve(expected);
  }

  [[nodiscard]] lp::proto::ReplicaId id() const override {
    return static_cast<lp::proto::ReplicaId>(kDriverId);
  }

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] const std::vector<lp::sim::SimTime>& due() const { return due_; }
  [[nodiscard]] const std::vector<lp::sim::SimTime>& sent() const { return sent_; }
  [[nodiscard]] const std::vector<lp::sim::SimTime>& acked() const { return acked_; }
  [[nodiscard]] std::uint64_t acks_in_window() const { return acks_in_window_; }
  [[nodiscard]] std::uint64_t resubmits() const { return resubmits_; }
  [[nodiscard]] lp::sim::SimTime origin() const { return origin_; }
  [[nodiscard]] double window_cpu_s() const { return cpu_end_ - cpu_start_; }

 protected:
  void do_start() override {
    origin_ = now();
    next_due_ = origin_ + gap();
    env().set_timer(kWindowStart, kWarmup);
    env().set_timer(kWindowEnd, kWarmup + cfg_.window);
    env().set_timer(kFinish, kWarmup + cfg_.window + kGrace);
    env().set_timer(kResubmit, kResubmitScan);
    pace();
  }

  void do_timer(lp::protocol::TimerToken token) override {
    switch (token) {
      case kPace:
        pace();
        break;
      case kWindowStart:
        cpu_start_ = process_cpu_seconds();
        std::printf("window_start\n");
        std::fflush(stdout);
        break;
      case kWindowEnd:
        cpu_end_ = process_cpu_seconds();
        std::printf("window_end\n");
        std::fflush(stdout);
        break;
      case kResubmit:
        resubmit();
        env().set_timer(kResubmit, kResubmitScan);
        break;
      case kFinish:
        finished_ = true;
        break;
      default:
        break;
    }
  }

  void do_message(lp::protocol::NodeId, const lp::sim::PayloadPtr& payload) override {
    const auto* ack = dynamic_cast<const lp::proto::AckMsg*>(payload.get());
    if (ack == nullptr) return;
    const auto t = now();
    const bool in_window =
        t >= origin_ + kWarmup && t < origin_ + kWarmup + cfg_.window;
    for (const auto seq : ack->seqs) {
      if (seq >= acked_.size() || acked_[seq] >= 0) continue;  // unknown or re-acked
      acked_[seq] = t;
      if (in_window) ++acks_in_window_;
    }
  }

  void do_client_request(lp::protocol::NodeId, const lp::proto::ClientRequestMsg&) override {}

 private:
  enum Timer : lp::protocol::TimerToken {
    kPace = 1,
    kWindowStart,
    kWindowEnd,
    kResubmit,
    kFinish,
  };
  static constexpr lp::sim::SimTime kResubmitScan = 100 * lp::sim::kMillisecond;

  lp::sim::SimTime gap() {
    return lp::sim::from_seconds(rng_.exponential(1.0 / kRate));
  }

  /// Request `seq`. Its payload is a function of (seed, seq) alone, so a
  /// re-submission carries the same bytes and never draws from the
  /// schedule's generator.
  [[nodiscard]] lp::proto::Request make_request(std::uint64_t seq, lp::sim::SimTime due) const {
    lp::proto::Request req;
    req.client_id = kDriverId;
    req.seq = seq;
    req.payload_size = cfg_.payload;
    req.submitted_at = due;
    req.payload.resize(cfg_.payload);
    lp::util::Rng bytes(cfg_.seed * 0x9e3779b97f4a7c15ULL ^ seq);
    bytes.fill(req.payload.data(), req.payload.size());
    return req;
  }

  /// Sends every request whose due time has passed, one batch per replica,
  /// then sleeps until the next due time.
  void pace() {
    const auto t = now();
    const auto stop = origin_ + kWarmup + cfg_.window + kGrace;
    std::map<lp::protocol::NodeId, std::shared_ptr<lp::proto::ClientRequestMsg>> batches;
    while (next_due_ <= t && next_due_ < stop) {
      auto req = make_request(due_.size(), next_due_);
      const auto to = lp::core::assign_replica(req, cfg_.n, cfg_.leader);
      auto& batch = batches[to];
      if (!batch) batch = std::make_shared<lp::proto::ClientRequestMsg>();
      batch->requests.push_back(std::move(req));
      due_.push_back(next_due_);
      sent_.push_back(t);
      acked_.push_back(-1);
      last_sent_.push_back(t);
      target_.push_back(static_cast<std::uint8_t>(to));
      next_due_ += gap();
    }
    for (auto& [to, batch] : batches) env().send(to, std::move(batch));
    if (next_due_ < stop) env().set_timer(kPace, next_due_ - t);
  }

  /// Re-sends every request unacked for kResubmitAfter to the next
  /// non-leader replica. Scans from the oldest unacked request up to the
  /// first one sent too recently.
  void resubmit() {
    const auto t = now();
    while (oldest_unacked_ < acked_.size() && acked_[oldest_unacked_] >= 0) ++oldest_unacked_;
    std::map<lp::protocol::NodeId, std::shared_ptr<lp::proto::ClientRequestMsg>> batches;
    for (std::size_t i = oldest_unacked_; i < acked_.size(); ++i) {
      if (sent_[i] > t - kResubmitAfter) break;
      if (acked_[i] >= 0 || last_sent_[i] > t - kResubmitAfter) continue;
      auto to = (target_[i] + 1u) % cfg_.n;
      if (to == cfg_.leader) to = (to + 1) % cfg_.n;
      target_[i] = static_cast<std::uint8_t>(to);
      last_sent_[i] = t;
      ++resubmits_;
      auto& batch = batches[to];
      if (!batch) batch = std::make_shared<lp::proto::ClientRequestMsg>();
      batch->requests.push_back(make_request(i, due_[i]));
    }
    for (auto& [to, batch] : batches) env().send(to, std::move(batch));
  }

  DriveConfig cfg_;
  lp::util::Rng rng_;  // the Poisson schedule only
  lp::sim::SimTime origin_ = 0;
  lp::sim::SimTime next_due_ = 0;
  std::vector<lp::sim::SimTime> due_;
  std::vector<lp::sim::SimTime> sent_;
  std::vector<lp::sim::SimTime> acked_;  // -1 = not acked
  std::vector<lp::sim::SimTime> last_sent_;
  std::vector<std::uint8_t> target_;  // replica of the latest submission
  std::size_t oldest_unacked_ = 0;
  std::uint64_t acks_in_window_ = 0;
  std::uint64_t resubmits_ = 0;
  double cpu_start_ = 0;
  double cpu_end_ = 0;
  bool finished_ = false;
};

}  // namespace

int run_drive(int argc, char** argv) {
  const auto manifest_path = flag(argc, argv, "--manifest");
  const auto window_s = flag(argc, argv, "--window-s");
  const auto seed = flag(argc, argv, "--seed");
  const auto out_path = flag(argc, argv, "--out");
  if (manifest_path.empty() || window_s.empty() || seed.empty() || out_path.empty()) {
    std::fprintf(stderr, "e2e_load drive: needs --manifest, --window-s, --seed and --out\n");
    return 2;
  }
  const auto manifest = lp::net::Manifest::parse_file(manifest_path);
  if (manifest.protocol != "leopard" || manifest.n > 255) {
    std::fprintf(stderr, "e2e_load drive: needs a leopard manifest with n <= 255\n");
    return 2;
  }
  DriveConfig cfg;
  cfg.n = manifest.n;
  cfg.leader = manifest.initial_leader();
  cfg.payload = manifest.payload_size;
  cfg.window = lp::sim::from_seconds(std::stod(window_s));
  cfg.seed = std::stoull(seed);

  OpenLoopDriver driver(cfg);
  lp::net::SocketEnv env(manifest.client_env_options(kDriverId));
  env.attach(driver);
  env.run([&] { return driver.finished(); });

  // The sample: requests due in [W, W+M), as "latency_ns acked lateness_ns".
  const auto w0 = driver.origin() + kWarmup;
  const auto w1 = w0 + cfg.window;
  const auto end = w1 + kGrace;
  std::ofstream out(out_path);
  std::uint64_t due_in_window = 0;
  std::uint64_t acked_of_due = 0;
  const auto& due = driver.due();
  for (std::size_t i = 0; i < due.size(); ++i) {
    if (due[i] < w0 || due[i] >= w1) continue;
    ++due_in_window;
    const auto ack = driver.acked()[i];
    const bool ok = ack >= 0 && ack <= end;
    if (ok) ++acked_of_due;
    out << (ok ? ack : end) - due[i] << ' ' << (ok ? 1 : 0) << ' '
        << driver.sent()[i] - due[i] << '\n';
  }
  out.close();
  if (!out) {
    std::fprintf(stderr, "e2e_load drive: cannot write %s\n", out_path.c_str());
    return 2;
  }

  const auto& stats = env.stats();
  lp::obs::JsonWriter w;
  w.object_begin();
  w.key("due_in_window").value(due_in_window);
  w.key("acked_of_due").value(acked_of_due);
  w.key("acks_in_window").value(driver.acks_in_window());
  w.key("resubmits").value(driver.resubmits());
  w.key("rate").value(kRate);
  w.key("warmup_s").value(lp::sim::to_seconds(kWarmup));
  w.key("window_s").value(lp::sim::to_seconds(cfg.window));
  w.key("grace_s").value(lp::sim::to_seconds(kGrace));
  w.key("cpu_s").value(driver.window_cpu_s());
  w.key("decode_errors").value(stats.decode_errors);
  w.object_end();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace e2e
