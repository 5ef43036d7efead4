#include "node/node.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <thread>

#include "net/wire.hpp"
#include "obs/json.hpp"
#include "protocol/factory.hpp"
#include "util/worker_pool.hpp"

namespace leopard::node {

namespace {

using ull = unsigned long long;

/// Appends printf-formatted text (one report line, under 512 bytes).
[[gnu::format(printf, 2, 3)]] void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  const int len = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (len > 0) out.append(buf, std::min(static_cast<std::size_t>(len), sizeof(buf) - 1));
}

/// Binds /metrics, /statusz and /healthz at `addr` ("HOST:PORT", ":PORT" or
/// "PORT") on `env`'s loop; nullptr when `addr` is empty. A bind failure also
/// returns nullptr, with `*error` set: an operator who asked for the endpoint
/// must not silently lose it.
std::unique_ptr<obs::HttpServer> bind_endpoint(const std::string& addr, net::SocketEnv& env,
                                               std::string* error) {
  if (addr.empty()) return nullptr;
  obs::HttpServer::Options opts;
  const auto colon = addr.rfind(':');
  if (colon == std::string::npos) {
    opts.port = static_cast<std::uint16_t>(std::strtoul(addr.c_str(), nullptr, 10));
  } else {
    if (colon > 0) opts.host = addr.substr(0, colon);
    opts.port = static_cast<std::uint16_t>(std::strtoul(addr.c_str() + colon + 1, nullptr, 10));
  }
  auto http = std::make_unique<obs::HttpServer>(env.loop(), opts);
  if (!http->listening()) {
    *error = "cannot bind --metrics-addr " + addr;
    return nullptr;
  }
  return http;
}

/// The "peers" array of /statusz.
void write_peers_json(obs::JsonWriter& w, const net::SocketEnv& env) {
  w.key("peers").array_begin();
  for (const auto& p : env.peer_snapshots()) {
    w.object_begin();
    w.key("id").value(static_cast<std::uint64_t>(p.id));
    w.key("connected").value(p.connected);
    w.key("queued_bytes").value(p.queued_bytes);
    w.key("shed_frames").value(p.shed_frames);
    w.key("reconnect_attempts").value(p.reconnect_attempts);
    w.object_end();
  }
  w.array_end();
}

obs::HttpServer::Response json_response(const obs::JsonWriter& w) {
  return {.status = 200, .content_type = "application/json", .body = w.str()};
}

/// Transport lines of the report. Per-peer shed and reconnect counts print as
/// "id:count" pairs ("-" when clean), so attack-load shedding shows per link.
void append_transport_stats(std::string& report, const net::SocketEnv& env,
                            std::uint32_t io_threads) {
  const auto& s = env.stats();
  appendf(report,
          "frames_sent=%llu frames_received=%llu bytes_sent=%llu bytes_received=%llu "
          "decode_errors=%llu frames_dropped=%llu connects=%llu accepts=%llu\n",
          ull{s.frames_sent}, ull{s.frames_received}, ull{s.bytes_sent},
          ull{s.bytes_received}, ull{s.decode_errors}, ull{s.frames_dropped},
          ull{s.connects}, ull{s.accepts});
  // payload_copies counts serializations, frames_shared counts broadcast
  // enqueues that aliased an existing body (fanout minus one per broadcast),
  // writev_calls counts sendmsg syscalls.
  appendf(report, "io_threads=%u writev_calls=%llu payload_copies=%llu frames_shared=%llu\n",
          io_threads, ull{s.writev_calls}, ull{s.payload_copies}, ull{s.frames_shared});

  std::string shed;
  std::string reconnects;
  for (const auto& [peer, counters] : env.peer_counters()) {
    if (counters.shed_frames > 0) {
      if (!shed.empty()) shed += ',';
      shed += std::to_string(peer) + ":" + std::to_string(counters.shed_frames);
    }
    if (counters.reconnect_attempts > 0) {
      if (!reconnects.empty()) reconnects += ',';
      reconnects += std::to_string(peer) + ":" + std::to_string(counters.reconnect_attempts);
    }
  }
  report += "peer_shed=" + (shed.empty() ? "-" : shed) + "\n";
  report += "peer_reconnects=" + (reconnects.empty() ? "-" : reconnects) + "\n";
}

/// Aux-timer token for the cross-shard stall tick. StateSync owns tokens 1
/// and 2 on the same aux wheel; this namespace is disjoint by construction.
constexpr std::uint64_t kStallTimer = 0x100;
constexpr sim::SimTime kStallTickInterval = 100 * sim::kMillisecond;

/// The canonical digest of an executed block (what the exec_digest fold and
/// state transfer verify against): the cached digest of a Datablock/Baseline
/// block, the zero digest for anything else.
crypto::Digest block_digest_of(const sim::Payload& block) {
  if (const auto* db = dynamic_cast<const proto::DatablockMsg*>(&block)) {
    return db->cached_digest;
  }
  if (const auto* bb = dynamic_cast<const proto::BaselineBlockMsg*>(&block)) {
    return bb->cached_digest;
  }
  return {};
}

/// block_digest_of, recomputed from a block's wire frame; nullopt if the
/// frame is malformed. StateSync uses this to verify transferred entries.
std::optional<crypto::Digest> digest_of_frame(std::span<const std::uint8_t> frame) {
  if (frame.size() < net::kFrameHeaderBytes + 1) return std::nullopt;
  std::uint32_t len = 0;
  for (std::size_t i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(frame[i]) << (8 * i);
  if (len == 0 || len + net::kFrameHeaderBytes != frame.size()) return std::nullopt;
  const auto type = static_cast<net::MsgType>(frame[4]);
  const auto payload = net::decode_payload(type, frame.subspan(net::kFrameHeaderBytes + 1), 0);
  if (payload == nullptr) return std::nullopt;
  return block_digest_of(*payload);
}

net::SocketEnvOptions env_options(const net::Manifest& manifest, const ReplicaOptions& opts) {
  auto eopts = manifest.replica_env_options(opts.id);
  eopts.io_threads = opts.io_threads;
  return eopts;
}

std::unique_ptr<store::ReplicaStore> make_store(const ReplicaOptions& opts) {
  if (opts.data_dir.empty()) return nullptr;
  store::StoreOptions sopts;
  sopts.dir = opts.data_dir;
  sopts.fsync_policy = opts.fsync;
  sopts.fsync_interval = static_cast<sim::SimTime>(opts.fsync_interval_ms) * sim::kMillisecond;
  sopts.snapshot_every = opts.snapshot_every;
  return std::make_unique<store::ReplicaStore>(sopts);
}

store::StateSyncOptions sync_options() {
  store::StateSyncOptions syncopts;
  syncopts.frame_digest = digest_of_frame;
  return syncopts;
}

obs::StageTracer::Options tracer_options(const ReplicaOptions& opts) {
  obs::StageTracer::Options topts;
  topts.sample_every = opts.trace_sample;
  return topts;
}

}  // namespace

void size_worker_pool(const net::Manifest& manifest) {
  std::size_t lanes = manifest.encode_workers;
  if (lanes == 0) {
    const auto hw = std::thread::hardware_concurrency();
    lanes = hw != 0 ? hw : 1;
  }
  util::WorkerPool::global().resize(lanes);
}

crypto::Digest fold_execute(const crypto::Digest& fold, const crypto::Digest& block_digest,
                            std::uint64_t seq, std::uint32_t ordinal) {
  std::uint8_t buf[2 * crypto::Digest::kSize + 12];
  std::memcpy(buf, fold.bytes().data(), crypto::Digest::kSize);
  std::memcpy(buf + crypto::Digest::kSize, block_digest.bytes().data(), crypto::Digest::kSize);
  for (std::size_t i = 0; i < 8; ++i) {
    buf[2 * crypto::Digest::kSize + i] = static_cast<std::uint8_t>(seq >> (8 * i));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    buf[2 * crypto::Digest::kSize + 8 + i] = static_cast<std::uint8_t>(ordinal >> (8 * i));
  }
  return crypto::Digest::of(buf);
}

ReplicaNode::ReplicaNode(const net::Manifest& manifest, const ReplicaOptions& opts,
                         obs::Registry& registry)
    : manifest_(manifest),
      opts_(opts),
      f_((manifest.n - 1) / 3),
      registry_(registry),
      env_(env_options(manifest, opts)),
      store_(make_store(opts)),
      sync_(opts.id, manifest.n, f_, store_.get(), sync_options()),
      sequencer_(opts.shards != 0 ? opts.shards : manifest.shards,
                 [this](const shard::GlobalRecord& r) { on_global(r); }),
      tracer_(registry, tracer_options(opts)) {}

std::unique_ptr<ReplicaNode> ReplicaNode::open(const net::Manifest& manifest,
                                               const ReplicaOptions& opts,
                                               obs::Registry& registry, std::string* error) {
  std::unique_ptr<ReplicaNode> node(new ReplicaNode(manifest, opts, registry));
  if (!node->init(error)) return nullptr;
  return node;
}

bool ReplicaNode::init(std::string* error) {
  // Durable state: recover the WAL + snapshot before touching the network.
  // A corrupt store refuses to start under RecoverMode::kStrict — restarting
  // on silently damaged state is how a replica ends up voting against its
  // past.
  if (store_ != nullptr) {
    recovery_ = store_->open(opts_.recover);
    if (!recovery_.ok()) {
      *error = "data dir '" + opts_.data_dir + "' unusable: " + recovery_.detail;
      return false;
    }
  }
  sync_.init_from_recovery(recovery_);

  const std::uint32_t shards = sequencer_.shards();
  schemes_.reserve(shards);
  shards_.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) add_shard(s);

  // State-sync traffic bypasses the protocol cores, so shard 0's byzantine
  // interposer taps it here to keep the attack covering every byte sent.
  sync_.set_send([this](sim::NodeId to, sim::PayloadPtr payload) {
    if (auto* byz = shards_[0].byz; byz != nullptr) {
      payload = byz->filter_deployment_send(to, std::move(payload));
      if (payload == nullptr) return;
    }
    env_.apply(protocol::Send{to, std::move(payload)});
  });
  sync_.set_timer_hooks(
      [this](std::uint64_t token, sim::SimTime delay) { env_.arm_aux_timer(token, delay); },
      [this](std::uint64_t token) { env_.cancel_aux_timer(token); });
  env_.set_payload_interceptor([this](sim::NodeId from, const sim::PayloadPtr& payload) {
    return sync_.on_payload(from, payload, env_.now());
  });
  env_.set_aux_timer_handler([this](std::uint64_t token) {
    if (token == kStallTimer) {
      stall_tick();
    } else {
      sync_.on_timer(token, env_.now());
    }
  });

  register_metrics();
  http_ = bind_endpoint(opts_.metrics_addr, env_, error);
  if (http_ == nullptr && !opts_.metrics_addr.empty()) return false;
  if (http_ != nullptr) {
    http_->handle("/statusz", [this](std::string_view query) { return statusz(query); });
    http_->serve_registry(registry_);
  }
  return true;
}

void ReplicaNode::add_shard(std::uint32_t s) {
  const std::uint32_t n = manifest_.n;
  schemes_.emplace_back(n, manifest_.quorum(), manifest_.seed + s);
  Shard shard;
  const auto core_id = static_cast<proto::ReplicaId>((opts_.id + n - s % n) % n);
  shard.core = protocol::make_protocol(manifest_.spec(), schemes_[s], core_id);
  if (auto* lr = dynamic_cast<core::LeopardReplica*>(shard.core.get())) {
    shard.leopard = lr;
    // The stage hooks fire on whichever thread runs the shard; the tracer
    // records through per-thread registry shards and guards its span ring,
    // so one tracer serves every shard.
    obs::StageTracer* t = &tracer_;
    lr->set_stage_hooks(
        [t](std::uint64_t client, std::uint64_t seq, sim::SimTime ingress,
            sim::SimTime created) { t->on_generated(client, seq, ingress, created); },
        [t](std::uint64_t client, std::uint64_t seq, sim::SimTime created,
            sim::SimTime linked, sim::SimTime executed) {
          t->on_executed(client, seq, created, linked, executed);
        });
  }
  if (!opts_.byzantine.empty()) {
    chaos::InterposerOptions bopts;
    bopts.attack = *chaos::parse_wire_attack(opts_.byzantine);
    bopts.n = n;
    bopts.f = f_;
    bopts.lag = static_cast<sim::SimTime>(opts_.byzantine_lag_ms) * sim::kMillisecond;
    auto wrapped =
        std::make_unique<chaos::ByzantineInterposer>(std::move(shard.core), schemes_[s], bopts);
    shard.byz = wrapped.get();
    shard.core = std::move(wrapped);
  }
  // env_.metrics() is the transport-owned ProtocolMetrics the registry's core
  // series read; MuxEnv posts its updates to the transport thread.
  shard.mux = std::make_unique<shard::MuxEnv>(env_, env_.metrics(), n, s, sequencer_.shards());
  shard.mux->attach(*shard.core);
  shard.mux->set_execute_observer(
      [this, s](const protocol::Execute& e) { on_shard_execute(s, e); });
  shards_.push_back(std::move(shard));
}

void ReplicaNode::on_shard_execute(std::uint32_t s, const protocol::Execute& e) {
  auto& shard = shards_[s];
  shard.requests += e.requests;
  ++shard.blocks;
  shard.fold = fold_execute(shard.fold, block_digest_of(*e.block), e.seq, e.ordinal);
  const bool real = !shard::is_filler_block(*e.block);
  if (real) ++pending_real_;
  if (!sequencer_.push(s, e) && real && pending_real_ > 0) --pending_real_;
}

void ReplicaNode::on_global(const shard::GlobalRecord& r) {
  if (!shard::is_filler_block(*r.exec.block) && pending_real_ > 0) --pending_real_;
  // The frame only matters when it can be persisted or buffered for later
  // persistence; skip the re-serialization when running ephemeral + live.
  util::Bytes frame;
  if (store_ != nullptr || !sync_.live()) frame = net::encode_frame(*r.exec.block);
  sync_.on_execute(r.exec.seq, r.exec.ordinal, block_digest_of(*r.exec.block),
                   r.exec.requests, frame, env_.now());
}

void ReplicaNode::stall_tick() {
  // Recovery or state transfer may have advanced the durable tail without
  // going through the sequencer: re-seat the cursor before judging a stall.
  if (sync_.executed_blocks() > 0) sequencer_.advance_to(sync_.tail_seq(), sync_.tail_ordinal());
  if (!sequencer_.has_backlog()) pending_real_ = 0;  // prune-drift resync
  if (sync_.live() && sequencer_.emitted() == last_emitted_ && pending_real_ > 0) {
    // Real work is stuck behind an idle shard: commit a no-op through the
    // blocking shard's LOCAL core so the round fills (and every earlier round
    // is proven) via ordinary consensus. Never happens at S = 1, where the
    // sequencer has no backlog.
    proto::Request req;
    req.client_id = shard::kFillerClientBase + opts_.id;
    req.seq = noop_seq_++;
    req.payload_size = 1;
    req.submitted_at = env_.now();
    shards_[sequencer_.cursor_shard()].mux->inject_request(
        static_cast<sim::NodeId>(shard::kFillerClientBase + opts_.id),
        std::make_shared<proto::ClientRequestMsg>(std::move(req)));
    ++noops_injected_;
  }
  last_emitted_ = sequencer_.emitted();
  env_.arm_aux_timer(kStallTimer, kStallTickInterval);
}

void ReplicaNode::register_metrics() {
  env_.register_observability(registry_);
  registry_.gauge_fn("leopard_seq_emitted", "Global records emitted by the sequencer", "",
                     [this] { return static_cast<double>(sequencer_.emitted()); });
  registry_.gauge_fn("leopard_seq_round", "Cross-shard sequencer round cursor", "",
                     [this] { return static_cast<double>(sequencer_.round()); });
  if (const auto* replica = readable_leopard()) {
    registry_.gauge_fn("leopard_view", "Current consensus view (shard 0)", "",
                       [replica] { return static_cast<double>(replica->view()); });
    registry_.gauge_fn("leopard_executed_through",
                       "Highest contiguously executed sn (shard 0)", "",
                       [replica] { return static_cast<double>(replica->executed_through()); });
  }
}

obs::HttpServer::Response ReplicaNode::statusz(std::string_view query) {
  // Runs on the transport thread: env, sync and sequencer state are always
  // readable; core state only when the cores run here too.
  obs::JsonWriter w;
  w.object_begin();
  w.key("role").value("replica");
  w.key("id").value(static_cast<std::uint64_t>(opts_.id));
  w.key("protocol").value(manifest_.protocol);
  w.key("n").value(static_cast<std::uint64_t>(manifest_.n));
  w.key("shards").value(static_cast<std::uint64_t>(shards_.size()));
  if (const auto* replica = readable_leopard()) {
    w.key("view").value(static_cast<std::uint64_t>(replica->view()));
    w.key("executed_through").value(replica->executed_through());
    w.key("state_digest").value(replica->state_digest().hex());
  }
  w.key("executed_requests").value(sync_.executed_requests());
  w.key("executed_blocks").value(sync_.executed_blocks());
  w.key("exec_digest").value(sync_.exec_digest().hex());
  w.key("sync_live").value(sync_.live());
  w.key("seq_emitted").value(sequencer_.emitted());
  w.key("seq_round").value(sequencer_.round());
  if (cores_on_transport()) {
    w.key("shard_views").array_begin();
    for (const auto& shard : shards_) {
      w.value(static_cast<std::uint64_t>(shard.leopard != nullptr ? shard.leopard->view() : 0));
    }
    w.array_end();
  }
  write_peers_json(w, env_);
  w.key("metrics");
  registry_.write_statusz(w);
  if (obs::query_param(query, "traces") == "1") {
    w.key("traces");
    tracer_.write_json(w);
  }
  w.object_end();
  return json_response(w);
}

void ReplicaNode::run(const std::function<bool()>& should_stop) {
  sync_.start(env_.now());
  if (sync_.executed_blocks() > 0) sequencer_.advance_to(sync_.tail_seq(), sync_.tail_ordinal());
  env_.arm_aux_timer(kStallTimer, kStallTickInterval);
  env_.run(should_stop);
  if (store_ != nullptr) store_->flush();
}

std::string ReplicaNode::report() {
  std::string report;
  appendf(report, "role=replica id=%u protocol=%s n=%u shards=%zu\n", opts_.id,
          manifest_.protocol.c_str(), manifest_.n, shards_.size());
  appendf(report, "executed_requests=%llu executed_blocks=%llu\n",
          ull{sync_.executed_requests()}, ull{sync_.executed_blocks()});
  report += "exec_digest=" + sync_.exec_digest().hex() + "\n";
  // The workers have joined once run() returns, so every core is readable.
  if (const auto* replica = shards_[0].leopard) {
    report += "state_digest=" + replica->state_digest().hex() + "\n";
    appendf(report, "view=%u executed_through=%llu\n", replica->view(),
            ull{replica->executed_through()});
  }
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    const auto& shard = shards_[s];
    appendf(report, "shard%u_executed=%llu shard%u_blocks=%llu ", s, ull{shard.requests}, s,
            ull{shard.blocks});
    if (shard.leopard != nullptr) appendf(report, "shard%u_view=%u ", s, shard.leopard->view());
    appendf(report, "shard%u_digest=%s\n", s, shard.fold.hex().c_str());
  }
  appendf(report, "seq_emitted=%llu seq_round=%llu noops_injected=%llu\n",
          ull{sequencer_.emitted()}, ull{sequencer_.round()}, ull{noops_injected_});

  // Table IV stage percentiles (empty histograms are skipped).
  const struct {
    const char* name;
    const obs::Histogram& hist;
  } stages[] = {
      {"generation", tracer_.generation_hist()},
      {"dissemination", tracer_.dissemination_hist()},
      {"agreement", tracer_.agreement_hist()},
      {"total", tracer_.total_hist()},
  };
  for (const auto& stage : stages) {
    const auto snap = registry_.histogram_snapshot(stage.hist);
    if (snap.count == 0) continue;
    appendf(report, "stage_%s_count=%llu stage_%s_p50_ms=%.3f stage_%s_p99_ms=%.3f\n",
            stage.name, ull{snap.count}, stage.name,
            static_cast<double>(snap.percentile(0.50)) / 1e6, stage.name,
            static_cast<double>(snap.percentile(0.99)) / 1e6);
  }

  if (!opts_.byzantine.empty()) {
    chaos::ByzantineInterposer::Stats total{};
    for (const auto& shard : shards_) {
      total.equivocations += shard.byz->stats().equivocations;
      total.suppressed += shard.byz->stats().suppressed;
      total.corrupted += shard.byz->stats().corrupted;
      total.delayed += shard.byz->stats().delayed;
    }
    appendf(report,
            "byzantine=%s byz_equivocations=%llu byz_suppressed=%llu byz_corrupted=%llu "
            "byz_delayed=%llu\n",
            opts_.byzantine.c_str(), ull{total.equivocations}, ull{total.suppressed},
            ull{total.corrupted}, ull{total.delayed});
  }
  if (store_ != nullptr) {
    const auto& st = store_->stats();
    appendf(report,
            "store_entries=%llu store_recovered_entries=%llu store_snapshot_index=%llu "
            "store_torn_bytes=%llu store_corrupt_dropped=%llu\n",
            ull{store_->entries()}, ull{recovery_.entries}, ull{recovery_.snapshot_index},
            ull{recovery_.torn_bytes}, ull{recovery_.corrupt_dropped});
    appendf(report,
            "store_appends=%llu store_append_errors=%llu store_fsyncs=%llu "
            "store_fsync_errors=%llu store_snapshots=%llu\n",
            ull{st.appends}, ull{st.append_errors}, ull{st.fsyncs}, ull{st.fsync_errors},
            ull{st.snapshots_written});
  }
  const auto& ss = sync_.stats();
  appendf(report,
          "sync_live=%d sync_rounds=%llu sync_entries=%llu sync_duplicates=%llu "
          "sync_probes=%llu sync_pulls_served=%llu sync_verify_failures=%llu\n",
          sync_.live() ? 1 : 0, ull{ss.rounds_completed}, ull{ss.entries_transferred},
          ull{ss.duplicates_dropped}, ull{ss.probes_sent}, ull{ss.pulls_served},
          ull{ss.verify_failures});
  append_transport_stats(report, env_, opts_.io_threads);
  return report;
}

ClientNode::ClientNode(const net::Manifest& manifest, const ClientOptions& opts,
                       obs::Registry& registry)
    : manifest_(manifest),
      opts_(opts),
      shards_(opts.shards != 0 ? opts.shards : manifest.shards),
      registry_(registry),
      env_(manifest.client_env_options(opts.id)) {
  core::ClientConfig cfg;
  cfg.payload_size = opts.payload != 0 ? opts.payload : manifest.payload_size;
  cfg.real_payload = true;  // a real deployment ships real bytes
  cfg.resubmit_timeout = static_cast<sim::SimTime>(opts.resubmit_ms) * sim::kMillisecond;
  cfg.closed_loop_window = std::max(1u, opts.window / shards_);

  // Leopard routes by µ(req) over the non-leader replicas and rotates
  // re-submissions over them; the baselines accept client requests only at
  // the leader, so their rotation set is just {leader}.
  const auto leader = manifest.initial_leader();
  const bool leopard = manifest.protocol == "leopard";
  cfg.route_by_mu = leopard;

  // Hash-partition the request index space across shards (the split the sim
  // driver uses too). A shard with no share gets no client: total_requests
  // 0 would mean "unbounded".
  const std::uint64_t seed = manifest.seed + opts.id;
  std::vector<std::uint64_t> totals(shards_, 0);
  for (std::uint64_t i = 0; i < opts.requests; ++i) ++totals[shard::shard_of(seed, i, shards_)];
  for (std::uint32_t s = 0; s < shards_; ++s) {
    if (totals[s] == 0) continue;
    core::ClientConfig sub_cfg = cfg;
    sub_cfg.total_requests = totals[s];
    auto sub = std::make_unique<core::LeopardClient>(
        sub_cfg, /*target=*/leader, /*replica_count=*/leopard ? manifest.n : 1,
        /*avoid=*/leopard ? leader : manifest.n, seed + 7919ull * s);
    sub->set_self_id(opts.id);
    // One ProtocolMetrics for every shard, so the latency histogram merges.
    auto mux = std::make_unique<shard::MuxEnv>(env_, env_.metrics(), manifest.n, s, shards_);
    mux->attach(*sub);
    subs_.push_back(std::move(sub));
    muxes_.push_back(std::move(mux));
  }
}

std::unique_ptr<ClientNode> ClientNode::open(const net::Manifest& manifest,
                                             const ClientOptions& opts,
                                             obs::Registry& registry, std::string* error) {
  std::unique_ptr<ClientNode> node(new ClientNode(manifest, opts, registry));
  node->env_.register_observability(registry);
  node->http_ = bind_endpoint(opts.metrics_addr, node->env_, error);
  if (node->http_ == nullptr && !opts.metrics_addr.empty()) return nullptr;
  if (auto* http = node->http_.get()) {
    ClientNode* self = node.get();
    http->handle("/statusz", [self](std::string_view) {
      obs::JsonWriter w;
      w.object_begin();
      w.key("role").value("client");
      w.key("id").value(static_cast<std::uint64_t>(self->opts_.id));
      w.key("protocol").value(self->manifest_.protocol);
      w.key("shards").value(static_cast<std::uint64_t>(self->shards_));
      w.key("submitted").value(self->submitted());
      w.key("acked").value(self->acked());
      write_peers_json(w, self->env_);
      w.key("metrics");
      self->registry_.write_statusz(w);
      w.object_end();
      return json_response(w);
    });
    http->serve_registry(registry);
  }
  return node;
}

bool ClientNode::done() const {
  return std::all_of(subs_.begin(), subs_.end(), [](const auto& sub) { return sub->done(); });
}

std::uint64_t ClientNode::submitted() const {
  std::uint64_t total = 0;
  for (const auto& sub : subs_) total += sub->submitted();
  return total;
}

std::uint64_t ClientNode::acked() const {
  std::uint64_t total = 0;
  for (const auto& sub : subs_) total += sub->acked();
  return total;
}

void ClientNode::run(const std::function<bool()>& should_stop) {
  env_.run([&] { return done() || (should_stop && should_stop()); });
  finished_at_ = env_.now();
}

std::string ClientNode::report() {
  const double elapsed = sim::to_seconds(finished_at_);
  const auto& m = env_.metrics();
  std::string report;
  appendf(report, "role=client id=%u protocol=%s n=%u shards=%u\n", opts_.id,
          manifest_.protocol.c_str(), manifest_.n, shards_);
  appendf(report, "submitted=%llu acked=%llu elapsed_s=%.3f kreq_s=%.3f\n", ull{submitted()},
          ull{acked()}, elapsed,
          elapsed > 0 ? static_cast<double>(acked()) / elapsed / 1e3 : 0.0);
  appendf(report,
          "mean_latency_ms=%.2f p50_latency_ms=%.2f p90_latency_ms=%.2f "
          "p99_latency_ms=%.2f p999_latency_ms=%.2f\n",
          m.mean_latency_sec() * 1e3, m.latency_percentile(0.5) * 1e3,
          m.latency_percentile(0.9) * 1e3, m.latency_percentile(0.99) * 1e3,
          m.latency_percentile(0.999) * 1e3);
  append_transport_stats(report, env_, 1);
  return report;
}

}  // namespace leopard::node
