// Erasure timing at a wire workload's shape: the encode a responder runs on a
// Query (one datablock into n chunks) and the decode the querier runs once
// f+1 chunks arrive, taken from parity chunks so the decode does real work.
// leopard_node exports no erasure timer, so the benchmark times the layer
// from outside, around the same ReedSolomon calls, on a full datablock of the
// manifest's shape (datablock_requests requests of payload_size bytes),
// serialized as LeopardReplica::handle_query serializes it.
#include <algorithm>
#include <chrono>
#include <vector>

#include "erasure/reed_solomon.hpp"
#include "load.hpp"
#include "net/manifest.hpp"
#include "obs/json.hpp"
#include "proto/messages.hpp"
#include "util/rng.hpp"

namespace e2e {

int run_erasure(int argc, char** argv) {
  namespace lp = leopard;
  using Clock = std::chrono::steady_clock;
  constexpr int kReps = 200;
  const auto manifest_path = flag(argc, argv, "--manifest");
  if (manifest_path.empty()) {
    std::fprintf(stderr, "e2e_load erasure: needs --manifest\n");
    return 2;
  }
  const auto manifest = lp::net::Manifest::parse_file(manifest_path);
  const std::uint32_t n = manifest.n;
  const std::uint32_t k = (n - 1) / 3 + 1;  // f + 1, as LeopardReplica

  lp::util::Rng rng(1);
  lp::proto::Datablock db;
  db.maker = 0;
  for (std::uint32_t i = 0; i < manifest.datablock_requests; ++i) {
    lp::proto::Request req;
    req.client_id = 100;
    req.seq = i;
    req.payload_size = manifest.payload_size;
    req.payload.resize(manifest.payload_size);
    rng.fill(req.payload.data(), req.payload.size());
    db.requests.push_back(std::move(req));
  }
  lp::util::ByteWriter writer(db.wire_size());
  db.encode(writer);
  const lp::util::Bytes message = writer.bytes();
  const lp::erasure::ReedSolomon rs(k, n);
  lp::erasure::RsScratch enc_scratch;
  lp::erasure::RsScratch dec_scratch;
  lp::util::Bytes decoded;

  std::vector<double> encode_us;
  std::vector<double> decode_us;
  for (int i = 0; i < kReps; ++i) {
    auto t0 = Clock::now();
    const auto shards = rs.encode_into(message, enc_scratch);
    encode_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());

    std::vector<lp::erasure::ShardView> views;
    for (std::uint32_t s = n - k; s < n; ++s) views.push_back({s, shards.shard(s)});
    t0 = Clock::now();
    const bool ok = rs.decode_into(views, dec_scratch, decoded);
    decode_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    if (!ok || decoded != message) {
      std::fprintf(stderr, "e2e_load erasure: decode did not reproduce the message\n");
      return 1;
    }
  }
  std::sort(encode_us.begin(), encode_us.end());
  std::sort(decode_us.begin(), decode_us.end());
  lp::obs::JsonWriter w;
  w.object_begin();
  w.key("n").value(n);
  w.key("k").value(k);
  w.key("bytes").value(static_cast<std::uint64_t>(message.size()));
  w.key("encode_us_p50").value(encode_us[encode_us.size() / 2]);
  w.key("decode_us_p50").value(decode_us[decode_us.size() / 2]);
  w.object_end();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace e2e
