#include "crypto/hmac.hpp"

#include <array>
#include <cstring>

#include "util/check.hpp"

namespace leopard::crypto {

void HmacContext::init(std::span<const std::uint8_t> key) {
  constexpr std::size_t kBlockSize = Sha256::kBlockSize;

  std::array<std::uint8_t, kBlockSize> key_block{};
  if (key.size() > kBlockSize) {
    const auto hashed = Sha256::hash(key);
    std::memcpy(key_block.data(), hashed.data(), hashed.size());
  } else if (!key.empty()) {
    std::memcpy(key_block.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, kBlockSize> ipad;
  std::array<std::uint8_t, kBlockSize> opad;
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    ipad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x5c);
  }

  inner_ = Sha256();
  outer_ = Sha256();
  inner_.update(ipad);
  outer_.update(opad);
}

Sha256::DigestBytes HmacContext::mac(std::span<const std::uint8_t> message) const {
  Sha256 in = inner_;
  in.update(message);
  const auto inner_digest = in.finalize();

  Sha256 out = outer_;
  out.update(inner_digest);
  return out.finalize();
}

void HmacContext::mac_pair(std::span<const std::uint8_t> m0, std::span<const std::uint8_t> m1,
                           Sha256::DigestBytes& out0, Sha256::DigestBytes& out1) const {
  Sha256 in0 = inner_;
  Sha256 in1 = inner_;
  Sha256::update_two(in0, m0, in1, m1);
  Sha256::DigestBytes d0;
  Sha256::DigestBytes d1;
  Sha256::finalize_two(in0, in1, d0, d1);

  Sha256 o0 = outer_;
  Sha256 o1 = outer_;
  Sha256::update_two(o0, d0, o1, d1);
  Sha256::finalize_two(o0, o1, out0, out1);
}

namespace {

constexpr std::size_t kBlock = Sha256::kBlockSize;

/// Longest tag||message that still pads into ONE inner block
/// (1 tag + len + 0x80 + 8-byte length <= 64).
constexpr std::size_t kFusedMaxMessage = kBlock - 10;

void store_be64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
}

void store_be32x8(std::uint8_t* p, const std::uint32_t s[8]) {
  for (int i = 0; i < 8; ++i) {
    p[4 * i + 0] = static_cast<std::uint8_t>(s[i] >> 24);
    p[4 * i + 1] = static_cast<std::uint8_t>(s[i] >> 16);
    p[4 * i + 2] = static_cast<std::uint8_t>(s[i] >> 8);
    p[4 * i + 3] = static_cast<std::uint8_t>(s[i]);
  }
}

/// Builds the single padded inner block for HMAC(·, tag || message) on the
/// fused path; message.size() must be <= kFusedMaxMessage.
void build_fused_inner_block(std::uint8_t tag, std::span<const std::uint8_t> message,
                             std::uint8_t block[/*kBlock*/]) {
  std::memset(block, 0, kBlock);
  block[0] = tag;
  if (!message.empty()) std::memcpy(block + 1, message.data(), message.size());
  block[1 + message.size()] = 0x80;
  store_be64(block + kBlock - 8, static_cast<std::uint64_t>(kBlock + 1 + message.size()) * 8);
}

/// Shared fused-path finish: per lane, builds the padded outer block
/// H(opad-midstate || inner-digest) from the advanced inner state
/// `inner[i]`, compresses it over the opad midstate `outer_mid[i]` (advanced
/// in place), and emits the final MAC. One n-lane pass for the whole batch.
void fused_outer_pass(const std::uint32_t inner[][8], std::uint32_t outer_mid[][8],
                      std::size_t count, Sha256::DigestBytes* out) {
  std::uint8_t blocks[Sha256::kMaxBatch][kBlock];
  std::uint32_t* st[Sha256::kMaxBatch] = {};
  const std::uint8_t* bl[Sha256::kMaxBatch] = {};
  for (std::size_t i = 0; i < count; ++i) {
    std::memset(blocks[i], 0, kBlock);
    store_be32x8(blocks[i], inner[i]);
    blocks[i][Sha256::kDigestSize] = 0x80;
    store_be64(blocks[i] + kBlock - 8, (kBlock + Sha256::kDigestSize) * 8);
    st[i] = outer_mid[i];
    bl[i] = blocks[i];
  }
  Sha256::compress_wide(st, bl, count, 1);
  for (std::size_t i = 0; i < count; ++i) store_be32x8(out[i].data(), outer_mid[i]);
}

}  // namespace

void HmacContext::mac_tagged_pair(std::uint8_t tag0, std::uint8_t tag1,
                                  std::span<const std::uint8_t> message,
                                  Sha256::DigestBytes& out0,
                                  Sha256::DigestBytes& out1) const {
  if (message.size() <= kFusedMaxMessage) {
    // Fused fixed-shape path: one key, two domain tags — the single-share
    // sign/verify shape (ROADMAP: the incremental machinery cost ~40% of
    // those calls). The two inner blocks differ only in the tag byte; both
    // lanes start from the same precomputed ipad midstate, then one padded
    // outer block each. Two compress_pair calls total.
    std::uint8_t block0[kBlock];
    std::uint8_t block1[kBlock];
    build_fused_inner_block(tag0, message, block0);
    build_fused_inner_block(tag1, message, block1);

    std::uint32_t inner_states[2][8];
    inner_.export_midstate(inner_states[0]);
    inner_.export_midstate(inner_states[1]);
    Sha256::compress_pair(inner_states[0], block0, inner_states[1], block1, 1);

    std::uint32_t outer_states[2][8];
    outer_.export_midstate(outer_states[0]);
    outer_.export_midstate(outer_states[1]);
    Sha256::DigestBytes outs[2];
    fused_outer_pass(inner_states, outer_states, 2, outs);
    out0 = outs[0];
    out1 = outs[1];
    return;
  }

  Sha256 in0 = inner_;
  Sha256 in1 = inner_;
  in0.update({&tag0, 1});
  in1.update({&tag1, 1});
  Sha256::update_two(in0, message, in1, message);
  Sha256::DigestBytes d0;
  Sha256::DigestBytes d1;
  Sha256::finalize_two(in0, in1, d0, d1);

  Sha256 o0 = outer_;
  Sha256 o1 = outer_;
  Sha256::update_two(o0, d0, o1, d1);
  Sha256::finalize_two(o0, o1, out0, out1);
}

void HmacContext::mac_tagged_cross(const HmacContext& a, const HmacContext& b,
                                   std::uint8_t tag, std::span<const std::uint8_t> message,
                                   Sha256::DigestBytes& out_a, Sha256::DigestBytes& out_b) {
  const HmacContext* ctxs[2] = {&a, &b};
  Sha256::DigestBytes out[2];
  mac_tagged_cross_many(ctxs, 2, tag, message, out);
  out_a = out[0];
  out_b = out[1];
}

void HmacContext::mac_tagged_cross_many(const HmacContext* const* ctxs, std::size_t count,
                                        std::uint8_t tag,
                                        std::span<const std::uint8_t> message,
                                        Sha256::DigestBytes* out) {
  constexpr std::size_t kMax = Sha256::kMaxBatch;
  util::expects(count <= kMax, "mac_tagged_cross_many: batch too large");
  if (count == 0) return;

  if (message.size() <= kFusedMaxMessage) {
    // Fused fixed-shape path (the vote hot path: message is a 32-byte
    // digest). EVERY lane compresses the SAME prepared inner block — only
    // the key midstates differ — then one padded outer block each. No
    // context copies, no incremental-update buffering, no finalize
    // machinery: two compress_wide passes total, up to wide_lanes() shares
    // per pass.
    std::uint8_t inner_block[kBlock];
    build_fused_inner_block(tag, message, inner_block);

    std::uint32_t inner_states[kMax][8];
    std::uint32_t* st[kMax];
    const std::uint8_t* bl[kMax];
    for (std::size_t i = 0; i < count; ++i) {
      ctxs[i]->inner_.export_midstate(inner_states[i]);
      st[i] = inner_states[i];
      bl[i] = inner_block;
    }
    Sha256::compress_wide(st, bl, count, 1);

    std::uint32_t outer_states[kMax][8];
    for (std::size_t i = 0; i < count; ++i) ctxs[i]->outer_.export_midstate(outer_states[i]);
    fused_outer_pass(inner_states, outer_states, count, out);
    return;
  }

  // Long messages: paired incremental runs (rare — votes are digests).
  std::size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    Sha256 ia = ctxs[i]->inner_;
    Sha256 ib = ctxs[i + 1]->inner_;
    ia.update({&tag, 1});
    ib.update({&tag, 1});
    Sha256::update_two(ia, message, ib, message);
    Sha256::DigestBytes da;
    Sha256::DigestBytes db;
    Sha256::finalize_two(ia, ib, da, db);

    Sha256 oa = ctxs[i]->outer_;
    Sha256 ob = ctxs[i + 1]->outer_;
    Sha256::update_two(oa, da, ob, db);
    Sha256::finalize_two(oa, ob, out[i], out[i + 1]);
  }
  if (i < count) {
    Sha256 in = ctxs[i]->inner_;
    in.update({&tag, 1});
    in.update(message);
    const auto d = in.finalize();
    Sha256 o = ctxs[i]->outer_;
    o.update(d);
    out[i] = o.finalize();
  }
}

Sha256::DigestBytes hmac_sha256(std::span<const std::uint8_t> key,
                                std::span<const std::uint8_t> message) {
  return HmacContext(key).mac(message);
}

}  // namespace leopard::crypto
