// On-disk record format shared by the WAL, snapshots, and state transfer.
//
// Record framing (all integers little-endian, via the canonical ByteWriter):
//
//   u32 length    — byte count of the payload that follows the two headers
//   u32 crc32c    — CRC32C over the payload bytes
//   payload       — `length` bytes
//
// A record that extends past end-of-file (incomplete header, or declared
// length beyond the remaining bytes) is a TORN WRITE: the tail of an append
// the process died inside. A complete record whose CRC or contents fail
// validation is CORRUPTION. Recovery treats the two differently — torn tails
// truncate silently, corruption refuses to start (see ReplicaStore).
//
// WAL entry payload — one committed Execute action:
//
//   u64  index          — position in the global Execute stream, from 0
//   u64  seq            — consensus sequence (BFTblock sn / baseline height)
//   u32  ordinal        — position within that sequence's block (Leopard
//                         links several datablocks per BFTblock)
//   u64  requests       — client requests the block carried
//   32B  block_digest   — the block's canonical digest (DatablockMsg /
//                         BaselineBlockMsg cached_digest)
//   32B  post_digest    — exec_digest AFTER folding this entry; chains each
//                         record to its predecessor so recovery verifies the
//                         whole prefix without decoding frames
//   blob frame          — full wire frame of the block (net::encode_frame),
//                         replayable to any peer during state transfer
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "crypto/digest.hpp"
#include "util/bytes.hpp"

namespace leopard::store {

/// Bytes of the two fixed headers preceding every record payload.
inline constexpr std::size_t kRecordHeaderBytes = 8;

/// Ceiling on one record payload: the 64 MiB wire-frame limit plus entry
/// metadata headroom. A length beyond this is corruption, not a huge record.
inline constexpr std::size_t kMaxRecordPayloadBytes = (64u << 20) + 4096;

struct WalEntry {
  std::uint64_t index = 0;
  std::uint64_t seq = 0;
  std::uint32_t ordinal = 0;
  std::uint64_t requests = 0;
  crypto::Digest block_digest;
  crypto::Digest post_digest;
  util::Bytes frame;

  /// (seq, ordinal) — strictly increasing along the global Execute stream.
  [[nodiscard]] std::pair<std::uint64_t, std::uint32_t> coord() const {
    return {seq, ordinal};
  }
};

void encode_entry(util::ByteWriter& w, const WalEntry& entry);

/// Decodes one entry from `r`; nullopt if malformed (underflow or trailing
/// inconsistency is the caller's concern — entries are self-delimiting).
[[nodiscard]] std::optional<WalEntry> decode_entry(util::ByteReader& r);

/// Wraps `payload` in the record framing (length + CRC32C headers).
[[nodiscard]] util::Bytes frame_record(std::span<const std::uint8_t> payload);

/// One step of a forward scan over record-framed bytes at `offset`.
struct RecordScan {
  enum class Status : std::uint8_t {
    kRecord,   // payload spans [payload_offset, payload_offset + length)
    kTorn,     // record extends past end-of-data: torn tail at `offset`
    kCorrupt,  // complete record, bad CRC or absurd length
    kEnd,      // offset == data.size(): clean end
  };
  Status status = Status::kEnd;
  std::span<const std::uint8_t> payload;
  std::uint64_t next_offset = 0;
};

[[nodiscard]] RecordScan scan_record(std::span<const std::uint8_t> data,
                                     std::uint64_t offset);

/// The exec_digest chain step: digest after executing a block with
/// `block_digest` on top of `prev`. MUST match the fold StateSync applies
/// live (ByteWriter raw(prev) || raw(block)).
[[nodiscard]] crypto::Digest fold_exec_digest(const crypto::Digest& prev,
                                              const crypto::Digest& block_digest);

}  // namespace leopard::store
