#include "chaos/oracles.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "obs/metrics.hpp"
#include "util/bytes.hpp"

namespace leopard::chaos {

namespace {

// Verdict counters: one check/violation pair per oracle, so a harness run's
// /metrics (or a test's registry dump) shows which safety properties were
// exercised and whether any tripped.
void count_verdict(const char* oracle, std::size_t violations) {
  auto& reg = obs::Registry::global();
  const std::string label = "oracle=\"" + std::string(oracle) + "\"";
  reg.counter("leopard_chaos_oracle_checks_total", "Safety-oracle evaluations", label)
      .inc();
  if (violations > 0) {
    reg.counter("leopard_chaos_oracle_violations_total", "Safety-oracle violations",
                label)
        .inc(violations);
  }
}

}  // namespace

void OracleResult::merge(OracleResult other) {
  violations.insert(violations.end(), std::make_move_iterator(other.violations.begin()),
                    std::make_move_iterator(other.violations.end()));
}

std::string OracleResult::summary() const {
  std::string out;
  for (const auto& v : violations) {
    if (!out.empty()) out += '\n';
    out += v;
  }
  return out;
}

std::vector<ExecRecord> execute_stream(const protocol::Trace& trace) {
  std::vector<ExecRecord> stream;
  for (const auto& step : trace.steps) {
    for (const auto& action : step.actions) {
      if (const auto* exec = std::get_if<protocol::Execute>(&action)) {
        stream.push_back(ExecRecord{exec->seq, exec->ordinal,
                                    protocol::payload_fingerprint(*exec->block),
                                    exec->requests});
      }
    }
  }
  return stream;
}

crypto::Digest fold_digest(const std::vector<ExecRecord>& stream) {
  util::ByteWriter w;
  w.str("chaos.exec_fold");
  for (const auto& r : stream) {
    w.u64(r.seq);
    w.u32(r.ordinal);
    w.u64(r.fingerprint);
    w.u64(r.requests);
  }
  return crypto::Digest::of(w.bytes());
}

namespace {

std::string coord(const ExecRecord& r) {
  return std::string("(").append(std::to_string(r.seq)).append(",").append(
      std::to_string(r.ordinal)).append(")");
}

}  // namespace

OracleResult check_monotonic_commit(const std::vector<ExecRecord>& stream,
                                    const std::string& label) {
  OracleResult result;
  for (std::size_t i = 1; i < stream.size(); ++i) {
    const auto& prev = stream[i - 1];
    const auto& cur = stream[i];
    const bool advances =
        cur.seq > prev.seq || (cur.seq == prev.seq && cur.ordinal > prev.ordinal);
    if (!advances) {
      result.violations.push_back("monotonic-commit: " + label + " executed " + coord(cur) +
                                  " after " + coord(prev) + " (position " + std::to_string(i) +
                                  ")");
    }
  }
  count_verdict("monotonic-commit", result.violations.size());
  return result;
}

OracleResult check_no_conflict(const std::vector<ExecRecord>& a, const std::string& label_a,
                               const std::vector<ExecRecord>& b, const std::string& label_b) {
  OracleResult result;
  std::map<std::pair<std::uint64_t, std::uint32_t>, const ExecRecord*> by_coord;
  for (const auto& r : a) by_coord.emplace(std::make_pair(r.seq, r.ordinal), &r);
  for (const auto& r : b) {
    const auto it = by_coord.find({r.seq, r.ordinal});
    if (it == by_coord.end()) continue;
    const auto& other = *it->second;
    if (other.fingerprint != r.fingerprint || other.requests != r.requests) {
      result.violations.push_back("no-conflict: coordinate " + coord(r) + " forked — " + label_a +
                                  " fp=" + std::to_string(other.fingerprint) + "/" +
                                  std::to_string(other.requests) + "req vs " + label_b +
                                  " fp=" + std::to_string(r.fingerprint) + "/" +
                                  std::to_string(r.requests) + "req");
    }
  }
  count_verdict("no-conflict", result.violations.size());
  return result;
}

OracleResult check_cross_replica_consistency(const std::vector<std::vector<ExecRecord>>& streams) {
  OracleResult result;
  std::vector<std::string> labels;
  labels.reserve(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    labels.push_back("replica " + std::to_string(i));
  }
  for (std::size_t i = 0; i < streams.size(); ++i) {
    result.merge(check_monotonic_commit(streams[i], labels[i]));
  }
  for (std::size_t i = 0; i < streams.size(); ++i) {
    for (std::size_t j = i + 1; j < streams.size(); ++j) {
      result.merge(check_no_conflict(streams[i], labels[i], streams[j], labels[j]));
    }
  }
  return result;
}

OracleResult check_confirmed_logs(
    const std::vector<std::map<std::uint64_t, crypto::Digest>>& logs) {
  OracleResult result;
  std::map<std::uint64_t, std::pair<std::size_t, crypto::Digest>> canonical;
  for (std::size_t i = 0; i < logs.size(); ++i) {
    for (const auto& [sn, digest] : logs[i]) {
      const auto [it, inserted] = canonical.emplace(sn, std::make_pair(i, digest));
      if (!inserted && it->second.second != digest) {
        result.violations.push_back(
            "confirmed-log: sn " + std::to_string(sn) + " diverges — replica " +
            std::to_string(it->second.first) + " has " + it->second.second.short_hex() +
            ", replica " + std::to_string(i) + " has " + digest.short_hex());
      }
    }
  }
  count_verdict("confirmed-log", result.violations.size());
  return result;
}

}  // namespace leopard::chaos
