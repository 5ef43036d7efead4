#include "chaos/mutator.hpp"

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <utility>
#include <variant>

#include "proto/messages.hpp"

namespace leopard::chaos {

namespace {

constexpr std::size_t kMaxOps = 6;       // total ops per plan (corpus parent + fresh)
constexpr std::size_t kMaxCorpus = 256;  // coverage corpus cap

bool is_eligible(const protocol::Event& event) {
  return std::holds_alternative<protocol::MessageIn>(event) ||
         std::holds_alternative<protocol::ClientRequest>(event);
}

std::uint32_t count_eligible(const protocol::Trace& trace) {
  std::uint32_t n = 0;
  for (const auto& step : trace.steps) {
    if (is_eligible(step.event)) ++n;
  }
  return n;
}

crypto::Digest flip_digest(const crypto::Digest& d, std::uint64_t param) {
  crypto::Sha256::DigestBytes b{};
  std::copy(d.bytes().begin(), d.bytes().end(), b.begin());
  b[param % b.size()] ^= static_cast<std::uint8_t>(1u << ((param >> 5) % 8));
  return crypto::Digest(b);
}

template <typename ShareLike>
void flip_share(ShareLike& s, std::uint64_t param) {
  s.bytes[param % s.bytes.size()] ^= static_cast<std::uint8_t>(1u << ((param >> 6) % 8));
}

/// Returns a corrupted copy of `payload`, or nullptr when the type has no
/// modeled corruption (the op is then a no-op, not a drop — classes stay
/// distinct for coverage accounting).
sim::PayloadPtr corrupt_payload(const sim::Payload& payload, std::uint64_t param) {
  const auto pick = [&](std::uint64_t arms) { return param % arms; };

  if (const auto* m = dynamic_cast<const proto::ClientRequestMsg*>(&payload)) {
    auto copy = std::make_shared<proto::ClientRequestMsg>(*m);
    if (copy->requests.empty()) return nullptr;
    auto& req = copy->requests[(param >> 8) % copy->requests.size()];
    if (pick(2) == 0) {
      req.seq ^= 1 + ((param >> 16) & 0xFFFF);
    } else {
      req.client_id ^= 1 + ((param >> 16) & 0xFFFF);
    }
    return copy;
  }
  if (const auto* m = dynamic_cast<const proto::DatablockMsg*>(&payload)) {
    auto copy = std::make_shared<proto::DatablockMsg>(*m);
    copy->cached_digest = flip_digest(copy->cached_digest, param);
    return copy;
  }
  if (const auto* m = dynamic_cast<const proto::ReadyMsg*>(&payload)) {
    auto copy = std::make_shared<proto::ReadyMsg>(*m);
    if (copy->datablock_hashes.empty()) return nullptr;
    auto& h = copy->datablock_hashes[(param >> 8) % copy->datablock_hashes.size()];
    h = flip_digest(h, param);
    return copy;
  }
  if (const auto* m = dynamic_cast<const proto::BftBlockMsg*>(&payload)) {
    auto copy = std::make_shared<proto::BftBlockMsg>(*m);
    switch (pick(4)) {
      case 0: copy->cached_digest = flip_digest(copy->cached_digest, param); break;
      case 1: copy->block.view ^= 1 + ((param >> 16) & 0xF); break;
      case 2: copy->block.sn ^= 1 + ((param >> 16) & 0xF); break;
      default:
        if (copy->block.links.empty()) return nullptr;
        copy->block.links[(param >> 8) % copy->block.links.size()] =
            flip_digest(copy->block.links[0], param);
        break;
    }
    return copy;
  }
  if (const auto* m = dynamic_cast<const proto::VoteMsg*>(&payload)) {
    auto copy = std::make_shared<proto::VoteMsg>(*m);
    switch (pick(3)) {
      case 0: copy->round = copy->round == 1 ? 2 : 1; break;
      case 1: copy->block_digest = flip_digest(copy->block_digest, param); break;
      default: flip_share(copy->share, param); break;
    }
    return copy;
  }
  if (const auto* m = dynamic_cast<const proto::ProofMsg*>(&payload)) {
    auto copy = std::make_shared<proto::ProofMsg>(*m);
    if (pick(2) == 0) {
      copy->round = copy->round == 1 ? 2 : 1;
    } else {
      flip_share(copy->signature, param);
    }
    return copy;
  }
  if (const auto* m = dynamic_cast<const proto::QueryMsg*>(&payload)) {
    auto copy = std::make_shared<proto::QueryMsg>(*m);
    if (copy->missing.empty()) return nullptr;
    auto& h = copy->missing[(param >> 8) % copy->missing.size()];
    h = flip_digest(h, param);
    return copy;
  }
  if (const auto* m = dynamic_cast<const proto::ChunkResponseMsg*>(&payload)) {
    auto copy = std::make_shared<proto::ChunkResponseMsg>(*m);
    if (!copy->chunk.empty() && pick(2) == 0) {
      copy->chunk[(param >> 8) % copy->chunk.size()] ^= 0xFF;
    } else {
      copy->merkle_root = flip_digest(copy->merkle_root, param);
    }
    return copy;
  }
  if (const auto* m = dynamic_cast<const proto::CheckpointMsg*>(&payload)) {
    auto copy = std::make_shared<proto::CheckpointMsg>(*m);
    switch (pick(3)) {
      case 0: copy->sn ^= 1 + ((param >> 16) & 0xF); break;
      case 1: copy->state = flip_digest(copy->state, param); break;
      default:
        if (copy->share) {
          flip_share(*copy->share, param);
        } else if (copy->signature) {
          flip_share(*copy->signature, param);
        }
        break;
    }
    return copy;
  }
  if (const auto* m = dynamic_cast<const proto::TimeoutMsg*>(&payload)) {
    auto copy = std::make_shared<proto::TimeoutMsg>(*m);
    if (pick(2) == 0) {
      copy->view ^= 1 + ((param >> 16) & 0xF);
    } else {
      flip_share(copy->share, param);
    }
    return copy;
  }
  if (const auto* m = dynamic_cast<const proto::ViewChangeMsg*>(&payload)) {
    auto copy = std::make_shared<proto::ViewChangeMsg>(*m);
    switch (pick(3)) {
      case 0: copy->new_view ^= 1 + ((param >> 16) & 0xF); break;
      case 1: copy->checkpoint_sn ^= 1 + ((param >> 16) & 0xF); break;
      default: copy->checkpoint_state = flip_digest(copy->checkpoint_state, param); break;
    }
    return copy;
  }
  if (const auto* m = dynamic_cast<const proto::NewViewMsg*>(&payload)) {
    auto copy = std::make_shared<proto::NewViewMsg>(*m);
    if (pick(2) == 0 || copy->view_changes.empty()) {
      copy->new_view ^= 1 + ((param >> 16) & 0xF);
    } else {
      copy->view_changes[(param >> 8) % copy->view_changes.size()].checkpoint_sn ^= 1;
    }
    return copy;
  }
  if (const auto* m = dynamic_cast<const proto::BaselineBlockMsg*>(&payload)) {
    auto copy = std::make_shared<proto::BaselineBlockMsg>(*m);
    switch (pick(3)) {
      case 0: copy->cached_digest = flip_digest(copy->cached_digest, param); break;
      case 1: copy->height ^= 1 + ((param >> 16) & 0xF); break;
      default: copy->parent = flip_digest(copy->parent, param); break;
    }
    return copy;
  }
  if (const auto* m = dynamic_cast<const proto::BaselineVoteMsg*>(&payload)) {
    auto copy = std::make_shared<proto::BaselineVoteMsg>(*m);
    switch (pick(3)) {
      case 0: copy->height ^= 1 + ((param >> 16) & 0xF); break;
      case 1: copy->block_digest = flip_digest(copy->block_digest, param); break;
      default: flip_share(copy->share, param); break;
    }
    return copy;
  }
  if (const auto* m = dynamic_cast<const proto::StateOfferMsg*>(&payload)) {
    auto copy = std::make_shared<proto::StateOfferMsg>(*m);
    switch (pick(3)) {
      case 0: copy->until_index ^= 1 + ((param >> 16) & 0xF); break;
      case 1: copy->from_index ^= 1 + ((param >> 16) & 0xF); break;
      default: copy->exec_digest = flip_digest(copy->exec_digest, param); break;
    }
    return copy;
  }
  if (const auto* m = dynamic_cast<const proto::StateChunkMsg*>(&payload)) {
    auto copy = std::make_shared<proto::StateChunkMsg>(*m);
    if (!copy->chunk.empty() && pick(2) == 0) {
      copy->chunk[(param >> 8) % copy->chunk.size()] ^= 0xFF;
    } else {
      copy->exec_digest = flip_digest(copy->exec_digest, param);
    }
    return copy;
  }
  if (const auto* m = dynamic_cast<const proto::AckMsg*>(&payload)) {
    auto copy = std::make_shared<proto::AckMsg>(*m);
    if (copy->seqs.empty()) return nullptr;
    copy->seqs[(param >> 8) % copy->seqs.size()] ^= 1 + ((param >> 16) & 0xFFFF);
    return copy;
  }
  return nullptr;
}

void corrupt_event(protocol::Event& event, std::uint64_t param) {
  if (auto* in = std::get_if<protocol::MessageIn>(&event)) {
    if (auto corrupted = corrupt_payload(*in->payload, param)) in->payload = std::move(corrupted);
  } else if (auto* cr = std::get_if<protocol::ClientRequest>(&event)) {
    if (auto corrupted = corrupt_payload(*cr->request, param)) {
      cr->request = std::static_pointer_cast<const proto::ClientRequestMsg>(std::move(corrupted));
    }
  }
}

std::uint64_t mix64(std::uint64_t v) {
  std::uint64_t state = v;
  return util::splitmix64(state);
}

}  // namespace

const char* mutation_class_name(MutationClass cls) {
  switch (cls) {
    case MutationClass::kFieldCorruption: return "corrupt";
    case MutationClass::kDrop: return "drop";
    case MutationClass::kDuplicate: return "dup";
    case MutationClass::kReorder: return "reorder";
    case MutationClass::kDelay: return "delay";
    case MutationClass::kSpoofSender: return "spoof";
  }
  return "?";
}

std::string MutationPlan::describe() const {
  std::string out = "seed=" + std::to_string(seed) + " ops=[";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i != 0) out += ' ';
    out += mutation_class_name(ops[i].cls);
    out += '@';
    out += std::to_string(ops[i].step);
  }
  out += ']';
  return out;
}

TraceMutator::TraceMutator(std::uint64_t sweep_seed, std::uint32_t n_replicas)
    : sweep_seed_(sweep_seed), n_(n_replicas == 0 ? 1 : n_replicas) {}

MutationPlan TraceMutator::plan(std::uint64_t case_seed, const protocol::Trace& base) {
  MutationPlan p;
  p.seed = case_seed;
  const std::uint32_t eligible = count_eligible(base);
  if (eligible == 0) return p;

  util::Rng rng(mix64(sweep_seed_) ^ (case_seed * 0x9E3779B97F4A7C15ull));
  if (!corpus_.empty() && rng.uniform(2) == 0) {
    p.ops = corpus_[rng.uniform(corpus_.size())].ops;
  }
  const auto fresh = 1 + rng.uniform(3);
  for (std::uint64_t i = 0; i < fresh && p.ops.size() < kMaxOps; ++i) {
    Mutation op;
    op.cls = static_cast<MutationClass>(rng.uniform(kMutationClassCount));
    op.step = static_cast<std::uint32_t>(rng.uniform(eligible));
    op.param = rng.next_u64();
    p.ops.push_back(op);
  }
  return p;
}

protocol::Trace TraceMutator::mutated_input(const MutationPlan& plan,
                                            const protocol::Trace& base) const {
  protocol::Trace t = base;
  for (const auto& op : plan.ops) {
    if (op.cls != MutationClass::kDuplicate && op.cls != MutationClass::kReorder &&
        op.cls != MutationClass::kDelay) {
      continue;
    }
    std::vector<std::size_t> eligible;
    for (std::size_t i = 0; i < t.steps.size(); ++i) {
      if (is_eligible(t.steps[i].event)) eligible.push_back(i);
    }
    if (eligible.empty()) continue;
    const std::size_t raw = eligible[op.step % eligible.size()];
    switch (op.cls) {
      case MutationClass::kDuplicate:
        t.steps.insert(t.steps.begin() + static_cast<std::ptrdiff_t>(raw) + 1, t.steps[raw]);
        break;
      case MutationClass::kReorder: {
        const std::size_t other = eligible[op.param % eligible.size()];
        if (raw != other) std::swap(t.steps[raw], t.steps[other]);
        break;
      }
      case MutationClass::kDelay: {
        auto step = std::move(t.steps[raw]);
        t.steps.erase(t.steps.begin() + static_cast<std::ptrdiff_t>(raw));
        const std::size_t dst = std::min(raw + 1 + op.param % 5, t.steps.size());
        t.steps.insert(t.steps.begin() + static_cast<std::ptrdiff_t>(dst), std::move(step));
        break;
      }
      default: break;
    }
  }
  // The moves above scramble step timestamps; the replay clock must still be
  // non-decreasing (cores compare against `now`).
  for (std::size_t i = 1; i < t.steps.size(); ++i) {
    t.steps[i].at = std::max(t.steps[i].at, t.steps[i - 1].at);
  }
  return t;
}

protocol::ReplayEnv::EventFilter TraceMutator::make_filter(const MutationPlan& plan) const {
  std::unordered_map<std::uint32_t, std::vector<Mutation>> targets;
  for (const auto& op : plan.ops) {
    if (op.cls == MutationClass::kFieldCorruption || op.cls == MutationClass::kDrop ||
        op.cls == MutationClass::kSpoofSender) {
      targets[op.step].push_back(op);
    }
  }
  if (targets.empty()) return nullptr;

  return [targets = std::move(targets), n = n_,
          counter = std::uint32_t{0}](protocol::TraceStep& step) mutable {
    if (!is_eligible(step.event)) return true;
    const auto idx = counter++;
    const auto it = targets.find(idx);
    if (it == targets.end()) return true;
    for (const auto& op : it->second) {
      switch (op.cls) {
        case MutationClass::kDrop:
          return false;
        case MutationClass::kSpoofSender:
          if (auto* in = std::get_if<protocol::MessageIn>(&step.event)) {
            in->from = static_cast<protocol::NodeId>(op.param % n);
          } else if (auto* cr = std::get_if<protocol::ClientRequest>(&step.event)) {
            cr->from = static_cast<protocol::NodeId>(op.param % (2 * n));
          }
          break;
        case MutationClass::kFieldCorruption:
          corrupt_event(step.event, op.param);
          break;
        default:
          break;  // structural ops were applied to the input stream
      }
    }
    return true;
  };
}

bool TraceMutator::record_coverage(const MutationPlan& plan, const protocol::Trace& replayed) {
  bool fresh = false;
  for (const auto& step : replayed.steps) {
    std::uint64_t kinds = 0;
    for (const auto& action : step.actions) kinds |= 1ull << action.index();
    const std::uint64_t bucket = std::bit_width(step.actions.size());
    const std::uint64_t feature =
        mix64(static_cast<std::uint64_t>(step.event.index()) | (kinds << 8) | (bucket << 40));
    if (features_.insert(feature).second) fresh = true;
  }
  if (fresh && corpus_.size() < kMaxCorpus) corpus_.push_back(plan);
  return fresh;
}

}  // namespace leopard::chaos
