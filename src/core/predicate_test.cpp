#include "core/predicate_test.h"

#include <stdexcept>

namespace vmat {

bool ReplyReach::reaches(const Network& net, const Adversary* adversary,
                         std::span<const NodeId> repliers) {
  if (repliers.empty()) return false;
  const std::size_t revoked =
      net.revocation().revoked_sensors_in_order().size();
  if (revoked_sensors_ != revoked) {
    // BFS from the base station over the active honest subgraph.
    const std::uint32_t n = net.node_count();
    const auto active = [&net, adversary](NodeId node) {
      return !net.revocation().is_sensor_revoked(node) &&
             !byzantine(adversary, node);
    };
    reached_.assign(n, false);
    std::vector<NodeId> queue;
    if (active(kBaseStation)) {
      reached_[kBaseStation.value] = true;
      queue.push_back(kBaseStation);
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (NodeId v : net.topology().neighbors(queue[head])) {
        if (reached_[v.value] || !active(v)) continue;
        reached_[v.value] = true;
        queue.push_back(v);
      }
    }
    revoked_sensors_ = revoked;
  }
  for (NodeId r : repliers) {
    if (reached_[r.value]) return true;
    for (NodeId v : net.topology().neighbors(r))
      if (reached_[v.value]) return true;
  }
  return false;
}

PredicateTestEngine::PredicateTestEngine(Network* net, Adversary* adversary,
                                         const AuditLog* audits,
                                         CostMeter* meter,
                                         PredicateTestMode mode, Tracer tracer,
                                         ReplyReach* reach)
    : net_(net),
      adversary_(adversary),
      audits_(audits),
      meter_(meter),
      mode_(mode),
      tracer_(tracer),
      shared_reach_(reach) {
  if (net == nullptr || audits == nullptr || meter == nullptr)
    throw std::invalid_argument("PredicateTestEngine: null dependency");
}

const MacContext& PredicateTestEngine::key_context(const KeySpec& key) const {
  switch (key.type) {
    case KeySpec::Type::kSensorKey:
      return net_->keys().sensor_mac_context(key.sensor);
    case KeySpec::Type::kPoolKey:
      return net_->keys().mac_context(key.pool);
  }
  throw std::logic_error("key_context: bad key spec");
}

std::vector<NodeId> PredicateTestEngine::collect_repliers(
    const KeySpec& key, const Predicate& predicate) {
  std::vector<NodeId> repliers;
  const auto consider = [&](NodeId node) {
    if (net_->revocation().is_sensor_revoked(node)) return;
    if (byzantine(adversary_, node)) {
      if (adversary_->strategy().answer_predicate(adversary_->view(),
                                                  predicate, node))
        repliers.push_back(node);
    } else if (evaluate_predicate(predicate, node, *audits_)) {
      repliers.push_back(node);
    }
  };
  // Only the key's holders can answer. Holder lists are sorted by id, so
  // the strategy sees its answer_predicate() calls in ascending-id order.
  switch (key.type) {
    case KeySpec::Type::kSensorKey:
      if (key.sensor.value < net_->node_count()) consider(key.sensor);
      break;
    case KeySpec::Type::kPoolKey:
      for (NodeId node : net_->keys().holders(key.pool)) consider(node);
      break;
  }
  return repliers;
}

bool PredicateTestEngine::flood_reply(const std::vector<NodeId>& repliers,
                                      const Mac& reply, const Digest& token) {
  // One-time verified flood on the actual fabric: the reply needs no edge
  // MAC because every sensor can check a candidate frame against the
  // broadcast token H(MAC_K(N ‖ P)).
  net_->fabric().reset();
  const std::uint32_t n = net_->node_count();
  const Bytes frame = encode(PredicateReplyMsg{reply});

  auto transmit = [&](NodeId from) {
    for (NodeId v : net_->topology().neighbors(from)) {
      Envelope e;
      e.from = from;
      e.to = v;
      e.edge_key = kNoKey;  // token-verified, not edge-authenticated
      e.payload = frame;
      (void)net_->fabric().send_as(from, std::move(e));
    }
  };

  std::vector<bool> handled(n, false);
  std::vector<NodeId> to_send = repliers;
  bool bs_received = false;

  const Level L = net_->physical_depth();
  for (Interval slot = 1; slot <= 2 * L + 2 && !bs_received; ++slot) {
    for (NodeId s : to_send) {
      if (net_->revocation().is_sensor_revoked(s)) continue;
      transmit(s);
      handled[s.value] = true;
    }
    to_send.clear();
    net_->fabric().end_slot();
    for (std::uint32_t id = 0; id < n; ++id) {
      const NodeId node{id};
      auto inbox = net_->fabric().take_inbox(node);
      if (net_->revocation().is_sensor_revoked(node)) continue;
      if (node != kBaseStation && byzantine(adversary_, node))
        continue;  // Byzantine sensors do not relay
      for (const auto& env : inbox) {
        const auto msg = decode_reply(env.payload);
        if (!msg.has_value()) continue;          // malformed: dropped
        if (hash_of_mac(msg->reply) != token) continue;  // junk: dropped
        if (node == kBaseStation) {
          bs_received = true;
          break;
        }
        if (!handled[id]) {
          handled[id] = true;
          to_send.push_back(node);  // one-time forward next slot
        }
      }
    }
  }
  net_->fabric().reset();
  return bs_received;
}

bool PredicateTestEngine::run(const KeySpec& key, const Predicate& predicate) {
  ++nonce_;
  meter_->predicate_tests += 1;
  // One authenticated broadcast (token dissemination) + the reply flood:
  // the paper charges two flooding rounds per test.
  meter_->flooding_rounds += 2;
  meter_->control_bytes += static_cast<std::uint64_t>(net_->node_count()) *
                           (encode_predicate(predicate).size() + 48);

  const std::vector<NodeId> repliers = collect_repliers(key, predicate);

  bool ok;
  if (mode_ == PredicateTestMode::kReachability) {
    ReplyReach& reach =
        shared_reach_ != nullptr ? *shared_reach_ : own_reach_;
    ok = reach.reaches(*net_, adversary_, repliers);
  } else {
    // Message-level mode: derive the actual reply and token and flood it.
    ByteWriter mac_input;
    mac_input.str("vmat.predicate-reply");
    mac_input.u64(nonce_);
    mac_input.raw(encode_predicate(predicate));
    const Mac reply = key_context(key).compute(mac_input.bytes());
    ok = flood_reply(repliers, reply, hash_of_mac(reply));
  }
  const NodeId subject =
      key.type == KeySpec::Type::kSensorKey ? key.sensor : NodeId{};
  const KeyIndex pool =
      key.type == KeySpec::Type::kPoolKey ? key.pool : kNoKey;
  tracer_.predicate_test(subject, pool, ok);
  return ok;
}

}  // namespace vmat
