#include "attack/adversary.h"

#include <algorithm>
#include <stdexcept>

namespace vmat {

AdversaryView::AdversaryView(Network* net, std::unordered_set<NodeId> malicious)
    : net_(net), malicious_(std::move(malicious)) {
  if (net == nullptr) throw std::invalid_argument("AdversaryView: null net");
  if (malicious_.contains(kBaseStation))
    throw std::invalid_argument(
        "AdversaryView: the base station is trusted (Section III)");
  for (NodeId m : malicious_)
    if (m.value >= net_->node_count())
      throw std::out_of_range("AdversaryView: malicious id out of range");
}

std::span<const KeyIndex> AdversaryView::held_keys() const {
  if (held_generation_ == net_->key_generation()) return held_keys_;
  held_keys_.clear();
  for (NodeId m : malicious_) {
    const std::vector<KeyIndex> keys = net_->keys().keys_of(m);
    held_keys_.insert(held_keys_.end(), keys.begin(), keys.end());
  }
  std::sort(held_keys_.begin(), held_keys_.end());
  held_keys_.erase(std::unique(held_keys_.begin(), held_keys_.end()),
                   held_keys_.end());
  held_generation_ = net_->key_generation();
  return held_keys_;
}

bool AdversaryView::holds_pool_key(KeyIndex key) const {
  const std::span<const KeyIndex> held = held_keys();
  return std::binary_search(held.begin(), held.end(), key);
}

SymmetricKey AdversaryView::pool_key(KeyIndex key) const {
  if (!holds_pool_key(key))
    throw std::logic_error(
        "AdversaryView::pool_key: adversary does not hold this key");
  return net_->keys().key_material(key);
}

SymmetricKey AdversaryView::sensor_key(NodeId node) const {
  if (!is_malicious(node))
    throw std::logic_error(
        "AdversaryView::sensor_key: sensor is not compromised");
  return net_->keys().sensor_key(node);
}

bool AdversaryView::inject(NodeId via, NodeId to, NodeId claimed_from,
                           KeyIndex edge_key, const Bytes& payload) {
  if (!is_malicious(via)) return false;
  if (!holds_pool_key(edge_key)) return false;
  Envelope e;
  e.from = claimed_from;
  e.to = to;
  e.edge_key = edge_key;
  e.payload = payload;
  e.edge_mac = net_->keys().mac_context(edge_key).compute(payload);
  return net_->fabric().send_as(via, std::move(e));
}

std::optional<KeyIndex> AdversaryView::attack_key_for(NodeId target) const {
  const std::span<const KeyIndex> held = held_keys();
  if (held.empty()) return std::nullopt;
  const RevocationRegistry& revocation = net_->revocation();
  // Both lists are sorted: merge the target's ring against the held set.
  // Path keys index above the whole pool, so any shared ring key wins.
  auto it = held.begin();
  for (KeyIndex k : net_->keys().ring(target).indices()) {
    it = std::lower_bound(it, held.end(), k);
    if (it == held.end()) break;
    if (*it == k && !revocation.is_key_revoked(k)) return k;
  }
  std::optional<KeyIndex> best;
  for (const auto& [peer, k] : net_->keys().path_keys_of(target))
    if ((!best.has_value() || k < *best) && !revocation.is_key_revoked(k) &&
        std::binary_search(held.begin(), held.end(), k))
      best = k;
  return best;
}

TriggerState AdversaryView::trigger_state(TracePhase phase,
                                          Interval slot) const {
  TriggerState state;
  state.phase = phase;
  state.slot = slot;
  state.revoked_keys = net_->revocation().revoked_key_count();
  state.revoked_sensors = net_->revocation().revoked_sensors_in_order().size();
  state.round = round_;
  return state;
}

std::vector<NodeId> AdversaryView::malicious_neighbors_of(NodeId node) const {
  std::vector<NodeId> out;
  for (NodeId v : net_->topology().neighbors(node))
    if (is_malicious(v)) out.push_back(v);
  return out;
}

void AdversaryStrategy::on_tree_slot(AdversaryView&, const TreeCtx&) {}
void AdversaryStrategy::on_agg_slot(AdversaryView&, const AggCtx&) {}
void AdversaryStrategy::on_conf_slot(AdversaryView&, const ConfCtx&) {}

bool AdversaryStrategy::answer_predicate(AdversaryView&, const Predicate&,
                                         NodeId) {
  return false;
}

Reading AdversaryStrategy::own_reading(NodeId, Reading honest) {
  return honest;
}

Adversary::Adversary(Network* net, std::unordered_set<NodeId> malicious,
                     std::unique_ptr<AdversaryStrategy> strategy)
    : view_(net, std::move(malicious)), strategy_(std::move(strategy)) {
  if (strategy_ == nullptr)
    throw std::invalid_argument("Adversary: null strategy");
}

}  // namespace vmat
