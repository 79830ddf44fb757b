#include "keys/predistribution.h"

#include <algorithm>
#include <stdexcept>

#include "util/random.h"

namespace vmat {

Predistribution::Predistribution(std::uint32_t node_count,
                                 const KeyMaterialSpec& config)
    : config_(config),
      pool_(config.pool_size, config.seed),
      node_count_(node_count),
      path_keys_(node_count),
      next_path_index_(config.pool_size) {
  if (node_count == 0)
    throw std::invalid_argument("Predistribution: zero nodes");
  if (config.ring_size > config.pool_size)
    throw std::invalid_argument("Predistribution: ring larger than pool");

  // The resident per-node key state is exactly one ring seed; rings are
  // re-derived from it on demand (see ring()/ring_contains()).
  ring_seeds_.resize(node_count);
  std::uint64_t seed_state = config.seed ^ 0xabcdef12345678ULL;
  for (std::uint32_t id = 0; id < node_count; ++id)
    ring_seeds_[id] = splitmix64(seed_state);
  ring_cache_.reserve(kRingCacheCapacity);
}

std::uint64_t Predistribution::ring_seed(NodeId node) const {
  if (node.value >= node_count_)
    throw std::out_of_range("Predistribution::ring_seed");
  return ring_seeds_[node.value];
}

const KeyRing& Predistribution::ring(NodeId node) const {
  if (node.value >= node_count_)
    throw std::out_of_range("Predistribution::ring");
  for (RingCacheEntry& entry : ring_cache_) {
    if (entry.node == node.value) {
      entry.last_used = ++ring_clock_;
      return *entry.ring;
    }
  }
  auto ring = std::make_unique<KeyRing>(ring_seeds_[node.value],
                                        config_.ring_size, config_.pool_size);
  if (ring_cache_.size() < kRingCacheCapacity) {
    ring_cache_.push_back({node.value, ++ring_clock_, std::move(ring)});
    return *ring_cache_.back().ring;
  }
  RingCacheEntry* victim = &ring_cache_.front();
  for (RingCacheEntry& entry : ring_cache_)
    if (entry.last_used < victim->last_used) victim = &entry;
  *victim = {node.value, ++ring_clock_, std::move(ring)};
  return *victim->ring;
}

bool Predistribution::ring_contains(NodeId node, KeyIndex index) const {
  if (node.value >= node_count_)
    throw std::out_of_range("Predistribution::ring_contains");
  // Per-thread memo of the last derived ring: inbox drains and cascade
  // loops query the same node many times in a row, so the derivation
  // amortizes to once per (thread, node) run.
  thread_local std::uint64_t memo_seed = 0;
  thread_local bool memo_valid = false;
  thread_local std::vector<KeyIndex> memo_indices;
  const std::uint64_t seed = ring_seeds_[node.value];
  if (!memo_valid || memo_seed != seed) {
    KeyRing::derive_indices(seed, config_.ring_size, config_.pool_size,
                            memo_indices);
    memo_seed = seed;
    memo_valid = true;
  }
  return std::binary_search(memo_indices.begin(), memo_indices.end(), index);
}

SymmetricKey Predistribution::sensor_key(NodeId node) const {
  if (node.value >= node_count_)
    throw std::out_of_range("Predistribution::sensor_key");
  return derive_key("vmat.sensor-key", config_.seed, node.value);
}

std::optional<KeyIndex> Predistribution::edge_key(NodeId a, NodeId b) const {
  return ring(a).shared_key(ring(b));
}

std::span<const NodeId> Predistribution::holders(KeyIndex index) const {
  const auto it = holders_cache_.find(index);
  if (it != holders_cache_.end()) return it->second;
  if (is_path_key(index) || index == kNoKey ||
      index.value >= config_.pool_size)
    return {};  // unknown path keys have no holders; registration fills them
  // First query for this pool index: derive which rings contain it. O(n)
  // ring re-derivations, paid once per distinct revoked/pinpointed key.
  std::vector<NodeId> held_by;
  std::vector<KeyIndex> scratch;
  for (std::uint32_t id = 0; id < node_count_; ++id) {
    KeyRing::derive_indices(ring_seeds_[id], config_.ring_size,
                            config_.pool_size, scratch);
    if (std::binary_search(scratch.begin(), scratch.end(), index))
      held_by.push_back(NodeId{id});
  }
  auto& cached = holders_cache_[index];
  cached = std::move(held_by);  // built in increasing id order, so sorted
  return cached;
}

KeyIndex Predistribution::register_path_key(NodeId a, NodeId b) {
  if (a.value >= node_count_ || b.value >= node_count_)
    throw std::out_of_range("register_path_key: bad node id");
  if (a == b) throw std::invalid_argument("register_path_key: same node");
  if (const auto existing = path_key_between(a, b)) return *existing;

  const KeyIndex index{next_path_index_++};
  path_keys_[a.value].emplace_back(b, index);
  path_keys_[b.value].emplace_back(a, index);
  auto& held_by = holders_cache_[index];
  held_by = {std::min(a, b), std::max(a, b)};
  path_contexts_.resize(next_path_index_ - config_.pool_size);
  return index;
}

std::optional<KeyIndex> Predistribution::path_key_between(NodeId a,
                                                          NodeId b) const {
  if (a.value >= path_keys_.size()) return std::nullopt;
  for (const auto& [peer, index] : path_keys_[a.value])
    if (peer == b) return index;
  return std::nullopt;
}

std::span<const std::pair<NodeId, KeyIndex>> Predistribution::path_keys_of(
    NodeId node) const {
  if (node.value >= node_count_)
    throw std::out_of_range("Predistribution::path_keys_of");
  return path_keys_[node.value];
}

bool Predistribution::node_holds(NodeId node, KeyIndex index) const {
  if (index == kNoKey) return false;
  if (!is_path_key(index)) return ring_contains(node, index);
  for (const auto& [peer, held] : path_keys_[node.value])
    if (held == index) return true;
  return false;
}

std::vector<KeyIndex> Predistribution::keys_of(NodeId node) const {
  std::vector<KeyIndex> out(ring(node).indices().begin(),
                            ring(node).indices().end());
  for (const auto& [peer, index] : path_keys_[node.value])
    out.push_back(index);
  std::sort(out.begin(), out.end());
  return out;
}

SymmetricKey Predistribution::key_material(KeyIndex index) const {
  if (!is_path_key(index)) return pool_.key(index);
  if (index.value >= next_path_index_)
    throw std::out_of_range("key_material: unknown path key");
  return derive_key("vmat.path-key", config_.seed, index.value);
}

const MacContext& Predistribution::mac_context(KeyIndex index) const {
  if (!is_path_key(index)) return pool_.mac_context(index);
  const std::size_t slot = index.value - config_.pool_size;
  if (slot >= path_contexts_.size())
    throw std::out_of_range("mac_context: unknown path key");
  auto& ctx = path_contexts_[slot];
  if (!ctx) ctx = std::make_unique<MacContext>(key_material(index));
  return *ctx;
}

void Predistribution::warm_path_contexts() const {
  for (std::uint32_t index = config_.pool_size; index < next_path_index_;
       ++index)
    (void)mac_context(KeyIndex{index});
}

const MacContext& Predistribution::sensor_mac_context(NodeId node) const {
  if (node.value >= node_count_)
    throw std::out_of_range("Predistribution::sensor_mac_context");
  auto& ctx = sensor_contexts_[node.value];
  if (!ctx) ctx = std::make_unique<MacContext>(sensor_key(node));
  return *ctx;
}

}  // namespace vmat
