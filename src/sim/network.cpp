#include "sim/network.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "sim/snapshot.h"
#include "spec/simulation_spec.h"

namespace vmat {
namespace {

Topology validated_topology(const SimulationSpec& spec) {
  const auto errors = spec.validate();
  if (!errors.empty()) {
    std::string msg = "Network: invalid SimulationSpec";
    for (const Error& e : errors) {
      msg += "\n  ";
      msg += e.to_string();
    }
    throw std::invalid_argument(msg);
  }
  return spec.build_topology();
}

}  // namespace

Network::Network(const SimulationSpec& spec)
    : Network(validated_topology(spec), spec.network()) {}

Network::Network(Topology topology, const NetworkSpec& config)
    : topology_(std::move(topology)),
      keys_(topology_.node_count(), config.keys),
      revocation_(&keys_, config.revocation_threshold),
      fabric_(&topology_, config.capacity_per_slot),
      redundancy_(config.redundancy),
      edge_key_slots_(topology_.directed_edge_count()) {
  // Spec-validated configs never hit these; a hand-built config with an
  // out-of-domain value still fails fast at construction.
  if (config.redundancy == 0)
    throw std::invalid_argument(
        Error{ErrorCode::kInvalidArgument,
              "Network: redundancy must be >= 1 (copies per transmission)"}
            .to_string());
  if (config.loss_probability > 0.0) {
    const Status loss =
        fabric_.set_loss(config.loss_probability, config.keys.seed);
    if (!loss) throw std::invalid_argument(loss.error().to_string());
  }
}

std::size_t Network::rekey(const KeyMaterialSpec& fresh_keys) {
  const std::vector<NodeId> dead = revocation_.revoked_sensors_in_order();
  const std::uint32_t theta = revocation_.threshold();
  keys_ = Predistribution(topology_.node_count(), fresh_keys);
  revocation_ = RevocationRegistry(&keys_, theta);
  revocation_.set_tracer(tracer_);
  for (NodeId s : dead) (void)revocation_.revoke_sensor(s);
  fabric_.reset();
  std::fill(edge_key_slots_.begin(), edge_key_slots_.end(), EdgeKeySlot{});
  clear_flood_macs();
  ++key_generation_;
  return dead.size();
}

std::size_t Network::establish_path_keys() {
  std::size_t established = 0;
  for (std::uint32_t id = 0; id < topology_.node_count(); ++id) {
    for (NodeId v : topology_.neighbors(NodeId{id})) {
      if (v.value < id) continue;
      if (keys_.edge_key(NodeId{id}, v).has_value()) continue;
      if (keys_.path_key_between(NodeId{id}, v).has_value()) continue;
      (void)keys_.register_path_key(NodeId{id}, v);
      ++established;
    }
  }
  if (established > 0) {
    std::fill(edge_key_slots_.begin(), edge_key_slots_.end(), EdgeKeySlot{});
    clear_flood_macs();
    ++key_generation_;
  }
  return established;
}

std::vector<NodeId> Network::usable_neighbors(NodeId node) const {
  std::vector<NodeId> out;
  for (NodeId v : topology_.neighbors(node)) {
    if (usable_edge_key(node, v).has_value()) out.push_back(v);
  }
  return out;
}

std::optional<KeyIndex> Network::usable_edge_key(NodeId a, NodeId b) const {
  const std::uint32_t slot_index = topology_.directed_edge_slot(a, b);
  if (slot_index == Topology::kNoDirectedEdge) return std::nullopt;
  EdgeKeySlot& slot = edge_key_slots_[slot_index];
  const auto stamp =
      static_cast<std::uint32_t>(revocation_.revoked_key_count()) + 1;
  if (slot.stamp != stamp) {
    slot = {compute_usable_edge_key(a, b).value_or(kNoKey), stamp};
    // The relation is symmetric; fill the reverse direction too so b→a
    // skips its own ring merge.
    edge_key_slots_[topology_.directed_edge_slot(b, a)] = slot;
  }
  if (slot.key == kNoKey) return std::nullopt;
  return slot.key;
}

std::optional<KeyIndex> Network::compute_usable_edge_key(NodeId a,
                                                         NodeId b) const {
  // The smallest *non-revoked* shared ring key: pairs fall back to their
  // next shared key when one is revoked, exactly as Eschenauer-Gligor
  // intends. An established path key serves as the last resort.
  const auto& ra = keys_.ring(a);
  const auto& rb = keys_.ring(b);
  auto ia = ra.indices().begin();
  auto ib = rb.indices().begin();
  while (ia != ra.indices().end() && ib != rb.indices().end()) {
    if (*ia == *ib) {
      if (!revocation_.is_key_revoked(*ia)) return *ia;
      ++ia;
      ++ib;
    } else if (*ia < *ib) {
      ++ia;
    } else {
      ++ib;
    }
  }
  const auto path = keys_.path_key_between(a, b);
  if (path.has_value() && !revocation_.is_key_revoked(*path)) return path;
  return std::nullopt;
}

bool Network::send_secure(NodeId from, NodeId to, const Bytes& payload) {
  const auto key_index = usable_edge_key(from, to);
  if (!key_index.has_value()) return false;
  Envelope e;
  e.from = from;
  e.to = to;
  e.edge_key = *key_index;
  e.payload = payload;
  e.edge_mac = edge_mac(*key_index, payload);
  return send_prepared(e);
}

bool Network::send_prepared(const Envelope& envelope) {
  return send_prepared(envelope, envelope.payload);
}

bool Network::send_prepared(const Envelope& envelope,
                            std::span<const std::uint8_t> payload) {
  tracer_.mac_compute(envelope.from, envelope.edge_key);
  bool sent = false;
  for (std::uint32_t copy = 0; copy < redundancy_; ++copy)
    sent = fabric_.send(envelope, payload) || sent;
  return sent;
}

std::size_t Network::broadcast_secure(NodeId from, const Bytes& payload) {
  std::size_t sent = 0;
  for (NodeId v : topology_.neighbors(from)) {
    if (usable_edge_key(from, v).has_value() && send_secure(from, v, payload))
      ++sent;
  }
  return sent;
}

std::span<const Frame> Network::receive_valid(NodeId node, RxScratch& scratch) {
  return receive_valid(node, scratch, tracer_);
}

std::span<const Frame> Network::receive_valid(NodeId node) {
  return receive_valid(node, own_scratch_, tracer_);
}

std::span<const Frame> Network::receive_valid(NodeId node, RxScratch& scratch,
                                              Tracer tracer) {
  scratch.frames.clear();
  const std::span<const Frame> inbox = fabric_.take_inbox(node);
  if (inbox.empty()) return {};  // most per-slot drains; skip the batch
  for (const Frame& f : inbox) {
    if (f.edge_key == kNoKey) continue;
    if (revocation_.is_key_revoked(f.edge_key)) continue;
    if (!holds_claimed_key(node, f)) continue;
    scratch.frames.push_back(f);
  }
  if (scratch.frames.empty()) return {};
  if (scratch.frames.size() == 1) {
    // One candidate: a direct verify skips the batch staging entirely.
    const Frame& f = scratch.frames.front();
    const bool mac_ok = edge_mac(f.edge_key, f.payload) == f.edge_mac;
    tracer.mac_verify(node, f.edge_key, mac_ok);
    if (!mac_ok) scratch.frames.clear();
    return scratch.frames;
  }
  // Candidates the flood memo covers compare against its entry; the rest
  // of the inbox verifies through one multi-buffer batch. mac_verify
  // events still fire in frame order, so the trace stream is identical to
  // a one-at-a-time loop.
  scratch.memo.clear();
  scratch.batch.clear();
  for (const Frame& f : scratch.frames) {
    const Mac* memo = flood_mac(f.edge_key, f.payload);
    scratch.memo.push_back(memo);
    if (memo == nullptr)
      scratch.batch.add(keys_.mac_context(f.edge_key), f.payload);
  }
  if (!scratch.batch.empty()) scratch.batch.compute();
  const std::span<const Mac> macs = scratch.batch.macs();
  std::size_t lane = 0;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < scratch.frames.size(); ++i) {
    const Mac& expected =
        scratch.memo[i] != nullptr ? *scratch.memo[i] : macs[lane++];
    const bool mac_ok = expected == scratch.frames[i].edge_mac;
    tracer.mac_verify(node, scratch.frames[i].edge_key, mac_ok);
    if (mac_ok) scratch.frames[keep++] = scratch.frames[i];
  }
  scratch.frames.resize(keep);
  return scratch.frames;
}

namespace {
constexpr std::uint32_t kNetworkSection = 0x4e455457;  // "NETW"
}  // namespace

void Network::snapshot_save(SnapshotWriter& w) const {
  w.section(kNetworkSection);
  w.pod(key_generation_);
  // The slot table restores wholesale (stamps included): a slot filled
  // under revoked count c is only trusted while the live count is still c,
  // and the captured registry restores alongside — so stale stamps can
  // never alias a different revoked set.
  w.vec_pod(edge_key_slots_);
  revocation_.snapshot_save(w);
  fabric_.snapshot_save(w);
}

void Network::snapshot_load(SnapshotReader& r) {
  r.section(kNetworkSection);
  const auto generation = r.pod<std::uint64_t>();
  if (generation != key_generation_)
    throw std::invalid_argument(
        "Network::snapshot_load: key material changed since capture "
        "(rekey/path-key establishment) — the snapshot is stale");
  // MAC contexts depend only on the key material, which the generation
  // check above pins: if they were warm before the load they still are.
  const bool contexts_warm =
      warm_valid_ && warm_generation_ == key_generation_;
  r.vec_pod(edge_key_slots_);
  if (edge_key_slots_.size() != topology_.directed_edge_count())
    throw std::invalid_argument(
        "Network::snapshot_load: edge-key table does not fit the topology");
  warm_valid_ = false;  // until the whole image has loaded
  revocation_.snapshot_load(r);
  fabric_.snapshot_load(r);
  // The slot table and the registry restore together, so a slot stamped
  // for the restored registry was filled under exactly its revoked set
  // (the same rule holds_claimed_key() relies on). If every slot carries
  // that stamp, the restored table is a complete warm one; otherwise the
  // next warm_crypto_caches() rebuilds it.
  const auto stamp =
      static_cast<std::uint32_t>(revocation_.revoked_key_count()) + 1;
  warm_valid_ = contexts_warm &&
                std::all_of(edge_key_slots_.begin(), edge_key_slots_.end(),
                            [stamp](const EdgeKeySlot& slot) {
                              return slot.stamp == stamp;
                            });
  warm_revoked_count_ = revocation_.revoked_key_count();
}

std::uint64_t Network::snapshot_fingerprint() const {
  std::uint64_t h = 0x564d41542d534e41ULL;  // "VMAT-SNA"
  h = snapshot_mix(h, topology_.node_count());
  for (std::uint32_t id = 0; id < topology_.node_count(); ++id)
    for (const NodeId v : topology_.neighbors(NodeId{id}))
      h = snapshot_mix(h, (static_cast<std::uint64_t>(id) << 32) | v.value);
  const KeyMaterialSpec& keys = keys_.config();
  h = snapshot_mix(h, keys.pool_size);
  h = snapshot_mix(h, keys.ring_size);
  h = snapshot_mix(h, keys.seed);
  h = snapshot_mix(h, revocation_.threshold());
  h = snapshot_mix(h, redundancy_);
  return fabric_.config_fingerprint(h);
}

bool Network::holds_claimed_key(NodeId node, const Frame& f) const {
  const std::uint32_t slot = topology_.directed_edge_slot(f.from, node);
  if (slot != Topology::kNoDirectedEdge) {
    const EdgeKeySlot& s = edge_key_slots_[slot];
    const auto stamp =
        static_cast<std::uint32_t>(revocation_.revoked_key_count()) + 1;
    // A warmed usable edge key is by construction shared by both
    // endpoints, so a matching claim is held without any ring work. A
    // mismatch proves nothing (the claim may be another shared key).
    if (s.stamp == stamp && s.key != kNoKey && s.key == f.edge_key)
      return true;
  }
  return keys_.node_holds(node, f.edge_key);
}

void Network::warm_crypto_caches() const {
  if (warm_valid_ && warm_generation_ == key_generation_ &&
      warm_revoked_count_ == revocation_.revoked_key_count())
    return;
  // Every pool MAC context (u-bounded, not n-bounded): parallel RX
  // verifies under whatever held key a frame claims — not only warmed
  // edge keys — so each reachable context must already be a read-only
  // hit before the fan-out. Sensor-key MACs are built on the stack by
  // the sharded phases, so the per-sensor cache stays cold here.
  for (std::uint32_t k = 0; k < keys_.config().pool_size; ++k)
    (void)keys_.mac_context(KeyIndex{k});
  keys_.warm_path_contexts();
  warm_edge_keys();
  warm_valid_ = true;
  warm_generation_ = key_generation_;
  warm_revoked_count_ = revocation_.revoked_key_count();
}

void Network::memo_flood_macs(std::span<const std::uint8_t> payload) {
  flood_payload_.assign(payload.begin(), payload.end());
  flood_macs_.assign(keys_.config().pool_size, std::nullopt);
  const auto stamp =
      static_cast<std::uint32_t>(revocation_.revoked_key_count()) + 1;
  for (const EdgeKeySlot& slot : edge_key_slots_) {
    // Pool keys only, so the memo stays O(u): a path key (indexed above
    // the pool) and kNoKey fall outside it.
    if (slot.stamp != stamp || slot.key.value >= flood_macs_.size())
      continue;
    std::optional<Mac>& mac = flood_macs_[slot.key.value];
    if (!mac.has_value())
      mac = keys_.mac_context(slot.key).compute(flood_payload_);
  }
}

void Network::clear_flood_macs() noexcept {
  flood_payload_.clear();
  flood_macs_.clear();
}

const Mac* Network::flood_mac(
    KeyIndex key, std::span<const std::uint8_t> payload) const noexcept {
  if (key.value >= flood_macs_.size() || !flood_macs_[key.value].has_value())
    return nullptr;
  if (!std::equal(payload.begin(), payload.end(), flood_payload_.begin(),
                  flood_payload_.end()))
    return nullptr;
  return &*flood_macs_[key.value];
}

Mac Network::edge_mac(KeyIndex key,
                      std::span<const std::uint8_t> payload) const {
  const Mac* memo = flood_mac(key, payload);
  return memo != nullptr ? *memo : keys_.mac_context(key).compute(payload);
}

void Network::warm_edge_keys() const {
  const std::uint32_t n = topology_.node_count();
  const std::uint32_t u = keys_.config().pool_size;
  const std::size_t words = (static_cast<std::size_t>(u) + 63) / 64;
  const auto stamp =
      static_cast<std::uint32_t>(revocation_.revoked_key_count()) + 1;

  // Transient per-node ring bitmaps (n · u/8 bytes). Past the budget the
  // pairwise-merge path still warms correctly, only slower.
  constexpr std::uint64_t kWarmBitmapBudget = 1ULL << 28;  // 256 MB
  if (static_cast<std::uint64_t>(n) * words * 8 > kWarmBitmapBudget) {
    for (std::uint32_t id = 0; id < n; ++id) {
      for (NodeId v : topology_.neighbors(NodeId{id})) {
        if (v.value < id) continue;
        (void)usable_edge_key(NodeId{id}, v);
      }
    }
    return;
  }

  // Global non-revoked mask over the pool.
  std::vector<std::uint64_t> usable(words, ~0ULL);
  if ((u & 63) != 0) usable[words - 1] = (1ULL << (u & 63)) - 1;
  for (const RevocationEvent& e : revocation_.events())
    if (e.key.value < u)
      usable[e.key.value >> 6] &= ~(1ULL << (e.key.value & 63));

  // Derive each ring exactly once, straight into its bitmap row.
  std::vector<std::uint64_t> bitmaps(static_cast<std::size_t>(n) * words, 0);
  for (std::uint32_t id = 0; id < n; ++id)
    KeyRing::derive_into_bits(keys_.ring_seed(NodeId{id}),
                              keys_.config().ring_size, u,
                              bitmaps.data() +
                                  static_cast<std::size_t>(id) * words);

  // Smallest shared non-revoked index per edge = lowest set bit of the
  // AND — exactly what compute_usable_edge_key()'s sorted merge returns,
  // path-key fallback included.
  for (std::uint32_t id = 0; id < n; ++id) {
    const std::uint64_t* ri =
        bitmaps.data() + static_cast<std::size_t>(id) * words;
    for (NodeId v : topology_.neighbors(NodeId{id})) {
      if (v.value < id) continue;
      const std::uint64_t* rj =
          bitmaps.data() + static_cast<std::size_t>(v.value) * words;
      KeyIndex key = kNoKey;
      for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t m = ri[w] & rj[w] & usable[w];
        if (m != 0) {
          key = KeyIndex{
              static_cast<std::uint32_t>(w * 64 + std::countr_zero(m))};
          break;
        }
      }
      if (key == kNoKey) {
        const auto path = keys_.path_key_between(NodeId{id}, v);
        if (path.has_value() && !revocation_.is_key_revoked(*path))
          key = *path;
      }
      const EdgeKeySlot slot{key, stamp};
      edge_key_slots_[topology_.directed_edge_slot(NodeId{id}, v)] = slot;
      edge_key_slots_[topology_.directed_edge_slot(v, NodeId{id})] = slot;
    }
  }
}

}  // namespace vmat
