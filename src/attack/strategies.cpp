#include "attack/strategies.h"

#include <stdexcept>

namespace vmat {
namespace {

/// The slot in which a sensor at level i transmits its bundle.
Interval send_slot_for_level(Level depth_bound, Level level) {
  return depth_bound - level + 1;
}

}  // namespace

PolicyStrategy::PolicyStrategy(LiePolicy policy, std::uint64_t seed)
    : policy_(policy), rng_(seed) {}

void PolicyStrategy::on_tree_slot(AdversaryView& view, const TreeCtx& ctx) {
  // Rebroadcast the flood in the slot after first receipt, exactly like an
  // honest sensor.
  const Bytes frame = encode(TreeFormationMsg{ctx.session, 0});
  for (NodeId m : view.malicious()) {
    const Level level = (*ctx.levels)[m.value];
    if (level == kNoLevel || level != ctx.slot - 1) continue;
    for (NodeId v : view.net().topology().neighbors(m)) {
      if (view.is_malicious(v) || v == kBaseStation) continue;
      const auto key = view.attack_key_for(v);
      if (key.has_value()) (void)view.inject(m, v, m, *key, frame);
    }
  }
}

bool PolicyStrategy::answer_predicate(AdversaryView&, const Predicate&,
                                      NodeId) {
  switch (policy_) {
    case LiePolicy::kDenyAll:
      return false;
    case LiePolicy::kAdmitAll:
      return true;
    case LiePolicy::kRandom:
      return rng_.bernoulli(0.5);
  }
  return false;
}

// --- shared attack building blocks ---

void forward_max_instead_of_min(AdversaryView& view, const AggCtx& ctx,
                                NodeId node) {
  const Level level = ctx.tree->level[node.value];
  if (level < 1 || level > ctx.tree->depth_bound) return;
  if (ctx.slot != send_slot_for_level(ctx.tree->depth_bound, level)) return;

  // Collect: own honest messages + everything received from children.
  std::vector<const AggMessage*> best(ctx.config->instances, nullptr);
  auto consider = [&](const AggMessage& m) {
    if (m.instance >= ctx.config->instances) return;
    const AggMessage*& slot = best[m.instance];
    if (slot == nullptr || m.value > slot->value) slot = &m;  // keep the MAX
  };
  for (const auto& m : (*ctx.own_messages)[node.value]) consider(m);
  for (const auto& r : (*ctx.malicious_received)[node.value]) consider(r.msg);

  AggBundle bundle;
  for (const AggMessage* m : best)
    if (m != nullptr) bundle.entries.push_back(*m);
  if (bundle.entries.empty()) return;
  const Bytes frame = encode(bundle);

  for (const ParentLink& link : ctx.tree->parents[node.value])
    (void)view.inject(node, link.claimed_id, node, link.edge_key, frame);
}

void inject_junk_min(AdversaryView& view, const AggCtx& ctx, NodeId node,
                     NodeId claimed_origin) {
  (void)ctx;  // kept in the signature for hook uniformity
  AggMessage junk;
  junk.origin = claimed_origin;
  junk.instance = 0;
  junk.value = -1000000;  // beats every honest reading
  junk.weight = 0;
  // A MAC the adversary cannot actually compute: all-zero bytes.
  const Bytes frame = encode(AggBundle{{junk}});
  for (NodeId v : view.net().topology().neighbors(node)) {
    if (view.is_malicious(v)) continue;
    const auto key = view.attack_key_for(v);
    if (key.has_value()) (void)view.inject(node, v, node, *key, frame);
  }
}

void inject_spurious_veto(AdversaryView& view, const ConfCtx& ctx, NodeId node,
                          NodeId claimed_origin) {
  VetoMsg veto;
  veto.origin = claimed_origin;
  veto.instance = 0;
  veto.value = (*ctx.broadcast_minima)[0] == kInfinity
                   ? -1
                   : (*ctx.broadcast_minima)[0] - 1;
  veto.level = 1;
  // mac left all-zero: spurious by construction.
  const Bytes frame = encode(veto);
  for (NodeId v : view.net().topology().neighbors(node)) {
    if (view.is_malicious(v)) continue;
    const auto key = view.attack_key_for(v);
    if (key.has_value()) (void)view.inject(node, v, node, *key, frame);
  }
}

void inject_valid_self_veto(AdversaryView& view, const ConfCtx& ctx,
                            NodeId node, Reading value) {
  Level level = ctx.tree->level[node.value];
  if (level < 1 || level > ctx.tree->depth_bound) level = 1;
  const VetoMsg veto = make_veto(view.sensor_key(node), node, 0, value, level,
                                 ctx.nonce);
  const Bytes frame = encode(veto);
  for (NodeId v : view.net().topology().neighbors(node)) {
    if (view.is_malicious(v)) continue;
    const auto key = view.attack_key_for(v);
    if (key.has_value()) (void)view.inject(node, v, node, *key, frame);
  }
}

// --- hand-written strategies ---

void WormholeStrategy::on_tree_slot(AdversaryView& view, const TreeCtx& ctx) {
  if (ctx.slot != 1) return;
  // Every malicious sensor immediately relays the (wormholed) tree frame
  // with a forged hop count to all honest neighbors.
  const Bytes frame = encode(TreeFormationMsg{ctx.session, forged_hop_count_});
  for (NodeId m : view.malicious()) {
    for (NodeId v : view.net().topology().neighbors(m)) {
      if (view.is_malicious(v) || v == kBaseStation) continue;
      const auto key = view.attack_key_for(v);
      if (key.has_value()) (void)view.inject(m, v, m, *key, frame);
    }
  }
}

RandomByzantineStrategy::RandomByzantineStrategy(std::uint64_t seed)
    : rng_(seed) {}

void RandomByzantineStrategy::on_tree_slot(AdversaryView& view,
                                           const TreeCtx& ctx) {
  for (NodeId m : view.malicious()) {
    if (!rng_.bernoulli(0.15)) continue;
    const Bytes frame = encode(TreeFormationMsg{
        ctx.session, static_cast<std::int32_t>(rng_.between(0, 100))});
    for (NodeId v : view.net().topology().neighbors(m)) {
      if (view.is_malicious(v) || v == kBaseStation) continue;
      const auto key = view.attack_key_for(v);
      if (key.has_value()) (void)view.inject(m, v, m, *key, frame);
    }
  }
}

void RandomByzantineStrategy::on_agg_slot(AdversaryView& view,
                                          const AggCtx& ctx) {
  for (NodeId m : view.malicious()) {
    const double coin = rng_.unit();
    if (coin < 0.3) {
      // silent drop: do nothing
    } else if (coin < 0.6) {
      forward_max_instead_of_min(view, ctx, m);
    } else if (coin < 0.75 && ctx.slot == 1) {
      inject_junk_min(view, ctx, m, m);
    }
  }
}

void RandomByzantineStrategy::on_conf_slot(AdversaryView& view,
                                           const ConfCtx& ctx) {
  if (ctx.slot != 1) return;
  for (NodeId m : view.malicious()) {
    const double coin = rng_.unit();
    if (coin < 0.25) {
      inject_spurious_veto(view, ctx, m, m);
    } else if (coin < 0.4) {
      inject_valid_self_veto(view, ctx, m,
                             (*ctx.broadcast_minima)[0] == kInfinity
                                 ? 0
                                 : (*ctx.broadcast_minima)[0] - 1);
    }
  }
}

bool RandomByzantineStrategy::answer_predicate(AdversaryView&,
                                               const Predicate&, NodeId) {
  return rng_.bernoulli(0.5);
}

Reading RandomByzantineStrategy::own_reading(NodeId, Reading honest) {
  return rng_.bernoulli(0.3) ? honest + static_cast<Reading>(rng_.between(-5, 50))
                             : honest;
}

GarbageStrategy::GarbageStrategy(std::uint64_t seed, int blobs_per_slot)
    : rng_(seed), blobs_per_slot_(blobs_per_slot) {}

void GarbageStrategy::spray(AdversaryView& view) {
  for (NodeId m : view.malicious()) {
    for (int i = 0; i < blobs_per_slot_; ++i) {
      // Random type tag (possibly valid) followed by random bytes: every
      // decoder sees every kind of malformed frame.
      Bytes blob;
      const auto len = static_cast<std::size_t>(rng_.between(0, 40));
      blob.reserve(len + 1);
      blob.push_back(static_cast<std::uint8_t>(rng_.between(0, 6)));
      for (std::size_t b = 0; b < len; ++b)
        blob.push_back(static_cast<std::uint8_t>(rng_.below(256)));
      for (NodeId v : view.net().topology().neighbors(m)) {
        if (view.is_malicious(v)) continue;
        const auto key = view.attack_key_for(v);
        if (key.has_value() && rng_.bernoulli(0.5))
          (void)view.inject(m, v, m, *key, blob);
      }
    }
  }
}

void GarbageStrategy::on_tree_slot(AdversaryView& view, const TreeCtx&) {
  spray(view);
}

void GarbageStrategy::on_agg_slot(AdversaryView& view, const AggCtx&) {
  spray(view);
}

void GarbageStrategy::on_conf_slot(AdversaryView& view, const ConfCtx&) {
  spray(view);
}

bool GarbageStrategy::answer_predicate(AdversaryView&, const Predicate&,
                                       NodeId) {
  return rng_.bernoulli(0.3);
}

std::unordered_set<NodeId> choose_malicious(const Topology& topology,
                                            std::uint32_t count,
                                            std::uint64_t seed) {
  if (count >= topology.node_count())
    throw std::invalid_argument("choose_malicious: too many malicious nodes");
  Rng rng(seed);
  for (int attempt = 0; attempt < 2000; ++attempt) {
    std::unordered_set<NodeId> chosen;
    while (chosen.size() < count) {
      const NodeId candidate{static_cast<std::uint32_t>(
          rng.between(1, topology.node_count() - 1))};
      chosen.insert(candidate);
    }
    if (topology.connected(chosen)) return chosen;
  }
  throw std::runtime_error(
      "choose_malicious: could not keep the honest subgraph connected");
}

}  // namespace vmat
