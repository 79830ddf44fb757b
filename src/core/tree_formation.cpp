#include "core/tree_formation.h"

#include <stdexcept>

#include "core/phase_shard.h"
#include "util/parallel.h"

namespace vmat {
namespace {

/// Record a parent into a flat staging buffer, deduplicated by (claimed id,
/// edge key) against the node's links already staged. A node records all
/// its parents in one slot of one shard, so its entries form the trailing
/// run tagged with its id — the backward scan stops at the first foreign
/// tag.
void record_parent(std::vector<ParentTable::Tagged>& staged,
                   std::uint32_t node, ParentLink link) {
  for (std::size_t i = staged.size(); i-- > 0;) {
    if (staged[i].node != node) break;
    if (staged[i].link == link) return;
  }
  staged.push_back({node, link});
}

TreeResult run_timestamp_mode(Network& net, Adversary* adversary,
                              const TreePhaseParams& params,
                              Tracer tracer) {
  const std::uint32_t n = net.node_count();
  TreeResult result;
  result.session = params.session;
  result.mode = params.mode;
  result.depth_bound = params.depth_bound;
  result.level.assign(n, kNoLevel);
  result.level[kBaseStation.value] = 0;
  const Bytes flood_frame = encode(TreeFormationMsg{params.session, 0});

  // Level-parallel sharding over active sets (see core/phase_shard.h): the
  // senders of slot t are exactly the sensors that adopted level t-1 in
  // slot t-1, which each shard's RX pass lists in its ShardBuf::next (the
  // base station seeds slot 1); sends replay serially in id order. Every
  // honest frame carries flood_frame, so its edge MAC depends on the edge
  // key alone: the flood memo computes it once per distinct key, and both
  // the TX steps and receive_valid() read it from there.
  net.warm_crypto_caches();
  net.memo_flood_macs(flood_frame);
  const std::size_t shards = plan_shards(n);
  ThreadPool& pool = ThreadPool::shared();
  std::vector<ShardBuf> bufs(shards);
  bufs[0].next.push_back({kBaseStation, {}});
  // Flat per-shard parent staging, packed into the CSR ParentTable at
  // phase end (a node records all its parents in the one slot it adopts a
  // level, within its owning shard).
  std::vector<std::vector<ParentTable::Tagged>> parent_stage(shards);

  for (Interval slot = 1; slot <= params.depth_bound; ++slot) {
    tracer.slot_tick(slot);
    if (adversary != nullptr && !adversary->strategy().passthrough()) {
      TreeCtx ctx;
      ctx.mode = params.mode;
      ctx.depth_bound = params.depth_bound;
      ctx.session = params.session;
      ctx.slot = slot;
      ctx.levels = &result.level;
      adversary->strategy().on_tree_slot(adversary->view(), ctx);
    }

    // Honest transmissions: the base station in slot 1; level-(slot-1)
    // sensors in slot `slot`.
    if (any_next(bufs)) {
      for_each_shard(
          n, shards, pool,
          [&net, &adversary, &flood_frame, &bufs](
              std::size_t shard, std::size_t, std::size_t) {
            ShardBuf& buf = bufs[shard];
            for (const NextSender& sender : buf.next) {
              const NodeId node = sender.node;
              if (byzantine(adversary, node)) continue;
              if (net.revocation().is_sensor_revoked(node)) continue;
              for (NodeId v : net.topology().neighbors(node)) {
                const auto edge_key = net.usable_edge_key(node, v);
                if (!edge_key.has_value()) continue;
                TxStep step;
                step.from = node;
                step.to = v;
                step.edge_key = *edge_key;
                step.edge_mac = net.edge_mac(*edge_key, flood_frame);
                buf.stage_payload(step, flood_frame);
                buf.steps.push_back(std::move(step));
              }
            }
            buf.next.clear();
          });
      replay_tx(net, bufs, nullptr, tracer);
    }

    const std::span<const NodeId> receivers = net.fabric().end_slot();
    if (receivers.empty()) continue;

    // Receipt: unleveled nodes adopt this slot as their level.
    ShardedTrace rx_trace(tracer, shards);
    for_each_shard(
        n, shards, pool,
        [&net, &params, &result, &parent_stage, &bufs, &rx_trace, receivers,
         slot](std::size_t shard, std::size_t begin, std::size_t end) {
          Tracer shard_tracer = rx_trace.shard(shard);
          ShardBuf& buf = bufs[shard];
          for (const NodeId node : shard_ids(receivers, begin, end)) {
            const std::uint32_t id = node.value;
            if (node == kBaseStation) {
              (void)net.fabric().take_inbox(node);  // BS ignores tree frames
              continue;
            }
            if (net.revocation().is_sensor_revoked(node)) continue;
            auto frames = net.receive_valid(node, buf.rx, shard_tracer);
            if (result.level[id] != kNoLevel) continue;  // already leveled
            bool adopted = false;
            for (const auto& env : frames) {
              const auto msg = decode_tree(env.payload);
              if (!msg.has_value() || msg->session != params.session)
                continue;
              adopted = true;
              record_parent(parent_stage[shard], id,
                            {env.from, env.edge_key});
            }
            if (adopted) {
              result.level[id] = slot;
              buf.next.push_back({node, {}});
            }
          }
        });
    rx_trace.merge();
  }
  net.clear_flood_macs();
  result.parents = ParentTable::from_tagged(n, parent_stage);
  return result;
}

TreeResult run_hopcount_mode(Network& net, Adversary* adversary,
                             const TreePhaseParams& params,
                             Tracer tracer) {
  const std::uint32_t n = net.node_count();
  TreeResult result;
  result.session = params.session;
  result.mode = params.mode;
  result.depth_bound = params.depth_bound;
  result.level.assign(n, kNoLevel);
  result.level[kBaseStation.value] = 0;
  std::vector<std::vector<ParentTable::Tagged>> parent_stage(1);

  // Hop count each node will forward with, once, in the slot after receipt.
  std::vector<std::int32_t> pending_hop(n, -1);
  std::vector<bool> forwarded(n, false);

  const Interval slot_cap = 2 * params.depth_bound + 4;
  for (Interval slot = 1; slot <= slot_cap; ++slot) {
    tracer.slot_tick(slot);
    if (adversary != nullptr && !adversary->strategy().passthrough()) {
      TreeCtx ctx;
      ctx.mode = params.mode;
      ctx.depth_bound = params.depth_bound;
      ctx.session = params.session;
      ctx.slot = slot;
      ctx.levels = &result.level;
      adversary->strategy().on_tree_slot(adversary->view(), ctx);
    }

    for (std::uint32_t id = 0; id < n; ++id) {
      const NodeId node{id};
      if (byzantine(adversary, node)) continue;
      if (net.revocation().is_sensor_revoked(node)) continue;
      if (node == kBaseStation) {
        if (slot == 1)
          net.broadcast_secure(node, encode(TreeFormationMsg{params.session, 0}));
        continue;
      }
      if (pending_hop[id] >= 0 && !forwarded[id]) {
        net.broadcast_secure(node,
                             encode(TreeFormationMsg{params.session,
                                                     pending_hop[id] + 1}));
        forwarded[id] = true;
      }
    }

    net.fabric().end_slot();

    for (std::uint32_t id = 0; id < n; ++id) {
      const NodeId node{id};
      if (node == kBaseStation) {
        (void)net.fabric().take_inbox(node);
        continue;
      }
      if (net.revocation().is_sensor_revoked(node)) continue;
      auto frames = net.receive_valid(node);
      if (result.level[id] != kNoLevel) continue;
      for (const auto& env : frames) {
        const auto msg = decode_tree(env.payload);
        if (!msg.has_value() || msg->session != params.session) continue;
        // First frame wins, exactly as in TAG.
        result.level[id] = msg->hop_count + 1;
        pending_hop[id] = msg->hop_count;
        record_parent(parent_stage[0], id, {env.from, env.edge_key});
        break;
      }
    }
  }
  result.parents = ParentTable::from_tagged(n, parent_stage);
  return result;
}

}  // namespace

TreeResult run_tree_formation(Network& net, Adversary* adversary,
                              const TreePhaseParams& params,
                              Tracer tracer) {
  if (params.depth_bound < 1)
    throw std::invalid_argument("run_tree_formation: depth_bound must be >= 1");
  net.fabric().reset();
  TreeResult result = params.mode == TreeMode::kTimestamp
                          ? run_timestamp_mode(net, adversary, params, tracer)
                          : run_hopcount_mode(net, adversary, params, tracer);
  net.fabric().reset();
  return result;
}

}  // namespace vmat
