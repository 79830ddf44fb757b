#include "core/aggregation.h"

#include <stdexcept>

#include "core/phase_shard.h"
#include "util/parallel.h"

namespace vmat {
namespace {

/// The messages an honest node originates: one per instance with a
/// contributing value (kInfinity marks "no contribution", e.g. a COUNT
/// predicate the sensor does not satisfy). Built on the fly in the node's
/// transmit slot — a stack MacContext computes the same MACs as the cached
/// sensor_mac_context() form without an O(n) prebuilt table.
void build_own_messages(const Network& net, const AggConfig& config,
                        NodeId node, std::span<const Reading> values,
                        std::span<const std::int64_t> weights,
                        std::vector<AggMessage>& out) {
  out.clear();
  const MacContext key(net.keys().sensor_key(node));
  for (std::uint32_t i = 0; i < config.instances; ++i) {
    if (values[i] == kInfinity) continue;
    out.push_back(
        make_agg_message(key, node, i, values[i], weights[i], config.nonce));
  }
}

/// The per-instance minima a sensor would honestly forward: its own message
/// and everything collected from children, minimum by value (ties broken by
/// origin id for determinism).
AggBundle honest_bundle(const std::vector<AggMessage>& own,
                        const AuditLog& audits, NodeId node,
                        std::uint32_t instances) {
  std::vector<const AggMessage*> best(instances, nullptr);
  auto consider = [&](const AggMessage& m) {
    if (m.instance >= instances) return;
    const AggMessage*& slot = best[m.instance];
    if (slot == nullptr || m.value < slot->value ||
        (m.value == slot->value && m.origin < slot->origin))
      slot = &m;
  };
  for (const auto& m : own) consider(m);
  audits.for_each_received(node,
                           [&](const ReceivedRecord& r) { consider(r.msg); });

  AggBundle bundle;
  for (const AggMessage* m : best)
    if (m != nullptr) bundle.entries.push_back(*m);
  return bundle;
}

}  // namespace

AggregationOutcome run_aggregation(Network& net, Adversary* adversary,
                                   const TreeResult& tree,
                                   const AggConfig& config,
                                   const ValueTable& values,
                                   const ValueTable& weights, AuditLog& audits,
                                   Tracer tracer) {
  const std::uint32_t n = net.node_count();
  const Level L = tree.depth_bound;
  if (!values.has_shape(n, config.instances) ||
      !weights.has_shape(n, config.instances) || audits.node_count() != n)
    throw std::invalid_argument(
        "run_aggregation: values/weights must be node_count x instances and "
        "the audit log must cover every node");

  net.fabric().reset();

  // Level-parallel sharding (see core/phase_shard.h): shards cover
  // contiguous node-id ranges, buffer their sends, and meter receipt into
  // per-shard traces; every fabric mutation and trace emission happens (or
  // merges) in global node-id order, so results and recorded streams are
  // bit-identical for any thread count.
  net.warm_crypto_caches();
  const std::size_t shards = plan_shards(n);
  ThreadPool& pool = ThreadPool::shared();
  std::vector<ShardBuf> bufs(shards);

  audits.begin_aggregation(shards);
  for (std::uint32_t id = 0; id < n; ++id)
    audits.set_level(NodeId{id}, tree.level[id]);

  // The senders of slot t are the level-(L-t+1) sensors: bucket every
  // validly leveled sensor by level once (CSR, ids ascending within a
  // bucket), so each TX pass visits one bucket instead of all n ids.
  std::vector<std::uint32_t> level_start(static_cast<std::size_t>(L) + 2, 0);
  for (std::uint32_t id = 1; id < n; ++id)
    if (tree.has_valid_level(NodeId{id})) ++level_start[tree.level[id] + 1];
  for (Level i = 1; i <= L; ++i) level_start[i + 1] += level_start[i];
  std::vector<NodeId> by_level(level_start[L + 1]);
  {
    std::vector<std::uint32_t> cursor(level_start.begin(),
                                      level_start.end() - 1);
    for (std::uint32_t id = 1; id < n; ++id)
      if (tree.has_valid_level(NodeId{id}))
        by_level[cursor[tree.level[id]]++] = NodeId{id};
  }

  // The adversary hook interface exposes every node's own messages and the
  // valid records delivered to malicious nodes — both O(n)
  // vector-of-vectors by construction (strategies index them per node). A
  // clean large-n run (no adversary) skips them entirely: honest
  // transmitters rebuild their own messages on the fly in their one
  // transmit slot, bit-identically (same pure MAC over the same inputs).
  const bool hooked = adversary != nullptr;
  std::vector<std::vector<AggMessage>> own(hooked ? n : 0);
  std::vector<std::vector<ReceivedRecord>> malicious_received(hooked ? n : 0);
  if (hooked) {
    std::vector<AggMessage> msgs;
    for (std::uint32_t id = 0; id < n; ++id) {
      const NodeId node{id};
      if (node == kBaseStation) continue;
      if (net.revocation().is_sensor_revoked(node)) continue;
      if (!tree.has_valid_level(node)) continue;
      build_own_messages(net, config, node, values.row(id), weights.row(id),
                         msgs);
      own[id] = msgs;
    }
  }

  AggregationOutcome outcome;

  for (Interval slot = 1; slot <= L; ++slot) {
    tracer.slot_tick(slot);
    if (adversary != nullptr && !adversary->strategy().passthrough()) {
      AggCtx ctx;
      ctx.tree = &tree;
      ctx.config = &config;
      ctx.slot = slot;
      ctx.malicious_received = &malicious_received;
      ctx.own_messages = &own;
      adversary->strategy().on_agg_slot(adversary->view(), ctx);
    }

    // Honest transmissions: a level-i sensor transmits in slot L-i+1.
    // Shards build bundles and batch-compute edge MACs; the fabric sends
    // replay serially below.
    const Level sending = L - slot + 1;
    const std::span<const NodeId> senders(
        by_level.data() + level_start[sending],
        level_start[sending + 1] - level_start[sending]);
    if (!senders.empty()) {
      for_each_shard(
          n, shards, pool,
          [&net, &tree, &config, &adversary, &values, &weights, &audits,
           &bufs, senders](std::size_t shard, std::size_t begin,
                           std::size_t end) {
            ShardBuf& buf = bufs[shard];
            std::vector<AggMessage> own_msgs;  // per-node scratch
            for (const NodeId node : shard_ids(senders, begin, end)) {
              if (byzantine(adversary, node)) continue;
              if (net.revocation().is_sensor_revoked(node)) continue;
              build_own_messages(net, config, node, values.row(node.value),
                                 weights.row(node.value), own_msgs);
              const AggBundle bundle =
                  honest_bundle(own_msgs, audits, node, config.instances);
              if (bundle.entries.empty()) continue;
              const Bytes frame = encode(bundle);

              const auto parents = tree.parents[node.value];
              const std::size_t fanout =
                  config.multipath ? parents.size()
                                   : std::min<std::size_t>(1, parents.size());
              for (std::size_t p = 0; p < fanout; ++p) {
                const ParentLink& link = parents[p];
                if (net.revocation().is_key_revoked(link.edge_key)) continue;
                TxStep step;
                step.from = node;
                step.to = link.claimed_id;
                step.edge_key = link.edge_key;
                // The claimed parent may not be a physical neighbor (a
                // spoofed tree-formation frame); the fabric then drops the
                // frame at replay, which is exactly a silent drop the
                // confirmation phase will catch.
                buf.stage_payload(step, frame);
                buf.steps.push_back(std::move(step));
                for (const auto& m : bundle.entries)
                  audits.add_forwarded(shard, node,
                                       {m, link.edge_key, link.claimed_id});
              }
            }
            compute_step_macs(net.keys(), buf);
          });
      replay_tx(net, bufs, nullptr, tracer);
    }

    const std::span<const NodeId> receivers = net.fabric().end_slot();
    if (receivers.empty()) continue;

    // Receipt.
    ShardedTrace rx_trace(tracer, shards);
    for_each_shard(
        n, shards, pool,
        [&net, &tree, &config, &adversary, &audits, &bufs, &rx_trace,
         &malicious_received, &outcome, receivers, slot, L](
            std::size_t shard, std::size_t begin, std::size_t end) {
          Tracer shard_tracer = rx_trace.shard(shard);
          for (const NodeId node : shard_ids(receivers, begin, end)) {
            const std::uint32_t id = node.value;
            if (net.revocation().is_sensor_revoked(node)) continue;
            const bool is_bs = node == kBaseStation;
            if (!is_bs && !tree.has_valid_level(node)) {
              (void)net.fabric().take_inbox(node);
              continue;
            }
            const Level i = is_bs ? 0 : tree.level[id];
            auto frames = net.receive_valid(node, bufs[shard].rx,
                                            shard_tracer);
            // Collection window: slots 1 .. L-i.
            if (!is_bs && slot > L - i) continue;
            const bool is_malicious =
                adversary != nullptr && adversary->is_malicious(node);
            for (const auto& env : frames) {
              const auto bundle = decode_agg(env.payload);
              if (!bundle.has_value()) continue;
              for (const auto& m : bundle->entries) {
                if (m.instance >= config.instances) continue;
                ReceivedRecord rec;
                rec.msg = m;
                rec.in_edge = env.edge_key;
                rec.slot = slot;
                rec.child_level = L - slot + 1;
                rec.claimed_sender = env.from;
                if (is_bs) {
                  // Only the shard owning kBaseStation reaches this arm
                  // (RX shards partition nodes), so the shared outcome
                  // sees exactly one writer.
                  // vmat-analyze: allow(shard-race) -- BS-owner-only write
                  outcome.arrivals.push_back({m, env.edge_key, slot});
                  audits.add_received(shard, node, rec);
                } else {
                  audits.add_received(shard, node, rec);
                  if (is_malicious) malicious_received[id].push_back(rec);
                }
              }
            }
          }
        });
    rx_trace.merge();
  }

  net.fabric().reset();
  return outcome;
}

}  // namespace vmat
