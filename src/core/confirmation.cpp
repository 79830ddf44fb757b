#include "core/confirmation.h"

#include <optional>
#include <stdexcept>

#include "core/phase_shard.h"
#include "util/parallel.h"

namespace vmat {
namespace {

/// The instance a sensor vetoes for: the smallest instance index whose own
/// value undercuts the broadcast minimum.
std::optional<std::uint32_t> veto_instance(
    std::span<const Reading> own_values,
    const std::vector<Reading>& minima) {
  for (std::uint32_t i = 0; i < minima.size() && i < own_values.size(); ++i)
    if (own_values[i] < minima[i]) return i;
  return std::nullopt;
}

}  // namespace

ConfirmationOutcome run_confirmation(
    Network& net, Adversary* adversary, const TreeResult& tree,
    const std::vector<Reading>& broadcast_minima, std::uint64_t nonce,
    const ValueTable& values, AuditLog& audits, bool slotted, Tracer tracer) {
  const std::uint32_t n = net.node_count();
  const Level L = tree.depth_bound;
  if (!values.has_shape(
          n, static_cast<std::uint32_t>(broadcast_minima.size())) ||
      audits.node_count() != n)
    throw std::invalid_argument(
        "run_confirmation: values must be node_count x (one column per "
        "broadcast minimum) and the audit log must cover every node");

  net.fabric().reset();

  // Level-parallel sharding over active sets (see core/phase_shard.h).
  // Veto MACs and the per-neighbor edge MACs compute in-shard; sends,
  // out-edge audit records (which depend on send success) and veto trace
  // events replay serially in node-id order, so the fabric and the event
  // stream behave exactly as in serial execution. Slot 1 checks every
  // sensor for a veto; later slots send only the forwarders each shard's
  // RX pass scheduled in its ShardBuf::next.
  net.warm_crypto_caches();
  const std::size_t shards = plan_shards(n);
  ThreadPool& pool = ThreadPool::shared();
  std::vector<ShardBuf> bufs(shards);

  audits.begin_sof(shards);

  // The malicious-veto feed exists only for the adversary hooks.
  std::vector<std::vector<VetoMsg>> malicious_vetoes(
      adversary != nullptr ? n : 0);

  ConfirmationOutcome outcome;

  const Interval max_interval = slotted ? L : 4 * L + 4;
  for (Interval slot = 1; slot <= max_interval; ++slot) {
    tracer.slot_tick(slot);
    if (adversary != nullptr && !adversary->strategy().passthrough()) {
      ConfCtx ctx;
      ctx.tree = &tree;
      ctx.nonce = nonce;
      ctx.slot = slot;
      ctx.broadcast_minima = &broadcast_minima;
      ctx.malicious_vetoes = &malicious_vetoes;
      adversary->strategy().on_conf_slot(adversary->view(), ctx);
    }

    if (slot == 1 || any_next(bufs)) {
      for_each_shard(
          n, shards, pool,
          [&net, &tree, &adversary, &values, &broadcast_minima, &audits,
           &bufs, nonce, slot](std::size_t shard, std::size_t begin,
                               std::size_t end) {
            ShardBuf& buf = bufs[shard];
            auto buffer_flood = [&net, &buf](
                                    NodeId node,
                                    std::span<const std::uint8_t> frame) {
              for (NodeId v : net.topology().neighbors(node)) {
                const auto edge_key = net.usable_edge_key(node, v);
                if (!edge_key.has_value()) continue;
                TxStep step;
                step.from = node;
                step.to = v;
                step.edge_key = *edge_key;
                step.track_out_edge = true;
                buf.stage_payload(step, frame);
                buf.steps.push_back(std::move(step));
              }
            };
            if (slot == 1) {
              // Vetoers transmit in the first interval.
              for (std::size_t id = begin; id < end; ++id) {
                const NodeId node{static_cast<std::uint32_t>(id)};
                if (node == kBaseStation || byzantine(adversary, node))
                  continue;
                if (net.revocation().is_sensor_revoked(node)) continue;
                if (!tree.has_valid_level(node)) continue;
                const auto instance = veto_instance(
                    values.row(static_cast<std::uint32_t>(id)),
                    broadcast_minima);
                if (!instance.has_value()) continue;
                // Stack context: identical MAC to the cached form, and
                // thread-safe inside the shard (no lazy table mutation).
                const MacContext vetoer_key(net.keys().sensor_key(node));
                const Reading own =
                    values.row(static_cast<std::uint32_t>(id))[*instance];
                const VetoMsg veto = make_veto(vetoer_key, node, *instance,
                                               own, tree.level[id], nonce);
                SofRecord rec;
                rec.msg = veto;
                rec.originated = true;
                rec.received_interval = 0;
                rec.forward_interval = 1;
                // out_edges fill at replay, as sends succeed.
                audits.set_sof(shard, node, std::move(rec));
                buffer_flood(node, encode(veto));
                TxStep ev;
                ev.kind = TxStep::Kind::kVeto;
                ev.actor = node;
                ev.origin = node;
                ev.slot = slot;
                ev.value = own;
                ev.originated = true;
                buf.steps.push_back(std::move(ev));
              }
            } else {
              // One-time forward of the first veto received last slot.
              for (const NextSender& fwd : buf.next) {
                if (byzantine(adversary, fwd.node)) continue;
                if (net.revocation().is_sensor_revoked(fwd.node)) continue;
                buffer_flood(fwd.node, fwd.payload);
              }
              buf.next.clear();
            }
            compute_step_macs(net.keys(), buf);
          });
      replay_tx(net, bufs, &audits, tracer);
    }

    const std::span<const NodeId> receivers = net.fabric().end_slot();
    if (receivers.empty()) continue;

    ShardedTrace rx_trace(tracer, shards);
    for_each_shard(
        n, shards, pool,
        [&net, &adversary, &audits, &malicious_vetoes, &outcome, &bufs,
         &rx_trace, receivers, slot](std::size_t shard, std::size_t begin,
                                     std::size_t end) {
          Tracer shard_tracer = rx_trace.shard(shard);
          ShardBuf& buf = bufs[shard];
          for (const NodeId node : shard_ids(receivers, begin, end)) {
            const std::uint32_t id = node.value;
            if (net.revocation().is_sensor_revoked(node)) continue;
            auto frames = net.receive_valid(node, buf.rx, shard_tracer);
            const bool is_malicious =
                adversary != nullptr && adversary->is_malicious(node);
            for (const auto& env : frames) {
              const auto veto = decode_veto(env.payload);
              if (!veto.has_value()) continue;
              if (node == kBaseStation) {
                // Only the shard owning kBaseStation reaches this arm
                // (RX shards partition nodes), so the shared outcome
                // sees exactly one writer.
                // vmat-analyze: allow(shard-race) -- BS-owner-only write
                outcome.arrivals.push_back({*veto, env.edge_key, slot});
                continue;
              }
              if (is_malicious) malicious_vetoes[id].push_back(*veto);
              if (byzantine(adversary, node)) continue;  // strategy decides
              if (audits.has_sof(node)) continue;  // one-time: handled
              // First veto: schedule forwarding for the next slot and
              // record the audit tuple now.
              SofRecord rec;
              rec.msg = *veto;
              rec.originated = false;
              rec.received_interval = slot;
              rec.forward_interval = slot + 1;
              rec.in_edge = env.edge_key;
              audits.set_sof(shard, node, std::move(rec));
              // The veto's bytes stay in the fabric's delivery arena until
              // the next end_slot(), i.e. through the next TX pass.
              buf.next.push_back({node, env.payload});
              shard_tracer.veto(node, veto->origin, slot, veto->value, false);
            }
          }
        });
    rx_trace.merge();
  }

  net.fabric().reset();
  return outcome;
}

}  // namespace vmat
