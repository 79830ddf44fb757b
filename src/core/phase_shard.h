// Level-parallel phase-driver machinery.
//
// Within one slot, the phase drivers shard honest per-node work (bundle
// building, MAC computation, inbox verification) across the thread pool
// and keep the protocol's determinism contract by construction:
//
//   - TX: shards *buffer* their outgoing frames as TxSteps — edge MACs are
//     computed in-shard (through a per-shard MacBatch, or read from the
//     network's flood memo when every frame carries one payload, as in
//     tree formation), but nothing touches the fabric. After the join,
//     replay_tx() walks the buffers in shard order (= global node-id
//     order, since shards cover contiguous id ranges) and performs the
//     actual sends serially. Delivery order, the loss-RNG consumption
//     order, transmit-budget accounting, and the traced event stream are
//     therefore bit-identical to serial execution for any thread count —
//     and the adversary still transmits first, since its strategy hook ran
//     before the shards and its frames already sit in the fabric's staging
//     queue.
//   - RX: take_inbox()/receive_valid() are safe for distinct nodes, every
//     write the receipt loops perform is per-node state owned by exactly
//     one shard, and trace events buffer in a ShardedTrace that merges in
//     shard order after the join.
//
// Active sets: a slot costs its senders, frames and receivers, not n. The
// shard partition stays the id-range one (plan_shards(n), for_each_shard),
// but a shard visits only the active ids inside its [begin, end): TX the
// slot's senders (a level bucket, or the ShardBuf::next list its own RX
// pass filled last slot), RX the id-sorted receivers Fabric::end_slot()
// returns, cut to the shard with shard_ids(). Ascending ids within a shard
// keep every buffer, audit pool and merged trace in the order the all-ids
// scan produced. A pass with no active id anywhere skips the fork/join.
//
// One code path serves serial and parallel execution: plan_shards() returns
// 1 when intra-execution threading is off (or the node count is too small),
// and for_each_shard() then runs the single shard inline on the caller.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/audit.h"
#include "crypto/mac_batch.h"
#include "sim/network.h"
#include "trace/trace.h"
#include "util/ids.h"

namespace vmat {

/// One buffered transmit-side action, replayed serially after the shard
/// join. kSend transmits an already-MAC'd envelope; kVeto emits the
/// originated-veto trace event at its original position in the stream.
struct TxStep {
  enum class Kind : std::uint8_t { kSend, kVeto };
  Kind kind{Kind::kSend};
  /// kSend: wire fields, kept flat instead of as an Envelope (whose heap
  /// Bytes member would add 24 B of dead weight per buffered step — the
  /// payload bytes live in the owning ShardBuf's flat payload buffer via
  /// stage_payload(), so buffering a step never heap-allocates). edge_mac
  /// is filled in by compute_step_macs() (or, for the tree flood, from
  /// Network::edge_mac()); replay_tx() builds a stack Envelope per step.
  NodeId from;
  NodeId to;
  KeyIndex edge_key{kNoKey};
  Mac edge_mac;
  std::uint32_t payload_off{0};
  std::uint32_t payload_len{0};
  /// kSend: on send success, append env.edge_key to the sender's SOF
  /// out_edges (the SOF audit tuple records which edges the one-time flood
  /// actually went out on).
  bool track_out_edge{false};
  // kVeto event fields (mirrors Tracer::veto).
  NodeId actor;
  NodeId origin;
  Interval slot{0};
  std::int64_t value{0};
  bool originated{false};
};

/// A sender one slot's RX pass schedules for the next slot's TX pass: a
/// tree-formation adopter (payload unused — every adopter floods the same
/// frame) or a confirmation forwarder (payload: the first veto it received,
/// a span into the fabric's delivery arena, which stays valid until the
/// next end_slot(), i.e. through the next TX pass).
struct NextSender {
  NodeId node;
  std::span<const std::uint8_t> payload;
};

/// Per-shard scratch: the TX step buffer, its flat payload bytes, the MAC
/// batch, the RX scratch, and the senders the shard's RX pass scheduled.
/// Lives across slots so steady-state slots allocate nothing.
struct ShardBuf {
  std::vector<TxStep> steps;
  Bytes payload_bytes;  // every buffered step's payload, back to back
  MacBatch batch;
  RxScratch rx;
  std::vector<NextSender> next;  // ascending ids, all inside this shard

  /// Copy `payload` into the shard's flat buffer and point `step` at it.
  void stage_payload(TxStep& step, std::span<const std::uint8_t> payload) {
    step.payload_off = static_cast<std::uint32_t>(payload_bytes.size());
    step.payload_len = static_cast<std::uint32_t>(payload.size());
    payload_bytes.insert(payload_bytes.end(), payload.begin(), payload.end());
  }

  [[nodiscard]] std::span<const std::uint8_t> payload_of(
      const TxStep& step) const {
    return std::span<const std::uint8_t>(payload_bytes)
        .subspan(step.payload_off, step.payload_len);
  }
};

/// The ids of an id-sorted list that fall in a shard's [begin, end).
[[nodiscard]] inline std::span<const NodeId> shard_ids(
    std::span<const NodeId> sorted, std::size_t begin, std::size_t end) {
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(),
                                   NodeId{static_cast<std::uint32_t>(begin)});
  const auto hi = std::lower_bound(lo, sorted.end(),
                                   NodeId{static_cast<std::uint32_t>(end)});
  return {lo, hi};
}

/// Whether any shard's RX pass scheduled a sender for this slot.
[[nodiscard]] inline bool any_next(const std::vector<ShardBuf>& bufs) {
  return std::any_of(bufs.begin(), bufs.end(),
                     [](const ShardBuf& b) { return !b.next.empty(); });
}

/// Compute every buffered kSend step's edge MAC through the shard's
/// multi-buffer batch. Called at the end of a shard's TX pass, inside the
/// shard: MacContext lookups must already be warm
/// (Network::warm_crypto_caches()). Emits no trace events — mac_compute
/// fires at replay, via Network::send_prepared, exactly where the serial
/// driver emitted it.
inline void compute_step_macs(const Predistribution& keys, ShardBuf& buf) {
  buf.batch.clear();
  for (const TxStep& s : buf.steps)
    if (s.kind == TxStep::Kind::kSend)
      buf.batch.add(keys.mac_context(s.edge_key), buf.payload_of(s));
  buf.batch.compute();
  std::size_t lane = 0;
  for (TxStep& s : buf.steps)
    if (s.kind == TxStep::Kind::kSend) s.edge_mac = buf.batch.macs()[lane++];
}

/// Serially replay every shard's buffered TX steps in shard order and clear
/// the buffers. `sof_audits` is non-null only for the confirmation driver,
/// whose sends record their out-edges on success.
inline void replay_tx(Network& net, std::vector<ShardBuf>& bufs,
                      AuditLog* sof_audits, Tracer tracer) {
  for (ShardBuf& buf : bufs) {
    for (const TxStep& s : buf.steps) {
      switch (s.kind) {
        case TxStep::Kind::kSend: {
          Envelope env;
          env.from = s.from;
          env.to = s.to;
          env.edge_key = s.edge_key;
          env.edge_mac = s.edge_mac;
          const bool sent = net.send_prepared(env, buf.payload_of(s));
          if (sent && s.track_out_edge)
            sof_audits->sof_mut(s.from)->out_edges.push_back(s.edge_key);
          break;
        }
        case TxStep::Kind::kVeto:
          tracer.veto(s.actor, s.origin, s.slot, s.value, s.originated);
          break;
      }
    }
    buf.steps.clear();
    buf.payload_bytes.clear();
  }
}

}  // namespace vmat
