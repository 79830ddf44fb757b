// Slotted message fabric, arena-backed.
//
// The VMAT protocol is interval-synchronous: within a slot every node may
// transmit to neighbors, and everything transmitted in slot t is available
// in the receiver's inbox during slot t (delivery within the slot, matching
// the paper's clock-guard-band argument). `end_slot()` moves transmissions
// to inboxes, starts the next slot, and returns the id-sorted list of nodes
// that received frames, so a phase driver visits only those.
//
// Delivery order within a slot is the global send order. Protocol phase
// drivers always let the adversary transmit *first* in each slot, which is
// the pessimistic race model choking attacks need (a spurious veto beats a
// legitimate veto into a one-time-flood inbox).
//
// Memory model: payloads are copied once, into a per-slot bump arena, at
// send time; everything downstream sees `span`s into that arena. Two arenas
// rotate: the collection arena receives this slot's sends, and at
// end_slot() it becomes the delivery arena while the previous delivery
// arena is reset (capacity kept) and starts collecting. So a delivered
// Frame's payload span is valid for exactly one delivery slot — until the
// *next* end_slot(). Inboxes are CSR-style index ranges over one flat frame
// table (a stable sort of the slot's frames by destination), so a whole
// execution performs O(1) steady-state allocations no matter how many
// frames fly. There is one allocation policy: nothing is freed between
// slots, so both arenas and both frame tables keep the biggest slot's
// capacity for the fabric's lifetime (bench_memory measures what that
// costs per node). Frames not drained within their delivery slot are
// discarded; every phase driver drains every receiver's inbox every slot.
//
// Cost model: a slot costs what it carries. send() is O(1); end_slot() is
// O(frames + receivers · log receivers) — it touches only this slot's
// senders and receivers and the previous slot's receivers, never all n
// nodes; reset() is O(in-flight). Per-node state outside those lists is
// kept at rest (empty inbox range, zero send count), which is what lets
// every pass skip it.
//
// An optional per-node per-slot transmit budget models the limited relaying
// capacity that choking attacks exhaust; sends beyond it are dropped and
// counted.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "crypto/mac.h"
#include "sim/topology.h"
#include "trace/trace.h"
#include "util/bytes.h"
#include "util/error.h"
#include "util/ids.h"

namespace vmat {

class SnapshotReader;
class SnapshotWriter;

/// A unicast frame handed to the fabric for transmission: payload plus the
/// edge-key MAC that authenticates it hop-by-hop. `from` is a *claim* —
/// only the edge MAC constrains who could have produced the frame. The
/// fabric copies the payload into its slot arena; the Envelope itself is
/// not retained.
struct Envelope {
  NodeId from;
  NodeId to;
  KeyIndex edge_key{kNoKey};
  Mac edge_mac;
  Bytes payload;
};

/// A delivered frame: same wire fields, but the payload is a span into the
/// fabric's delivery arena — valid until the next end_slot()/reset(). Copy
/// the bytes out (e.g. into a Bytes) to keep them longer.
struct Frame {
  NodeId from;
  NodeId to;
  KeyIndex edge_key{kNoKey};
  Mac edge_mac;
  std::span<const std::uint8_t> payload;
};

/// Per-frame wire overhead: from/to ids (4+4), edge key index (4), and the
/// 8-byte truncated edge MAC. The ONE frame-size definition every byte
/// counter in the repo (fabric accounting, trace counters, summarize()'s
/// KB figures, table_comm_cost) derives from.
inline constexpr std::size_t kFrameOverheadBytes = 20;

/// Reporting convention: 1 KB = 1000 bytes (decimal, not KiB), everywhere.
inline constexpr double kBytesPerKb = 1000.0;

/// Wire size of a frame.
[[nodiscard]] inline std::size_t frame_size(const Envelope& e) noexcept {
  return kFrameOverheadBytes + e.payload.size();
}
[[nodiscard]] inline std::size_t frame_size(const Frame& f) noexcept {
  return kFrameOverheadBytes + f.payload.size();
}

/// Chunked bump allocator for one slot's payload bytes. Chunks are never
/// freed by reset(), only rewound, so steady-state slots allocate nothing;
/// addresses are stable (growth adds chunks, never moves old ones).
class SlotArena {
 public:
  /// Copy `bytes` into the arena; the returned span stays valid until
  /// reset().
  [[nodiscard]] std::span<const std::uint8_t> store(
      std::span<const std::uint8_t> bytes);

  /// Rewind to empty, keeping every chunk's capacity.
  void reset() noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept;
  [[nodiscard]] std::size_t used() const noexcept { return used_; }

 private:
  struct Chunk {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t size{0};
    std::size_t fill{0};
  };
  std::vector<Chunk> chunks_;
  std::size_t active_{0};
  std::size_t used_{0};
};

class Fabric {
 public:
  /// `topology` must outlive the fabric; nullptr throws
  /// std::invalid_argument.
  explicit Fabric(const Topology* topology,
                  std::size_t capacity_per_slot =
                      std::numeric_limits<std::size_t>::max());

  /// Enable lossy links: every frame is independently lost with the given
  /// probability (deterministic per seed). The transmitter still pays for
  /// the frame (radio energy is spent whether or not anyone hears it).
  /// Probability must lie in [0, 1); out-of-domain values are rejected
  /// with ErrorCode::kInvalidArgument and leave the fabric unchanged.
  [[nodiscard]] Status set_loss(double probability, std::uint64_t seed);

  [[nodiscard]] std::uint64_t frames_lost() const noexcept { return lost_; }

  /// Attach (or detach, with a default-constructed handle) the flight
  /// recorder: send/deliver/drop/loss events and per-phase byte counters.
  void set_tracer(Tracer tracer) noexcept { tracer_ = tracer; }

  /// Queue a frame for delivery this slot. Returns false (and drops the
  /// frame) if the sender exhausted its transmit budget, or the (from, to)
  /// pair is not a physical edge. Malicious senders are subject to physics
  /// too: they can only reach their own neighbors. The span overload sends
  /// `payload` in place of envelope.payload (replay loops keep payloads in
  /// flat buffers instead of per-envelope heap Bytes).
  bool send(const Envelope& envelope);
  bool send(const Envelope& envelope, std::span<const std::uint8_t> payload);

  /// Like send, but `actual_sender` does the transmitting (and pays the
  /// budget) while the envelope may claim any `from` — source spoofing.
  bool send_as(NodeId actual_sender, const Envelope& envelope);
  bool send_as(NodeId actual_sender, const Envelope& envelope,
               std::span<const std::uint8_t> payload);

  /// Close the current slot: queued frames become receivable (and frames
  /// from the previous slot that were never drained are discarded).
  /// Returns the nodes that received at least one frame, id-sorted and
  /// unique — exactly the nodes whose take_inbox() is non-empty. The span
  /// is valid until the next end_slot()/reset().
  std::span<const NodeId> end_slot();

  /// Drain a node's inbox: the frames delivered to it at the last
  /// end_slot(), in delivery order; empty for a node that received nothing
  /// or was already drained. The returned span (and each frame's payload
  /// span) is valid until the next end_slot()/reset(). Safe to call
  /// concurrently for *distinct* nodes.
  [[nodiscard]] std::span<const Frame> take_inbox(NodeId node);

  /// Discard everything in flight and all inboxes (phase boundary).
  void reset();

  // --- accounting ---
  [[nodiscard]] std::uint64_t bytes_sent(NodeId node) const;
  [[nodiscard]] std::uint64_t bytes_received(NodeId node) const;
  [[nodiscard]] std::uint64_t total_bytes() const noexcept { return total_bytes_; }
  [[nodiscard]] std::uint64_t frames_dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::uint64_t frames_sent() const noexcept { return frames_sent_; }

  /// Combined chunk capacity of both payload arenas (tests assert reuse:
  /// capacity must not shrink across slots).
  [[nodiscard]] std::size_t arena_capacity() const noexcept {
    return arenas_[0].capacity() + arenas_[1].capacity();
  }
  /// Bytes currently parked in the collection arena (this slot's sends).
  [[nodiscard]] std::size_t collect_arena_used() const noexcept {
    return arenas_[collect_].used();
  }

  [[nodiscard]] const Topology& topology() const noexcept { return *topology_; }

  // --- snapshots (sim/snapshot.h) ---

  /// Serialize the fabric's mutable state: loss RNG position, counters,
  /// per-slot budgets, and every in-flight frame (staged and undrained
  /// delivered) with its payload bytes.
  void snapshot_save(SnapshotWriter& writer) const;
  /// Restore a snapshot_save() image. Arenas are rewound (capacity kept)
  /// and payload bytes re-enter them through store(), so a steady-state
  /// restore allocates nothing; delivered frames are re-packed without
  /// drained gaps, which take_inbox() cannot tell from the original layout.
  void snapshot_load(SnapshotReader& reader);
  /// Fold the fabric's *configuration* (slot capacity, loss probability)
  /// into a deployment fingerprint.
  [[nodiscard]] std::uint64_t config_fingerprint(std::uint64_t h) const noexcept;

 private:
  /// Return every id receivers_ and senders_ list to rest (empty inbox
  /// range, zero sends) and empty both lists.
  void rest_listed() noexcept;

  // Immutable deployment identity (fingerprinted, not serialized).
  // vmat-analyze: allow(snapshot-field-coverage) -- fingerprint-pinned
  const Topology* topology_;
  // Trace sink handle, owned by the coordinator, not execution state.
  // vmat-analyze: allow(snapshot-field-coverage) -- trace sink, not state
  Tracer tracer_;
  // Construction-time config, covered by config_fingerprint().
  // vmat-analyze: allow(snapshot-field-coverage) -- fingerprint-pinned
  std::size_t capacity_per_slot_;
  // vmat-analyze: allow(snapshot-field-coverage) -- fingerprint-pinned
  double loss_probability_{0.0};
  std::uint64_t loss_rng_state_{0};
  std::uint64_t lost_{0};
  // Per-node sends this slot; non-zero only for the ids in senders_, which
  // end_slot()/reset() zero again.
  std::vector<std::size_t> sent_this_slot_;
  // vmat-analyze: allow(snapshot-field-coverage) -- rebuilt on load
  std::vector<NodeId> senders_;

  // Double-buffered payload arenas: arenas_[collect_] takes this slot's
  // sends; the other holds the open delivery slot's payloads.
  SlotArena arenas_[2];
  std::size_t collect_{0};

  // Flat frame tables. staged_ accumulates sends in global send order;
  // end_slot() sorts it (stably) by destination into delivered_, whose
  // per-node ranges are inbox_begin_/inbox_end_. take_inbox() marks a range
  // drained by collapsing begin onto end. Every id outside receivers_ holds
  // the empty range [0, 0), so the next end_slot() only has to clear the
  // ids receivers_ names.
  std::vector<Frame> staged_;
  std::vector<Frame> delivered_;
  std::vector<std::uint32_t> inbox_begin_;
  std::vector<std::uint32_t> inbox_end_;
  // vmat-analyze: allow(snapshot-field-coverage) -- rebuilt on load
  std::vector<NodeId> receivers_;

  std::vector<std::uint64_t> bytes_sent_;
  std::vector<std::uint64_t> bytes_received_;
  std::uint64_t total_bytes_{0};
  std::uint64_t dropped_{0};
  std::uint64_t frames_sent_{0};
};

}  // namespace vmat
