#include "sim/fabric.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "sim/snapshot.h"
#include "util/random.h"

namespace vmat {

std::span<const std::uint8_t> SlotArena::store(
    std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return {};
  while (active_ < chunks_.size() &&
         chunks_[active_].fill + bytes.size() > chunks_[active_].size)
    ++active_;
  if (active_ == chunks_.size()) {
    // Geometric growth keeps the chunk count logarithmic in peak slot
    // volume; one slot's largest payload always fits a single chunk.
    const std::size_t last = chunks_.empty() ? 0 : chunks_.back().size;
    const std::size_t size = std::max({std::size_t{4096}, 2 * last,
                                       bytes.size()});
    chunks_.push_back(Chunk{std::make_unique<std::uint8_t[]>(size), size, 0});
  }
  Chunk& chunk = chunks_[active_];
  std::uint8_t* dst = chunk.data.get() + chunk.fill;
  std::memcpy(dst, bytes.data(), bytes.size());
  chunk.fill += bytes.size();
  used_ += bytes.size();
  return {dst, bytes.size()};
}

void SlotArena::reset() noexcept {
  for (Chunk& chunk : chunks_) chunk.fill = 0;
  active_ = 0;
  used_ = 0;
}

void SlotArena::release() noexcept {
  chunks_.clear();
  chunks_.shrink_to_fit();
  active_ = 0;
  used_ = 0;
}

std::size_t SlotArena::capacity() const noexcept {
  std::size_t total = 0;
  for (const Chunk& chunk : chunks_) total += chunk.size;
  return total;
}

Fabric::Fabric(const Topology* topology, std::size_t capacity_per_slot)
    : topology_(topology),
      capacity_per_slot_(capacity_per_slot),
      sent_this_slot_(topology->node_count(), 0),
      inbox_begin_(topology->node_count(), 0),
      inbox_end_(topology->node_count(), 0),
      bytes_sent_(topology->node_count(), 0),
      bytes_received_(topology->node_count(), 0) {
  if (topology == nullptr) throw std::invalid_argument("Fabric: null topology");
  // Every phase loop sweeps neighbors per slot; make sure the adjacency is
  // in its flat CSR form before the first hot loop runs (single-threaded
  // here by construction).
  topology->compact();
}

Status Fabric::set_loss(double probability, std::uint64_t seed) {
  if (probability < 0.0 || probability >= 1.0)
    return Error{ErrorCode::kInvalidArgument,
                 "Fabric::set_loss: probability in [0,1)"};
  loss_probability_ = probability;
  loss_rng_state_ = seed ^ 0x10553eedULL;
  return {};
}

bool Fabric::send(const Envelope& envelope) {
  return send_as(envelope.from, envelope, envelope.payload);
}

bool Fabric::send(const Envelope& envelope,
                  std::span<const std::uint8_t> payload) {
  return send_as(envelope.from, envelope, payload);
}

bool Fabric::send_as(NodeId actual_sender, const Envelope& envelope) {
  return send_as(actual_sender, envelope, envelope.payload);
}

bool Fabric::send_as(NodeId actual_sender, const Envelope& envelope,
                     std::span<const std::uint8_t> payload) {
  if (actual_sender.value >= sent_this_slot_.size() ||
      envelope.to.value >= sent_this_slot_.size())
    throw std::out_of_range("Fabric::send_as: bad node id");
  const std::size_t size = kFrameOverheadBytes + payload.size();
  if (!topology_->has_edge(actual_sender, envelope.to)) {
    ++dropped_;
    tracer_.frame_dropped(actual_sender, envelope.to, size);
    return false;  // radios cannot reach beyond physical neighbors
  }
  if (sent_this_slot_[actual_sender.value] >= capacity_per_slot_) {
    ++dropped_;
    tracer_.frame_dropped(actual_sender, envelope.to, size);
    return false;
  }
  if (sent_this_slot_[actual_sender.value]++ == 0)
    senders_.push_back(actual_sender);
  ++frames_sent_;
  bytes_sent_[actual_sender.value] += size;
  total_bytes_ += size;
  tracer_.frame_sent(actual_sender, envelope.to, envelope.edge_key, size);
  if (loss_probability_ > 0.0) {
    const double roll =
        static_cast<double>(splitmix64(loss_rng_state_) >> 11) * 0x1.0p-53;
    if (roll < loss_probability_) {
      ++lost_;
      tracer_.frame_lost(actual_sender, envelope.to, size);
      return true;  // sender cannot tell; the ether ate it
    }
  }
  staged_.push_back(Frame{envelope.from, envelope.to, envelope.edge_key,
                          envelope.edge_mac,
                          arenas_[collect_].store(payload)});
  return true;
}

void Fabric::rest_listed() noexcept {
  for (const NodeId id : receivers_) {
    inbox_begin_[id.value] = 0;
    inbox_end_[id.value] = 0;
  }
  receivers_.clear();
  for (const NodeId id : senders_) sent_this_slot_[id.value] = 0;
  senders_.clear();
}

std::span<const NodeId> Fabric::end_slot() {
  // The previous slot's receivers fall back to the empty range (whatever
  // they left undrained dies here) and this slot's senders get their
  // budgets back.
  rest_listed();

  // Stable sort of staged_ by destination over this slot's receivers only:
  // count frames per receiver (inbox_end_ doubles as the counter), sort the
  // distinct receivers, lay their ranges out in id order, then scatter in
  // send order. delivered_ becomes one flat frame table grouped by
  // receiver id, delivery order within a node being global send order.
  for (const Frame& f : staged_)
    if (inbox_end_[f.to.value]++ == 0) receivers_.push_back(f.to);
  std::sort(receivers_.begin(), receivers_.end());
  std::uint32_t running = 0;
  for (const NodeId id : receivers_) {
    const std::uint32_t count = inbox_end_[id.value];
    inbox_begin_[id.value] = running;
    inbox_end_[id.value] = running;  // scatter cursor
    running += count;
  }
  // Streaming mode retires the closing delivery slot's frame-table slack
  // before the sort refills it: capacity tracks the current slot instead
  // of the biggest slot ever seen.
  if (streaming_) {
    delivered_.clear();
    delivered_.shrink_to_fit();
  }
  delivered_.resize(staged_.size());
  for (const Frame& f : staged_) delivered_[inbox_end_[f.to.value]++] = f;
  staged_.clear();
  if (streaming_) staged_.shrink_to_fit();

  // Per-receiver delivery accounting, in receiver id order.
  for (const NodeId id : receivers_) {
    for (std::uint32_t i = inbox_begin_[id.value]; i < inbox_end_[id.value];
         ++i) {
      const std::size_t size = frame_size(delivered_[i]);
      bytes_received_[id.value] += size;
      tracer_.frame_delivered(id, size);
    }
  }

  // Rotate arenas: this slot's collection arena now backs the open delivery
  // slot; the previous delivery arena is rewound and starts collecting.
  // Undrained frames from the previous slot die here with their arena.
  // Streaming mode frees the retiring arena's chunks outright instead of
  // keeping their capacity parked for the rest of the run.
  collect_ ^= 1;
  if (streaming_)
    arenas_[collect_].release();
  else
    arenas_[collect_].reset();
  return receivers_;
}

std::span<const Frame> Fabric::take_inbox(NodeId node) {
  if (node.value >= inbox_begin_.size())
    throw std::out_of_range("Fabric::take_inbox");
  const std::uint32_t begin = inbox_begin_[node.value];
  const std::uint32_t end = inbox_end_[node.value];
  inbox_begin_[node.value] = end;  // drained
  return std::span<const Frame>(delivered_.data() + begin, end - begin);
}

void Fabric::reset() {
  rest_listed();
  staged_.clear();
  delivered_.clear();
  if (streaming_) {
    staged_.shrink_to_fit();
    delivered_.shrink_to_fit();
    arenas_[0].release();
    arenas_[1].release();
  } else {
    arenas_[0].reset();
    arenas_[1].reset();
  }
  collect_ = 0;
}

namespace {

constexpr std::uint32_t kFabricSection = 0x46414252;  // "FABR"

/// Everything of a Frame except the payload span, which is serialized as
/// raw bytes and re-stored into an arena on load.
struct FrameImage {
  NodeId from;
  NodeId to;
  KeyIndex edge_key{kNoKey};
  Mac edge_mac;
};
static_assert(std::is_trivially_copyable_v<FrameImage>);

void save_frame(SnapshotWriter& w, const Frame& f) {
  w.pod(FrameImage{f.from, f.to, f.edge_key, f.edge_mac});
  w.bytes(f.payload);
}

Frame load_frame(SnapshotReader& r, SlotArena& arena) {
  FrameImage image;
  r.pod(image);
  return Frame{image.from, image.to, image.edge_key, image.edge_mac,
               arena.store(r.bytes())};
}

}  // namespace

void Fabric::snapshot_save(SnapshotWriter& w) const {
  w.section(kFabricSection);
  w.pod(loss_rng_state_);
  w.pod(lost_);
  w.pod(static_cast<std::uint64_t>(collect_));
  w.vec_pod(sent_this_slot_);
  w.vec_pod(bytes_sent_);
  w.vec_pod(bytes_received_);
  w.pod(total_bytes_);
  w.pod(dropped_);
  w.pod(frames_sent_);

  w.pod(static_cast<std::uint64_t>(staged_.size()));
  for (std::size_t i = 0; i < staged_.size(); ++i) save_frame(w, staged_[i]);

  // Undrained delivered frames, per receiver in id order. take_inbox()
  // collapses begin onto end, so drained ranges capture as empty.
  for (std::size_t id = 0; id < inbox_begin_.size(); ++id) {
    w.pod(static_cast<std::uint64_t>(inbox_end_[id] - inbox_begin_[id]));
    for (std::uint32_t i = inbox_begin_[id]; i < inbox_end_[id]; ++i)
      save_frame(w, delivered_[i]);
  }
}

void Fabric::snapshot_load(SnapshotReader& r) {
  r.section(kFabricSection);
  r.pod(loss_rng_state_);
  r.pod(lost_);
  collect_ = static_cast<std::size_t>(r.pod<std::uint64_t>()) & 1;
  r.vec_pod(sent_this_slot_);
  senders_.clear();
  for (std::size_t id = 0; id < sent_this_slot_.size(); ++id)
    if (sent_this_slot_[id] != 0)
      senders_.push_back(NodeId{static_cast<std::uint32_t>(id)});
  r.vec_pod(bytes_sent_);
  r.vec_pod(bytes_received_);
  r.pod(total_bytes_);
  r.pod(dropped_);
  r.pod(frames_sent_);

  // Rewind both arenas (capacity kept) and re-store payloads: staged
  // frames into the collection arena, delivered ones into the arena that
  // backs the open delivery slot (see end_slot()'s rotation).
  arenas_[0].reset();
  arenas_[1].reset();
  staged_.clear();
  const auto staged_count = static_cast<std::size_t>(r.pod<std::uint64_t>());
  for (std::size_t i = 0; i < staged_count; ++i)
    staged_.push_back(load_frame(r, arenas_[collect_]));

  // Delivered frames re-pack compacted (drained prefixes dropped); the
  // per-node ranges yield the same frames in the same order as before.
  // Receivers are the nodes with undrained frames; every other id rests at
  // the empty range.
  delivered_.clear();
  receivers_.clear();
  std::uint32_t running = 0;
  for (std::size_t id = 0; id < inbox_begin_.size(); ++id) {
    const auto count = static_cast<std::uint32_t>(r.pod<std::uint64_t>());
    if (count == 0) {
      inbox_begin_[id] = 0;
      inbox_end_[id] = 0;
      continue;
    }
    receivers_.push_back(NodeId{static_cast<std::uint32_t>(id)});
    inbox_begin_[id] = running;
    for (std::uint32_t i = 0; i < count; ++i)
      delivered_.push_back(load_frame(r, arenas_[collect_ ^ 1]));
    running += count;
    inbox_end_[id] = running;
  }
}

std::uint64_t Fabric::config_fingerprint(std::uint64_t h) const noexcept {
  h = snapshot_mix(h, static_cast<std::uint64_t>(capacity_per_slot_));
  h = snapshot_mix(h, std::bit_cast<std::uint64_t>(loss_probability_));
  return h;
}

std::uint64_t Fabric::bytes_sent(NodeId node) const {
  if (node.value >= bytes_sent_.size())
    throw std::out_of_range("Fabric::bytes_sent");
  return bytes_sent_[node.value];
}

std::uint64_t Fabric::bytes_received(NodeId node) const {
  if (node.value >= bytes_received_.size())
    throw std::out_of_range("Fabric::bytes_received");
  return bytes_received_[node.value];
}

}  // namespace vmat
