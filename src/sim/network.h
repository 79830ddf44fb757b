// Secure network: topology + key predistribution + revocation + fabric.
//
// This is the mechanical substrate the protocol phases run on. It provides
// the *honest* send/receive discipline:
//   - a frame to a neighbor is authenticated with the pair's edge key;
//   - on receipt, a node accepts a frame only if it itself holds the claimed
//     edge key, the key is not revoked, and the edge MAC verifies.
// Nothing here knows about protocol semantics or about which nodes are
// malicious; the adversary bypasses these helpers and talks to the fabric
// directly (constrained by physics and by the keys it actually holds).
//
// The topology is fixed at construction, so the network keeps one edge-key
// table: one slot per directed edge, filled lazily (or all at once by
// warm_crypto_caches()) and invalidated by revocation. Only physical
// neighbors have edge keys.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "crypto/mac_batch.h"
#include "keys/predistribution.h"
#include "keys/revocation.h"
#include "sim/fabric.h"
#include "sim/topology.h"

namespace vmat {

struct NetworkSpec {
  KeyMaterialSpec keys;
  /// θ for full-sensor revocation; 0 (default) disables it. θ must be set
  /// well above the expected honest ring overlap with the adversary's key
  /// set (≈ f·r²/u, see Figure 7), otherwise ring revocations cascade into
  /// honest sensors.
  std::uint32_t revocation_threshold{0};
  std::size_t capacity_per_slot{std::numeric_limits<std::size_t>::max()};
  /// Per-frame loss probability (default 0: the paper's "messages are
  /// reliable" assumption holds natively).
  double loss_probability{0.0};
  /// Blind repetitions per logical transmission — the paper's "after
  /// proper retransmissions if necessary". With loss p and redundancy k, a
  /// logical message is lost with probability p^k. Must be >= 1: the
  /// Network constructor throws std::invalid_argument on 0.
  std::uint32_t redundancy{1};
};

class SimulationSpec;

/// Receive-side scratch for Network::receive_valid(): the candidate-frame
/// list, each candidate's flood-memo entry and the multi-buffer MAC batch
/// for the candidates the memo does not cover live across calls, so
/// draining an inbox allocates nothing in the steady state. Callers own one
/// per thread of execution (the sharded phase drivers keep one per shard).
struct RxScratch {
  std::vector<Frame> frames;
  std::vector<const Mac*> memo;  ///< per frame; nullptr = batched
  MacBatch batch;
};

class Network {
 public:
  Network(Topology topology, const NetworkSpec& config);

  /// Build the whole deployment — topology included — from a validated
  /// SimulationSpec. Throws std::invalid_argument when spec.validate()
  /// reports errors (validate first for typed errors).
  explicit Network(const SimulationSpec& spec);

  [[nodiscard]] std::uint32_t node_count() const noexcept {
    return topology_.node_count();
  }
  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] const Predistribution& keys() const noexcept { return keys_; }
  [[nodiscard]] RevocationRegistry& revocation() noexcept { return revocation_; }
  [[nodiscard]] const RevocationRegistry& revocation() const noexcept {
    return revocation_;
  }
  [[nodiscard]] Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] const Fabric& fabric() const noexcept { return fabric_; }

  /// Attach (or detach, with a default handle) the flight recorder to this
  /// network and its fabric/revocation registry. The coordinator attaches
  /// around each execution; the handle must not outlive its TraceState.
  void set_tracer(Tracer tracer) noexcept {
    tracer_ = tracer;
    fabric_.set_tracer(tracer);
    revocation_.set_tracer(tracer);
  }

  /// Eschenauer-Gligor path-key establishment: give every physical
  /// neighbor pair that shares no ring key a dedicated pairwise path key,
  /// so the secure topology equals the physical one even with sparse
  /// rings. Returns the number of path keys established.
  std::size_t establish_path_keys();

  /// Physical neighbors with whom `node` shares a *usable* (non-revoked)
  /// edge key. This is the communication graph honest protocol code uses.
  [[nodiscard]] std::vector<NodeId> usable_neighbors(NodeId node) const;

  /// The usable edge key between two physical neighbors, if any; nullopt
  /// for a non-adjacent pair, whatever keys their rings share (only
  /// physical neighbors can talk, so only edges have edge keys).
  [[nodiscard]] std::optional<KeyIndex> usable_edge_key(NodeId a,
                                                        NodeId b) const;

  /// Honest unicast: MAC the payload with the pair's edge key and transmit.
  /// Returns false if there is no usable edge key or the fabric dropped it.
  bool send_secure(NodeId from, NodeId to, const Bytes& payload);

  /// Transmit an envelope whose edge MAC was already computed (the sharded
  /// phase drivers batch their MACs, then replay sends serially through
  /// here). Emits the same mac_compute trace event and the same redundancy
  /// copies as send_secure, so the event stream is indistinguishable. The
  /// span overload sends `payload` in place of envelope.payload, letting
  /// replay loops keep their payloads in one flat buffer.
  bool send_prepared(const Envelope& envelope);
  bool send_prepared(const Envelope& envelope,
                     std::span<const std::uint8_t> payload);

  /// Honest local broadcast: send_secure to every usable neighbor.
  /// Returns the number of frames transmitted.
  std::size_t broadcast_secure(NodeId from, const Bytes& payload);

  /// Honest receive: drain `node`'s inbox and keep only frames whose edge
  /// key is in `node`'s own ring, not revoked, and whose MAC verifies. A
  /// surviving frame whose payload is byte-equal to the flood memo's and
  /// whose claimed key has a memo entry compares against that entry; the
  /// other surviving MACs of the inbox verify through one multi-buffer
  /// batch. Either way the expected MAC is MAC_key(payload) under the
  /// claimed key's real material, so the verdicts — and the mac_verify
  /// events, one per candidate in frame order — do not depend on the memo.
  /// The returned span points into `scratch` and is valid until its next
  /// use; frame payloads point into the fabric's delivery arena (valid
  /// until the next end_slot). Safe to call concurrently for distinct
  /// nodes with distinct scratches *after* warm_crypto_caches(); the
  /// Tracer overload lets sharded callers meter into a per-shard trace.
  [[nodiscard]] std::span<const Frame> receive_valid(NodeId node,
                                                     RxScratch& scratch);
  [[nodiscard]] std::span<const Frame> receive_valid(NodeId node,
                                                     RxScratch& scratch,
                                                     Tracer tracer);
  /// Convenience overload over an internal scratch (serial call sites and
  /// tests; not for concurrent use).
  [[nodiscard]] std::span<const Frame> receive_valid(NodeId node);

  /// Pre-fill every lazily built crypto cache the hot path reads — the
  /// edge-key slot table and the MAC key schedules — so a following
  /// parallel section sees only cache hits on const state. Call at a
  /// single-threaded point; any revocation/rekey in between requires a
  /// re-warm before the next parallel section. Edge keys are warmed by an
  /// inverted pass: each node's ring is derived ONCE into a transient
  /// bitmap (n · pool/8 bytes, budget-gated) and every edge's smallest
  /// shared non-revoked index read off a bitmap AND — O(n + E) ring
  /// derivations instead of O(E) pairwise merges.
  void warm_crypto_caches() const;

  /// Memoize MAC_k(payload) for every distinct usable pool key k in the
  /// warm edge-key slot table, replacing any previous memo. A phase that
  /// sends one payload over every edge (the timestamp tree flood) then
  /// computes each edge MAC once per key, not once per frame at the sender
  /// and again at the receiver. Call at a serial point right after
  /// warm_crypto_caches(); the memo is read-only until the next call or
  /// clear_flood_macs(). It holds one optional MAC per pool key, nothing
  /// per edge: a path key serves one edge, so its frames keep computing
  /// their MACs. It is not snapshot state: it memoizes a pure function of
  /// the payload and the key material, which rekey() and
  /// establish_path_keys() change, so both drop it.
  void memo_flood_macs(std::span<const std::uint8_t> payload);
  void clear_flood_macs() noexcept;

  /// MAC_key(payload): the flood memo's entry when `payload` is the
  /// memoized payload and `key` has one, computed otherwise. Safe to call
  /// concurrently after warm_crypto_caches().
  [[nodiscard]] Mac edge_mac(KeyIndex key,
                             std::span<const std::uint8_t> payload) const;

  /// Depth (max BFS level) of the full physical topology.
  [[nodiscard]] Level physical_depth() const { return topology_.depth(); }

  /// Copies per logical transmission (see NetworkSpec::redundancy).
  [[nodiscard]] std::uint32_t redundancy() const noexcept {
    return redundancy_;
  }

  /// Monotone key-material generation: bumped whenever the key material
  /// itself changes (rekey, path-key establishment). Together with the
  /// revocation counts this is the coordinator's epoch-validity snapshot.
  [[nodiscard]] std::uint64_t key_generation() const noexcept {
    return key_generation_;
  }

  /// Re-keying epoch: replace the whole predistribution with fresh
  /// material (new pool seed, new rings). Sensors that were fully revoked
  /// are NOT re-keyed — they stay revoked in the fresh registry — while
  /// honest sensors whose edge keys were burned by past pinpointing runs
  /// come back at full capacity. Path keys disappear with the old pool;
  /// call establish_path_keys() again if needed. Returns the number of
  /// sensors carried over as revoked.
  std::size_t rekey(const KeyMaterialSpec& fresh_keys);

  // --- snapshots (sim/snapshot.h) ---

  /// Serialize the network's mutable state: key generation, the flat
  /// edge-key slot table, the revocation registry, and the fabric.
  /// Immutable material (topology, key pool/rings) is not serialized — it
  /// is pinned by snapshot_fingerprint() and the captured key_generation.
  void snapshot_save(SnapshotWriter& writer) const;
  /// Restore a snapshot_save() image. Throws std::invalid_argument when
  /// the key material changed since capture (key_generation mismatch) or
  /// the slot table does not fit this topology. The restored slot table
  /// counts as warm (no re-warm before the next parallel section) only if
  /// every slot carries the restored registry's stamp and the MAC contexts
  /// were already warm at this key generation.
  void snapshot_load(SnapshotReader& reader);
  /// Identity hash of the immutable deployment substrate: topology CSR,
  /// key-material spec, revocation threshold, redundancy, fabric config.
  [[nodiscard]] std::uint64_t snapshot_fingerprint() const;

 private:
  /// Uncached ring merge behind usable_edge_key().
  [[nodiscard]] std::optional<KeyIndex> compute_usable_edge_key(NodeId a,
                                                                NodeId b) const;

  /// Fill edge_key_slots_ for every physical edge at the current revocation
  /// stamp (see warm_crypto_caches docs for the inverted bitmap pass).
  void warm_edge_keys() const;

  /// Receive-side "does `node` hold the claimed key" check. Fast path: a
  /// warmed edge slot for (from → node) matching the claim proves shared
  /// (hence held) without any ring work; otherwise the thread-safe
  /// re-derivation in Predistribution::node_holds decides (adversarial
  /// claims of non-edge keys, unwarmed serial call sites).
  [[nodiscard]] bool holds_claimed_key(NodeId node, const Frame& frame) const;

  /// The flood memo's MAC for (key, payload), or nullptr when `payload` is
  /// not the memoized payload or `key` has no entry.
  [[nodiscard]] const Mac* flood_mac(
      KeyIndex key, std::span<const std::uint8_t> payload) const noexcept;

  // Immutable deployment identity: pinned by snapshot_fingerprint(), not
  // serialized (see snapshot_save docs).
  // vmat-analyze: allow(snapshot-field-coverage) -- fingerprint-pinned
  Topology topology_;
  // Key material is pinned by the captured key_generation_, never
  // restored wholesale.
  // vmat-analyze: allow(snapshot-field-coverage) -- generation-pinned
  Predistribution keys_;
  RevocationRegistry revocation_;
  Fabric fabric_;
  // Construction-time config, part of the fingerprint, never mutated.
  // vmat-analyze: allow(snapshot-field-coverage) -- fingerprint-pinned
  std::uint32_t redundancy_;
  std::uint64_t key_generation_{0};
  // Trace sink handle: recording identity is owned by the coordinator,
  // not by forked execution state.
  // vmat-analyze: allow(snapshot-field-coverage) -- trace sink, not state
  Tracer tracer_;

  /// The one edge-key table: a cache of the usable_edge_key() ring merge
  /// with one 8-byte slot per directed edge, indexed by
  /// Topology::directed_edge_slot(), so the per-frame lookup is two array
  /// loads. stamp is revoked_key_count()+1 at fill time (0 = unset): a slot
  /// is valid while the registry's revoked-key count (monotone: keys are
  /// only ever added) still matches, since any revocation in between may
  /// have burned the cached key or changed the smallest-non-revoked answer.
  /// key == kNoKey means "no usable edge key". Sized once at construction
  /// from the fixed topology; cleared by rekey()/establish_path_keys(),
  /// which change the key material itself. Lazily filled, hence not
  /// thread-safe in general; the sharded phase drivers call
  /// warm_crypto_caches() at a serial point first, after which parallel
  /// lookups are read-only hits.
  struct EdgeKeySlot {
    KeyIndex key{kNoKey};
    std::uint32_t stamp{0};
  };
  mutable std::vector<EdgeKeySlot> edge_key_slots_;

  /// Warm-state memo: warm_crypto_caches() is a no-op while the key
  /// generation and revocation stamp it last completed under still hold
  /// (phases re-warm at every serial entry; without this each would redo
  /// the O(n) ring-derivation pass). Invalidated by rekey(), path-key
  /// establishment (generation bump) and any revocation (stamp change).
  /// snapshot_load() recomputes it from the restored table: kept only if
  /// every slot carries the restored stamp (a table captured with stale
  /// slots is warmed again).
  // vmat-lint: allow(snapshot-unsafe-state) -- recomputed on load
  // vmat-analyze: allow(snapshot-field-coverage) -- memo, recomputed on load
  mutable bool warm_valid_{false};
  // vmat-analyze: allow(snapshot-field-coverage) -- memo, recomputed on load
  mutable std::uint64_t warm_generation_{0};
  // vmat-analyze: allow(snapshot-field-coverage) -- memo, recomputed on load
  mutable std::size_t warm_revoked_count_{0};

  /// The flood memo (memo_flood_macs): the memoized payload and MAC_k of
  /// it by pool key index k (nullopt = no entry). Transient per phase, never
  /// captured: restoring a snapshot cannot change the key material under
  /// it (snapshot_load() checks the key generation).
  // vmat-analyze: allow(snapshot-field-coverage) -- transient memo
  Bytes flood_payload_;
  // vmat-analyze: allow(snapshot-field-coverage) -- transient memo
  std::vector<std::optional<Mac>> flood_macs_;

  /// Backs the scratch-less receive_valid() overload. Transient per-call
  /// scratch, fully overwritten before every use.
  // vmat-analyze: allow(snapshot-field-coverage) -- transient scratch
  RxScratch own_scratch_;
};

}  // namespace vmat
