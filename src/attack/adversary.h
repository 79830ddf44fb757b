// The Byzantine adversary interface.
//
// The adversary compromises a set of sensors and learns exactly what those
// sensors know: their sensor keys and the keys in their rings (Section III).
// AdversaryView enforces that boundary — strategies can only MAC with held
// keys — while letting them do everything else Byzantine nodes can do:
// inject arbitrary frames to physical neighbors with arbitrary claimed
// senders, stay silent, lie in predicate tests, and coordinate globally
// (strategies see the whole network state, modeling a global eavesdropper).
//
// Phase drivers call the strategy hook at the *start* of every slot, before
// honest transmissions, which is the pessimistic race ordering choking
// attacks rely on.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/audit.h"
#include "core/messages.h"
#include "core/phase_state.h"
#include "sim/network.h"

namespace vmat {

/// A snapshot of the live execution state an attack trigger predicate is
/// evaluated over (campaign/predicate.h). AdversaryView fills the fields it
/// can see globally (phase, slot, revocation counts, execution round); the
/// per-phase hooks add what only their context knows (tree level, frame
/// contents).
struct TriggerState {
  TracePhase phase{TracePhase::kNone};
  Interval slot{0};
  /// Deepest tree level any malicious sensor was placed at (0 = unknown /
  /// not yet on a tree).
  Level deepest_level{0};
  std::size_t revoked_keys{0};
  std::size_t revoked_sensors{0};
  /// 1-based execution ordinal since this adversary was placed (bumped by
  /// the coordinator at the start of every execution's query phases).
  std::uint64_t round{0};
  /// Valid-envelope frames delivered to the malicious set so far this phase.
  std::size_t frames_seen{0};
  /// Smallest reading observed in those frames (kInfinity = none yet).
  Reading min_seen{kInfinity};

  friend bool operator==(const TriggerState&, const TriggerState&) = default;
};

class AdversaryView {
 public:
  AdversaryView(Network* net, std::unordered_set<NodeId> malicious);

  [[nodiscard]] Network& net() noexcept { return *net_; }
  [[nodiscard]] const Network& net() const noexcept { return *net_; }
  [[nodiscard]] const std::unordered_set<NodeId>& malicious() const noexcept {
    return malicious_;
  }
  [[nodiscard]] bool is_malicious(NodeId node) const noexcept {
    return malicious_.contains(node);
  }

  /// Does any compromised sensor hold this key (ring key or path key)?
  /// A binary search in held_keys().
  [[nodiscard]] bool holds_pool_key(KeyIndex key) const;

  /// Key material for a held pool key. Throws if not held — the type-level
  /// guarantee that the adversary cannot MAC with keys it never learned.
  [[nodiscard]] SymmetricKey pool_key(KeyIndex key) const;

  /// Sensor key of a compromised sensor. Throws if the sensor is honest.
  [[nodiscard]] SymmetricKey sensor_key(NodeId node) const;

  /// Transmit a frame from malicious node `via` to its physical neighbor
  /// `to`, claiming sender `claimed_from`, authenticated with held pool key
  /// `edge_key`. Returns false if the key is not held, `via` is honest, or
  /// the fabric refused (no physical edge / capacity).
  bool inject(NodeId via, NodeId to, NodeId claimed_from, KeyIndex edge_key,
              const Bytes& payload);

  /// The smallest non-revoked key held by both the adversary and `target`
  /// (so target will accept frames MAC'd with it), if any. Walks the
  /// target's sorted ring against held_keys(), then its path keys.
  [[nodiscard]] std::optional<KeyIndex> attack_key_for(NodeId target) const;

  /// Malicious physical neighbors of `node`.
  [[nodiscard]] std::vector<NodeId> malicious_neighbors_of(NodeId node) const;

  // --- trigger-predicate evaluation seam (campaign/predicate.h) ---

  /// Called by the coordinator at the start of every execution's query
  /// phases, so `(round>= N)` predicates can arm on a later execution.
  void begin_execution_round() noexcept { ++round_; }
  /// 1-based execution ordinal; 0 before the first execution.
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }

  /// The globally visible part of the trigger state: phase, slot, the
  /// revocation counters, and the execution round. Per-phase hook contexts
  /// add tree level and frame contents on top (campaign/strategy.h).
  [[nodiscard]] TriggerState trigger_state(TracePhase phase,
                                           Interval slot) const;

 private:
  /// Every key the adversary learned — the compromised sensors' rings and
  /// path keys — sorted and deduplicated. Computed on first use and again
  /// only when the network's key generation moves (rekey, path-key
  /// establishment); the compromised set itself never changes. Lazily
  /// filled, hence NOT thread-safe, like the strategy hooks that use it.
  [[nodiscard]] std::span<const KeyIndex> held_keys() const;

  Network* net_;
  std::unordered_set<NodeId> malicious_;
  std::uint64_t round_{0};
  mutable std::vector<KeyIndex> held_keys_;
  mutable std::optional<std::uint64_t> held_generation_;
};

/// Read-only context handed to the tree-formation hook each slot.
struct TreeCtx {
  TreeMode mode{TreeMode::kTimestamp};
  Level depth_bound{0};
  std::uint64_t session{0};
  Interval slot{0};
  const std::vector<Level>* levels{nullptr};  ///< current partial levels
};

/// Read-only context handed to the aggregation hook each slot.
struct AggCtx {
  const TreeResult* tree{nullptr};
  const AggConfig* config{nullptr};
  Interval slot{0};
  /// Valid-envelope aggregation records delivered to malicious nodes so far
  /// this phase, indexed by node id (empty vectors for honest ids).
  const std::vector<std::vector<ReceivedRecord>>* malicious_received{nullptr};
  /// The messages each node would honestly originate, per node per instance.
  const std::vector<std::vector<AggMessage>>* own_messages{nullptr};
};

/// Read-only context handed to the confirmation hook each slot.
struct ConfCtx {
  const TreeResult* tree{nullptr};
  std::uint64_t nonce{0};
  Interval slot{0};
  const std::vector<Reading>* broadcast_minima{nullptr};  ///< per instance
  /// Valid-envelope vetoes delivered to malicious nodes, by node id.
  const std::vector<std::vector<VetoMsg>>* malicious_vetoes{nullptr};
};

/// Strategy hooks. Default implementations do nothing (a silent adversary:
/// malicious nodes never transmit and never answer predicate tests).
class AdversaryStrategy {
 public:
  virtual ~AdversaryStrategy() = default;

  /// When true, phase drivers treat the compromised nodes as honest (a
  /// dormant adversary). Used as the no-attack control in experiments.
  [[nodiscard]] virtual bool passthrough() const { return false; }

  virtual void on_tree_slot(AdversaryView& view, const TreeCtx& ctx);
  virtual void on_agg_slot(AdversaryView& view, const AggCtx& ctx);
  virtual void on_conf_slot(AdversaryView& view, const ConfCtx& ctx);

  /// Keyed predicate test: return true to emit the valid "yes" reply from
  /// malicious `holder` (the engine verifies the holder actually holds the
  /// tested key). Called once per test per malicious holder.
  [[nodiscard]] virtual bool answer_predicate(AdversaryView& view,
                                              const Predicate& predicate,
                                              NodeId holder);

  /// Reading a malicious node reports for itself (always "legitimate" — the
  /// secure aggregation problem does not police self-readings).
  [[nodiscard]] virtual Reading own_reading(NodeId node, Reading honest);

 protected:
  AdversaryStrategy() = default;
};

/// A placed adversary: compromised set + strategy + key view.
class Adversary {
 public:
  Adversary(Network* net, std::unordered_set<NodeId> malicious,
            std::unique_ptr<AdversaryStrategy> strategy);

  [[nodiscard]] bool is_malicious(NodeId node) const noexcept {
    return view_.is_malicious(node);
  }
  /// Byzantine = malicious and actively deviating (strategy not passthrough).
  [[nodiscard]] bool is_byzantine(NodeId node) const noexcept {
    return !strategy_->passthrough() && view_.is_malicious(node);
  }
  [[nodiscard]] AdversaryView& view() noexcept { return view_; }
  [[nodiscard]] AdversaryStrategy& strategy() noexcept { return *strategy_; }
  [[nodiscard]] const std::unordered_set<NodeId>& malicious() const noexcept {
    return view_.malicious();
  }

 private:
  AdversaryView view_;
  std::unique_ptr<AdversaryStrategy> strategy_;
};

/// Null-safe helper used throughout the phase drivers.
[[nodiscard]] inline bool byzantine(const Adversary* adv, NodeId node) noexcept {
  return adv != nullptr && adv->is_byzantine(node);
}

}  // namespace vmat
