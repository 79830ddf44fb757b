// Execution flight recorder.
//
// Every protocol phase, the message fabric, the authenticated-broadcast
// channel, and the revocation registry emit typed events through a Tracer
// handle threaded down from the coordinator. The handle is a single
// pointer: default-constructed it is fully disabled (every emit is one
// predictable branch), bound to a TraceState it meters per-phase counters,
// and with a TraceSink attached it additionally records the full event
// stream — the replayable audit trail the trace-invariant checker
// (trace/checker.h) validates Lemma 1 / Theorem 7 shaped properties over.
//
// Determinism contract: events carry no timestamps and no addresses, only
// protocol state, so a recorded stream is bit-identical for any
// VMAT_THREADS — the same contract the trial engine makes for results.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/ids.h"

namespace vmat {

/// Which protocol phase an event belongs to (Figure 1's boxes, with the
/// authenticated announcements folded into kBroadcast).
enum class TracePhase : std::uint8_t {
  kNone = 0,
  kBroadcast,
  kTreeFormation,
  kAggregation,
  kConfirmation,
  kPinpoint,
};
inline constexpr std::size_t kTracePhaseCount = 6;

[[nodiscard]] const char* to_string(TracePhase phase) noexcept;

enum class TraceEventKind : std::uint8_t {
  kExecutionBegin,   ///< value = execution ordinal within the recording
  kPhaseBegin,       ///< phase field names the phase
  kPhaseEnd,
  kSlotTick,         ///< slot = interval index within the phase
  kSend,             ///< a=sender, b=receiver, key=edge key, bytes=frame size
  kDeliver,          ///< b=receiver, bytes=frame size
  kDrop,             ///< a=sender, b=receiver, bytes; budget/physics drop
  kLoss,             ///< a=sender, b=receiver, bytes; the ether ate it
  kAuthBroadcast,    ///< bytes = payload size; one flooding round
  kMacCompute,       ///< a=node, key (kNoKey = sensor key)
  kMacVerify,        ///< a=subject node, key, ok = verified
  kArrivalAccepted,  ///< a=origin, slot=arrival interval, value
  kArrivalRejected,  ///< a=origin, slot, value; ok always false
  kVeto,             ///< a=actor, b=veto origin, slot; ok: originated (true)
                     ///  or forwarded (false)
  kPredicateTest,    ///< a=sensor (sensor-key test), key (pool-key test), ok
  kPinpointStep,     ///< a=current sensor, key=current edge, value=step,
                     ///  slot=level/interval of the walk
  kKeyRevoked,       ///< key; ok=true for pinpointed, false for ring seed
  kSensorRevoked,    ///< a=node
  kOutcome,          ///< ok=produced_result, value=trigger enum
  kEpochBegin,       ///< value = epoch ordinal; an epoch-formation slice
                     ///  (announcement + tree formation, no query phases)
};

[[nodiscard]] const char* to_string(TraceEventKind kind) noexcept;

/// One flight-recorder event. Field meaning is per-kind (see
/// TraceEventKind); unused fields hold their zero/sentinel defaults.
/// The explicit zeroed padding members keep snapshot copies of the struct
/// (the captured prefix) free of indeterminate bytes.
struct TraceEvent {
  TraceEventKind kind{TraceEventKind::kExecutionBegin};
  TracePhase phase{TracePhase::kNone};
  std::uint8_t padding0[2]{};
  Interval slot{0};
  NodeId a{};
  NodeId b{};
  KeyIndex key{kNoKey};
  std::uint32_t bytes{0};
  std::int64_t value{0};
  bool ok{true};
  std::uint8_t padding1[7]{};

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Typed counters for one phase — the structured replacement for the
/// ad-hoc cost tallies that used to live only in ExecutionOutcome.
struct PhaseCounters {
  std::uint64_t frames_sent{0};
  std::uint64_t frames_delivered{0};
  std::uint64_t frames_dropped{0};
  std::uint64_t frames_lost{0};
  std::uint64_t bytes_sent{0};
  std::uint64_t mac_computes{0};
  std::uint64_t mac_verifies{0};
  std::uint64_t mac_failures{0};
  std::uint64_t auth_broadcasts{0};
  std::uint64_t flooding_rounds{0};
  std::uint64_t predicate_tests{0};

  PhaseCounters& operator+=(const PhaseCounters& other) noexcept;

  friend bool operator==(const PhaseCounters&, const PhaseCounters&) = default;
};

/// Per-execution metrics: one PhaseCounters bucket per TracePhase.
struct ExecutionMetrics {
  std::array<PhaseCounters, kTracePhaseCount> phase{};

  [[nodiscard]] PhaseCounters& at(TracePhase p) noexcept {
    return phase[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] const PhaseCounters& at(TracePhase p) const noexcept {
    return phase[static_cast<std::size_t>(p)];
  }
  /// Sum across phases.
  [[nodiscard]] PhaseCounters totals() const noexcept;

  friend bool operator==(const ExecutionMetrics&,
                         const ExecutionMetrics&) = default;
};

/// Receiver of the recorded stream. on_event only fires while a sink is
/// attached; on_execution_end delivers the finished metrics snapshot.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& event) = 0;
  virtual void on_execution_end(const ExecutionMetrics& metrics) {
    (void)metrics;
  }
};

/// The mutable state a Tracer handle points at. Owned by the coordinator
/// (or a test); shared by every component tracing one execution.
struct TraceState {
  TraceSink* sink{nullptr};
  ExecutionMetrics metrics;
  TracePhase phase{TracePhase::kNone};
  Interval slot{0};
  std::int64_t executions{0};
  std::int64_t epochs{0};
};

/// Zero-cost-when-disabled tracing handle. Copyable by value; a default
/// constructed Tracer ignores every call.
class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(TraceState* state) noexcept : state_(state) {}

  /// Counters are being collected.
  [[nodiscard]] bool metering() const noexcept { return state_ != nullptr; }
  /// The full event stream is being recorded.
  [[nodiscard]] bool recording() const noexcept {
    return state_ != nullptr && state_->sink != nullptr;
  }
  [[nodiscard]] const ExecutionMetrics* metrics() const noexcept {
    return state_ != nullptr ? &state_->metrics : nullptr;
  }

  /// Reset metrics/phase for a fresh execution and emit kExecutionBegin.
  void begin_execution();
  /// Reset metrics/phase for an epoch-formation slice and emit kEpochBegin.
  /// Epoch slices record announcement + tree formation only; they end with
  /// end_epoch(), not with a kOutcome (an epoch has no query result).
  void begin_epoch();
  /// Close the epoch-formation slice (no kOutcome, no metrics handoff —
  /// the coordinator snapshots Epoch::metrics itself).
  void end_epoch();
  /// Close any open phase and emit kPhaseBegin for `p`.
  void begin_phase(TracePhase p);
  /// Emit kPhaseEnd and fall back to TracePhase::kNone.
  void end_phase();
  /// Emit kOutcome (closing any open phase first) and hand the metrics
  /// snapshot to the sink.
  void end_execution(bool produced_result, std::int64_t trigger);

  // The per-frame/per-MAC methods sit on the simulator's hottest loops, so
  // their metering fast path is inline: one null check plus counter bumps.
  // Only the recording slow path (sink attached) leaves the header.
  void slot_tick(Interval slot) {
    if (state_ == nullptr) return;
    state_->slot = slot;
    if (state_->sink != nullptr) record_slot_tick(slot);
  }
  void frame_sent(NodeId from, NodeId to, KeyIndex key, std::size_t bytes) {
    if (state_ == nullptr) return;
    PhaseCounters& c = counters();
    c.frames_sent += 1;
    c.bytes_sent += bytes;
    if (state_->sink != nullptr) record_frame_sent(from, to, key, bytes);
  }
  void frame_delivered(NodeId to, std::size_t bytes) {
    if (state_ == nullptr) return;
    counters().frames_delivered += 1;
    if (state_->sink != nullptr) record_frame_delivered(to, bytes);
  }
  void frame_dropped(NodeId from, NodeId to, std::size_t bytes) {
    if (state_ == nullptr) return;
    counters().frames_dropped += 1;
    if (state_->sink != nullptr) record_frame_dropped(from, to, bytes);
  }
  void frame_lost(NodeId from, NodeId to, std::size_t bytes) {
    if (state_ == nullptr) return;
    counters().frames_lost += 1;
    if (state_->sink != nullptr) record_frame_lost(from, to, bytes);
  }
  void mac_compute(NodeId node, KeyIndex key) {
    if (state_ == nullptr) return;
    counters().mac_computes += 1;
    if (state_->sink != nullptr) record_mac_compute(node, key);
  }
  void mac_verify(NodeId node, KeyIndex key, bool ok) {
    if (state_ == nullptr) return;
    PhaseCounters& c = counters();
    c.mac_verifies += 1;
    if (!ok) c.mac_failures += 1;
    if (state_->sink != nullptr) record_mac_verify(node, key, ok);
  }

  void auth_broadcast(std::size_t payload_bytes, std::uint64_t receivers);
  void arrival_accepted(NodeId origin, Interval slot, std::int64_t value);
  void arrival_rejected(NodeId origin, Interval slot, std::int64_t value);
  void veto(NodeId actor, NodeId origin, Interval slot, std::int64_t value,
            bool originated);
  void predicate_test(NodeId sensor, KeyIndex pool_key, bool ok);
  void pinpoint_step(NodeId current, KeyIndex edge, std::int64_t step,
                     Interval level);
  void key_revoked(KeyIndex key, bool pinpointed);
  void sensor_revoked(NodeId node);

 private:
  [[nodiscard]] PhaseCounters& counters() noexcept {
    return state_->metrics.at(state_->phase);
  }
  void emit(TraceEvent event);

  // Recording slow paths for the inline metering methods above.
  void record_slot_tick(Interval slot);
  void record_frame_sent(NodeId from, NodeId to, KeyIndex key,
                         std::size_t bytes);
  void record_frame_delivered(NodeId to, std::size_t bytes);
  void record_frame_dropped(NodeId from, NodeId to, std::size_t bytes);
  void record_frame_lost(NodeId from, NodeId to, std::size_t bytes);
  void record_mac_compute(NodeId node, KeyIndex key);
  void record_mac_verify(NodeId node, KeyIndex key, bool ok);

  TraceState* state_{nullptr};

  friend class ShardedTrace;
};

/// Per-shard trace buffering for the level-parallel phase drivers.
///
/// A sharded slot hands each shard its own Tracer: counters accumulate in a
/// private per-shard TraceState, and (when the parent is recording) events
/// buffer in a private sink. After the join, merge() folds the counters
/// into the parent state and replays the buffered events through the parent
/// sink in shard order — shards cover nodes in id order, so the merged
/// stream is the id-ordered stream serial execution produces, bit for bit.
/// With a disabled parent every shard Tracer is disabled too and merge() is
/// a no-op. Construct per sharded slot; shard() handles must not outlive
/// the ShardedTrace.
class ShardedTrace {
 public:
  ShardedTrace(Tracer parent, std::size_t shards);

  /// The buffering Tracer for shard `i`.
  [[nodiscard]] Tracer shard(std::size_t i) noexcept {
    return states_.empty() ? Tracer{} : Tracer(&states_[i]);
  }

  /// Fold shard counters into the parent and replay buffered events in
  /// shard order. Call exactly once, after the join.
  void merge();

 private:
  struct BufferSink final : TraceSink {
    void on_event(const TraceEvent& event) override;
    std::vector<TraceEvent> events;
  };

  Tracer parent_;
  std::vector<TraceState> states_;  // sized in ctor, never resized
  std::vector<BufferSink> sinks_;
};

/// Deployment facts a recorded trace is checked against.
struct TraceContext {
  std::uint32_t nodes{0};
  Level depth_bound{0};
  std::uint32_t ring_size{0};
  std::uint32_t theta{0};
  std::uint32_t instances{1};
  bool slotted_sof{true};
};

/// The standard sink: records every event plus per-execution metrics
/// snapshots, and exports the whole recording as JSON (schema versioned,
/// consumed by tools/check_trace.py and the bench reports).
class FlightRecorder : public TraceSink {
 public:
  void set_context(const TraceContext& context) { context_ = context; }
  [[nodiscard]] const TraceContext& context() const noexcept {
    return context_;
  }

  void on_event(const TraceEvent& event) override;
  void on_execution_end(const ExecutionMetrics& metrics) override;

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] const std::vector<ExecutionMetrics>& execution_metrics()
      const noexcept {
    return execution_metrics_;
  }
  [[nodiscard]] std::size_t execution_count() const noexcept;

  void clear();

  /// Serialise the recording (context, per-execution events + metrics).
  [[nodiscard]] std::string to_json() const;
  /// to_json() to a file; returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  TraceContext context_;
  std::vector<TraceEvent> events_;
  std::vector<ExecutionMetrics> execution_metrics_;
};

}  // namespace vmat
