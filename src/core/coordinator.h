// The VMAT execution driver — Figure 1's state machine, run by the trusted
// base station.
//
// One execute() performs: authenticated announcement → tree formation →
// authenticated query announcement → aggregation → junk check →
// authenticated minimum broadcast → confirmation/SOF → veto check, and, on
// any trigger, the corresponding pinpointing/revocation protocol. It
// returns either per-instance minima (guaranteed correct, Theorem 2) or the
// keys/sensors revoked (guaranteed adversary-held, Theorem 6) — the
// Theorem 7 disjunction.
//
// Every entry point runs one pipeline, form → (optional snapshot) → run,
// over ValueTable inputs checked before any work: one private form step
// serves execute(), snapshot_after_formation() and prepare_epoch(); one
// query run serves execute(), run_query() and resume_min().
//
// The serving split: execute() is the one-shot form. A serving layer
// (engine/engine.h) instead calls prepare_epoch() once — announcement +
// tree formation under a fresh session, captured as a kEpoch snapshot —
// and then run_query() many times over the shared tree; the epoch stays
// valid until a revocation (or rekey/path-key change) invalidates the
// formed tree. Each run_query() uses fresh query/confirmation nonces, so
// the per-execution security argument is unchanged — only the
// tree-formation cost is amortized. The engine's
// EngineQuery::max_executions is the one Theorem 7 retry budget.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "attack/adversary.h"
#include "broadcast/auth_broadcast.h"
#include "core/aggregation.h"
#include "core/confirmation.h"
#include "core/phase_state.h"
#include "core/pinpoint.h"
#include "core/tree_formation.h"
#include "sim/network.h"
#include "sim/snapshot.h"
#include "trace/trace.h"

namespace vmat {

struct CoordinatorSpec {
  Level depth_bound{0};  ///< announced L; 0 = use the physical depth
  TreeMode tree_mode{TreeMode::kTimestamp};
  bool multipath{false};     ///< Section IV-D ring aggregation
  bool slotted_sof{true};    ///< false = unslotted ablation
  std::uint32_t instances{1};
  std::uint64_t seed{0x5eed};  ///< nonce/session generator seed
  /// How keyed predicate tests execute during pinpointing: the exact
  /// reachability collapse (fast, default) or the full fabric-level
  /// verified flood.
  PredicateTestMode predicate_mode{PredicateTestMode::kReachability};
};

class SimulationSpec;

enum class OutcomeKind : std::uint8_t { kResult, kRevocation };

enum class Trigger : std::uint8_t {
  kNone,               ///< clean run: result returned
  kVeto,               ///< Figure 1 step 8
  kJunkAggregation,    ///< Figure 1 step 4
  kJunkConfirmation,   ///< Figure 1 step 7
  kSelfIncrimination,  ///< valid-MAC message with impossible semantics
};

struct ExecutionOutcome {
  OutcomeKind kind{OutcomeKind::kResult};
  Trigger trigger{Trigger::kNone};
  /// Per-instance minima; kInfinity where no message arrived. Only
  /// meaningful when kind == kResult.
  std::vector<Reading> minima;
  std::vector<KeyIndex> revoked_keys;
  std::vector<NodeId> revoked_sensors;
  std::string reason;
  /// O(1) data-path flooding rounds (announcements + phases).
  int data_rounds{0};
  /// Pinpointing cost (zero for clean runs).
  CostMeter pinpoint_cost;
  /// Payload bytes moved by the fabric during this execution. Always equal
  /// to metrics.totals().bytes_sent — the fabric and the flight recorder
  /// meter the same frame-size definition (frame_size in sim/fabric.h).
  std::uint64_t fabric_bytes{0};
  /// Typed per-phase counters collected by the flight recorder for this
  /// execution (always metered, even with no recorder attached).
  ExecutionMetrics metrics;

  [[nodiscard]] bool produced_result() const noexcept {
    return kind == OutcomeKind::kResult;
  }
};

/// Validates the content of an aggregation message beyond its sensor-key
/// MAC (e.g. synopsis consistency). Returning false marks it spurious.
using ContentValidator = std::function<bool(const AggMessage&)>;

/// A formed epoch: one authenticated announcement + tree formation whose
/// tree is shared by every run_query() until a revocation invalidates it.
struct Epoch {
  std::uint64_t id{0};       ///< 1-based formation ordinal; 0 = none yet
  std::uint64_t session{0};  ///< the tree-formation session nonce
  /// Flooding rounds spent on formation (announcement + tree phase).
  int formation_rounds{0};
  /// Explicit zero padding: snapshots copy an Epoch byte for byte.
  std::uint32_t padding{0};
  /// Metrics for the formation slice only; query executions meter their
  /// own slices into ExecutionOutcome::metrics.
  ExecutionMetrics metrics;
  /// Fabric bytes moved by the formation slice.
  std::uint64_t fabric_bytes{0};
  // Revocation/key-material snapshot the epoch's validity is checked
  // against (any change means the formed tree may be stale).
  std::size_t revoked_keys{0};
  std::size_t revoked_sensors{0};
  std::uint64_t key_generation{0};
};

class VmatCoordinator {
 public:
  VmatCoordinator(Network* net, Adversary* adversary, CoordinatorSpec config);

  /// Construct from a validated SimulationSpec (throws
  /// std::invalid_argument with the joined validation report otherwise).
  VmatCoordinator(Network* net, Adversary* adversary,
                  const SimulationSpec& spec);

  /// One full execution over per-node, per-instance values/weights
  /// (kInfinity value = the node contributes nothing for that instance).
  /// Both tables must cover every node and be config().instances wide;
  /// otherwise std::invalid_argument is thrown before any work. `validate`
  /// defaults to "raw reading" semantics (weight must be 0).
  [[nodiscard]] ExecutionOutcome execute(const ValueTable& values,
                                         const ValueTable& weights,
                                         const ContentValidator& validate = {});

  // --- epoch-batched serving (engine/engine.h drives these) ---

  /// Form (or re-form) the epoch: authenticated announcement + tree
  /// formation under a fresh session nonce, captured as the kEpoch snapshot
  /// rearm_epoch() restores. Returns the epoch descriptor.
  const Epoch& prepare_epoch();

  /// A prepare_epoch() tree exists and no revocation / rekey / path-key
  /// change (or intervening execute()) has stalled it.
  [[nodiscard]] bool epoch_ready() const noexcept;

  /// The last formed epoch (id 0 when none was formed yet).
  [[nodiscard]] const Epoch& epoch() const noexcept { return epoch_; }

  /// One query execution over the current epoch's tree: query announcement
  /// → aggregation → minima announcement → confirmation → classification,
  /// with fresh per-query nonces. The execution is as wide as the tables
  /// (the serving engine packs many queries into one wide execution); both
  /// must cover every node and have the same nonzero width, else
  /// std::invalid_argument. Requires epoch_ready() (throws std::logic_error
  /// otherwise). A kRevocation outcome invalidates the epoch.
  [[nodiscard]] ExecutionOutcome run_query(
      const ValueTable& values, const ValueTable& weights,
      const ContentValidator& validate = {});

  /// Plain MIN query over one reading per node (instances must be 1; the
  /// readings must cover every node).
  [[nodiscard]] ExecutionOutcome run_min(const std::vector<Reading>& readings);

  // --- copy-on-write snapshots (sim/snapshot.h) ---

  /// Run the shared execution prefix — fresh session nonce, authenticated
  /// announcement, tree formation (identical to execute()'s prefix) — and
  /// capture the complete post-formation state. The coordinator is left
  /// mid-execution; finish it any number of times with resume_min(), on
  /// this coordinator or on any compatible one (same topology/keys/config;
  /// enforced by a fingerprint check). An attached recorder observes the
  /// prefix live here AND replayed by every restore — for one complete
  /// stream per fork, attach the recorder to the forking coordinator after
  /// the capture. The fork contract: the malicious
  /// *set* shaped formation and must stay fixed across forks — strategies
  /// may diverge post-formation (every PolicyStrategy shares the honest
  /// tree-slot behavior), rebound via set_adversary().
  [[nodiscard]] Snapshot snapshot_after_formation();

  /// Finish a MIN execution from a kExecutionPrefix snapshot: prepare the
  /// readings as run_min() does (Byzantine own_reading substitution
  /// included), restore the captured state, and run the query phases
  /// (aggregation → confirmation → classification) over it. Bit-identical
  /// to the run_min() that would have run the same prefix: same nonce
  /// stream, same stats, and — with a recorder attached — the same event
  /// stream, because the captured prefix events are replayed into the sink
  /// before the live phases run. Throws std::invalid_argument — before
  /// restoring anything — for readings that do not cover every node, an
  /// epoch snapshot, an empty one, or one from an incompatible deployment.
  [[nodiscard]] ExecutionOutcome resume_min(
      const Snapshot& snapshot, const std::vector<Reading>& readings);

  /// Re-arm the last prepare_epoch() tree from its snapshot instead of
  /// re-forming it: O(state) restore, zero flooding rounds. Succeeds only
  /// when an epoch snapshot exists and no revocation/rekey happened since
  /// its capture (the formed tree would be stale otherwise —
  /// prepare_epoch() is the only correct path then).
  /// Monotone counters survive the restore: the nonce stream, the
  /// broadcast chain cursor, and the trace ordinals keep advancing, so a
  /// re-armed epoch never reuses a nonce or a chain element. Returns true
  /// and leaves epoch_ready() on success.
  bool rearm_epoch();

  /// Rebind the adversary handle (fork fan-out swaps per-trial strategies;
  /// nullptr = no adversary). The malicious set must match the one the
  /// restored snapshot's tree was formed under — see
  /// snapshot_after_formation().
  void set_adversary(Adversary* adversary) noexcept { adversary_ = adversary; }

  [[nodiscard]] const AuditLog& audits() const noexcept { return audits_; }
  [[nodiscard]] Network& network() const noexcept { return *net_; }
  [[nodiscard]] const TreeResult& last_tree() const noexcept { return tree_; }
  [[nodiscard]] const CoordinatorSpec& config() const noexcept { return config_; }
  [[nodiscard]] Level effective_depth_bound() const noexcept {
    return depth_bound_;
  }

  [[nodiscard]] std::uint64_t fresh_nonce() noexcept;

  /// How many tree formations this coordinator has run (execute(),
  /// prepare_epoch(), snapshot_after_formation() each form once; resumes
  /// and rearms never do). The campaign bench asserts fork-mode probes
  /// leave this at 1.
  [[nodiscard]] std::uint64_t formations_run() const noexcept {
    return formations_;
  }

  /// Attach a flight recorder: every subsequent execute() records its full
  /// event stream into it (and fills its TraceContext from this deployment).
  /// Pass nullptr to stop recording; per-phase metrics are metered either
  /// way and land in ExecutionOutcome::metrics.
  void set_recorder(FlightRecorder* recorder);

 private:
  /// The one attachment scope (trace slice, network tracer, prefix tee);
  /// defined in coordinator.cpp.
  class Attachment;

  /// What the form step leaves besides the formed tree.
  struct Formed {
    int rounds{0};      ///< flooding rounds spent (announcement + tree)
    Snapshot snapshot;  ///< the capture, when the scope's slice asks for one
  };

  /// Sign at the base station and verify at every honest sensor; models one
  /// flooding round of choke-resistant authenticated broadcast.
  void authenticated_broadcast(const Bytes& payload, int& rounds,
                               Tracer tracer);

  /// run_min()'s and resume_min()'s one-instance value table: each node's
  /// reading, a Byzantine node's replaced by its strategy's own_reading().
  /// Throws std::logic_error unless instances == 1, and
  /// std::invalid_argument unless the readings cover every node.
  [[nodiscard]] ValueTable min_values(const std::vector<Reading>& readings);

  /// The one form step, under `scope`: orphan any prepared epoch, draw the
  /// session nonce, announce and form the tree (fills tree_), then capture
  /// what the scope's slice asks for — a kExecutionPrefix snapshot, or the
  /// epoch record plus its kEpoch snapshot.
  [[nodiscard]] Formed form(Attachment& scope);

  /// Query announcement → aggregation → minima announcement →
  /// confirmation → classification over the already-formed tree_;
  /// `rounds_so_far` seeds ExecutionOutcome::data_rounds.
  [[nodiscard]] ExecutionOutcome run_query_phases(
      const ValueTable& values, const ValueTable& weights,
      const ContentValidator& validate, Tracer tracer, int rounds_so_far);

  /// Hash pinning the immutable deployment identity a snapshot belongs to.
  [[nodiscard]] std::uint64_t deployment_fingerprint() const;
  /// Serialize the coordinator + network state (with the buffered prefix
  /// trace events) into a Snapshot.
  [[nodiscard]] Snapshot capture_snapshot(
      SnapshotKind kind, int rounds,
      const std::vector<TraceEvent>& prefix_events) const;
  /// Decode a snapshot back into this coordinator/network, replaying the
  /// buffered prefix events into an attached sink. `epoch_ordinal` >= 0
  /// rewrites the replayed kEpochBegin ordinal (rearm continues the live
  /// epoch counter instead of rewinding it).
  void restore_snapshot(const Snapshot& snapshot, std::int64_t epoch_ordinal);

  Network* net_;
  // The adversary strategy is an input to an execution, not part of its
  // state: forks deliberately re-run it against restored state.
  // vmat-analyze: allow(snapshot-field-coverage) -- execution input
  Adversary* adversary_;
  // Construction-time config, covered by deployment_fingerprint().
  // vmat-analyze: allow(snapshot-field-coverage) -- fingerprint-pinned
  CoordinatorSpec config_;
  // vmat-analyze: allow(snapshot-field-coverage) -- fingerprint-pinned
  Level depth_bound_;
  std::uint64_t nonce_state_;
  // Diagnostic counter (formation-reuse accounting), not execution state:
  // a fork restoring a snapshot must NOT inherit the capturing
  // coordinator's count.
  // vmat-analyze: allow(snapshot-field-coverage) -- diagnostic counter
  std::uint64_t formations_{0};
  AuditLog audits_;
  TreeResult tree_;
  Epoch epoch_;
  bool epoch_stale_{true};
  AuthBroadcaster broadcaster_;
  std::vector<AuthReceiver> receivers_;
  /// Shared by every component tracing one execution; the Tracer handles
  /// threaded through the phases all point here.
  TraceState trace_state_;
  /// The kEpoch snapshot prepare_epoch() captures, plus the epoch-validity
  /// guard recorded at capture time.
  /// Snapshot storage itself: capturing a snapshot inside a snapshot
  /// would recurse, so the pair deliberately skips both members.
  // vmat-analyze: allow(snapshot-field-coverage) -- snapshot storage
  std::optional<Snapshot> epoch_snapshot_;
  // vmat-analyze: allow(snapshot-field-coverage) -- snapshot storage
  Epoch epoch_snapshot_meta_;
};

}  // namespace vmat
