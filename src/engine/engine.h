// Epoch-batched query serving engine — the one query API above
// VmatCoordinator.
//
// COUNT/SUM/AVERAGE become synopsis MIN instances (Section VIII). A bare
// VmatCoordinator::execute() pays for an authenticated announcement plus a
// full tree formation per execution; the Engine amortizes that. Queries
// are submitted into a queue (a one-shot query is a run_batch() of one),
// and each serving round packs up to max_in_flight of them into ONE wide
// execution over the current *epoch* — a tree formed once by
// prepare_epoch() and shared until a revocation (or rekey) invalidates
// it. The combined execution's instance space is the concatenation of
// per-query blocks; every synopsis block keeps its own query nonce and
// SynopsisCodec, so each query's synopses are exactly what a standalone
// execution would use and the per-execution security argument (Theorem 2
// / Theorem 7) is unchanged — only the formation cost is shared.
//
// Disruption handling is the Theorem 7 retry loop: a disrupted execution
// revokes adversary key material, invalidates the epoch, and leaves the
// packed queries queued. Each query carries an execution budget (its
// deadline, EngineQuery::max_executions — the one retry budget); the
// engine applies slow-start admission — after a disruption the next
// round packs a single query (so one disruption burns one query's
// attempt, not the whole batch's), and the window doubles per clean round
// back up to max_in_flight — plus a nominal exponential backoff counter
// (EngineStats::backoff) a deployment would sleep between rounds.
//
// Determinism contract: queries are packed in submission order, nonces are
// drawn serially before any parallel work, and the thread pool only builds
// per-block synopsis grids (pure PRG evaluation, disjoint column writes).
// Results are bit-identical for any VMAT_THREADS.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/coordinator.h"
#include "util/error.h"
#include "util/parallel.h"

namespace vmat {

enum class EngineQueryKind : std::uint8_t {
  kCount,     ///< predicate COUNT via exponential synopses
  kSum,       ///< SUM of non-negative readings via synopses
  kAverage,   ///< SUM / COUNT(reading > 0); both blocks ride one execution
  kMin,       ///< exact MIN of raw readings (one instance)
  kMax,       ///< exact MAX via MIN over negated readings
  kQuantile,  ///< q-quantile via a binary search of COUNT probes
};

[[nodiscard]] const char* to_string(EngineQueryKind kind) noexcept;

/// One query submitted to the engine. Payload vectors are indexed by node
/// id (entry 0, the base station, is ignored) and must cover every node.
struct EngineQuery {
  EngineQueryKind kind{EngineQueryKind::kCount};
  /// kCount: predicate[id] != 0 means node id satisfies the predicate.
  std::vector<std::uint8_t> predicate;
  /// kSum / kAverage / kQuantile: non-negative integer readings.
  std::vector<std::int64_t> readings;
  /// kMin / kMax: raw readings.
  std::vector<Reading> raw;
  /// kQuantile: the quantile in (0, 1) and the reading domain [0, max].
  double q{0.5};
  std::int64_t domain_max{0};
  /// Synopsis instances for this query; 0 = the coordinator's configured
  /// count. Ignored by kMin/kMax (always 1 instance).
  std::uint32_t instances{0};
  /// Execution budget (deadline): the query fails with kDeadlineExceeded
  /// after participating in this many executions. 0 = EngineConfig default.
  int max_executions{0};
};

struct EngineResult {
  std::uint64_t id{0};
  EngineQueryKind kind{EngineQueryKind::kCount};
  /// The estimate, when the query was answered. Exact for kMin/kMax.
  std::optional<double> estimate;
  /// kDeadlineExceeded / kBudgetExhausted / kUnavailable / kQueueFull /
  /// kInvalidArgument when the query was not answered.
  std::optional<Error> error;
  /// Executions this query participated in (clean and disrupted).
  int executions{0};
  /// Epoch that served the final execution (0 if never executed).
  std::uint64_t epoch_id{0};

  [[nodiscard]] bool answered() const noexcept { return estimate.has_value(); }
};

struct EngineConfig {
  /// Admission control: queries packed into one combined execution.
  std::uint32_t max_in_flight{16};
  /// Admission control: submissions beyond this fail with kQueueFull.
  std::size_t queue_depth{256};
  /// Width cap for one combined execution; a round stops packing when the
  /// next query's blocks would exceed it (the first query always fits).
  std::uint32_t max_instances_per_execution{8192};
  /// Default per-query execution budget (EngineQuery::max_executions = 0).
  int default_deadline{64};
  /// Nominal backoff doubling base/cap (rounds a deployment would wait
  /// between disrupted executions; surfaced via EngineStats::backoff).
  std::uint64_t backoff_base{1};
  std::uint64_t backoff_cap{64};
  /// Engine-level budget: drain() fails everything still pending with
  /// kBudgetExhausted once this many rounds have run.
  std::uint64_t max_rounds{100000};
};

/// Per-epoch rollup: formation cost plus everything served on that tree.
struct EpochRollup {
  std::uint64_t epoch_id{0};
  /// The epoch was re-armed from its snapshot instead of re-formed: zero
  /// formation rounds/bytes (the tree was restored, not re-flooded).
  bool rearmed{false};
  int formation_rounds{0};
  std::uint64_t formation_bytes{0};
  std::uint64_t executions{0};
  std::uint64_t queries_served{0};
  std::uint64_t fabric_bytes{0};  ///< execution bytes (formation excluded)
  /// Metered counters: the formation slice plus every execution slice
  /// served under this epoch.
  ExecutionMetrics metrics;
};

struct EngineStats {
  std::uint64_t rounds{0};
  std::uint64_t executions{0};
  std::uint64_t disrupted_executions{0};
  std::uint64_t epochs_formed{0};
  /// Epochs restored from their prepare_epoch() snapshot (rearm_epoch())
  /// instead of re-formed — the zero-flooding recovery path.
  std::uint64_t epochs_rearmed{0};
  std::uint64_t queries_answered{0};
  std::uint64_t queries_failed{0};
  /// Current nominal backoff (0 after a clean round).
  std::uint64_t backoff{0};
  /// Current admission window (slow-start state).
  std::uint32_t window{1};
  std::uint64_t fabric_bytes{0};  ///< executions + epoch formations
};

class Engine {
 public:
  /// `coordinator` must outlive the engine. `pool` runs the per-block grid
  /// builds; nullptr = ThreadPool::shared().
  explicit Engine(VmatCoordinator* coordinator, EngineConfig config = {},
                  ThreadPool* pool = nullptr);

  /// Enqueue a query. Fails with kInvalidArgument (malformed payload) or
  /// kQueueFull (queue_depth reached) without enqueuing.
  Expected<std::uint64_t> submit(EngineQuery query);

  /// Serve every queued query to completion (answer, deadline, or engine
  /// budget), one epoch-batched round at a time. Returns results in
  /// submission order and empties the queue.
  std::vector<EngineResult> drain();

  // --- non-blocking serving seams (the vmatd daemon drives these) ---

  /// Ensure the serving epoch is ready without running any query: re-arm
  /// it from its prepare_epoch() snapshot when possible, form it
  /// otherwise. No-op when the epoch is already ready. This is the
  /// pipelining seam — a multiplexer calls it on an idle tenant so the
  /// tree formation overlaps other tenants' serving rounds and the next
  /// burst of queries lands on a warm epoch.
  void prepare();

  /// Run at most ONE serving round (prepare() + pack + one combined
  /// execution + settle) if any query is open. Returns true while open
  /// queries remain afterwards — callers interleave step() across engines
  /// instead of blocking in drain(). Settled queries stay queued until
  /// take_ready() collects them.
  bool step();

  /// Remove and return every settled query's result (submission order
  /// preserved among them); open queries stay queued. The incremental
  /// counterpart of drain() for callers that poll.
  std::vector<EngineResult> take_ready();

  /// submit() + drain(): accepted queries come back in request order;
  /// submissions rejected by admission control are appended after them as
  /// failed results (id 0), not thrown.
  std::vector<EngineResult> run_batch(std::vector<EngineQuery> queries);

  [[nodiscard]] std::size_t queued() const noexcept { return pending_.size(); }
  /// Queued queries not yet settled (queued() also counts settled results
  /// awaiting take_ready()).
  [[nodiscard]] std::size_t open_queries() const noexcept {
    std::size_t open = 0;
    for (const Pending& p : pending_)
      if (!p.done) ++open;
    return open;
  }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }
  /// One rollup per epoch this engine formed, re-armed or served on, in
  /// epoch order. An epoch formed outside the engine (another engine on
  /// the same coordinator, a direct prepare_epoch()) has zero formation
  /// cost in its rollup.
  [[nodiscard]] const std::vector<EpochRollup>& epoch_rollups() const noexcept {
    return epochs_;
  }

 private:
  struct Pending {
    std::uint64_t id{0};
    EngineQuery query;
    int executions{0};
    int deadline{0};
    bool done{false};
    EngineResult result;
    // kQuantile search state: phase 0 probes the total population, phase 1
    // binary-searches [lo, hi] for the target rank.
    int phase{0};
    double target{0.0};
    std::int64_t lo{0};
    std::int64_t hi{0};
    // kAverage: the SUM block's estimate, set when the round resolves.
    std::optional<double> sum_estimate;
  };

  /// One serving round: ensure an epoch, pack up to the admission window,
  /// run one combined execution, settle the packed queries.
  void run_round();
  void settle_failure(Pending& p, ErrorCode code, const char* detail);

  VmatCoordinator* coordinator_;
  EngineConfig config_;
  ThreadPool* pool_;
  std::vector<Pending> pending_;
  std::vector<EpochRollup> epochs_;
  EngineStats stats_;
  std::uint64_t next_id_{1};
};

}  // namespace vmat
