// CampaignRunner — the coverage-guided adversary-strategy fuzzer.
//
// A campaign searches the (policy × predicate × seed) strategy space of one
// deployment for worst cases, with the trace-invariant checker (trace/
// checker.h) as the oracle and the post-formation snapshot (sim/snapshot.h)
// making each probe cheap: the deployment's tree is formed ONCE, every
// probe forks from that shared prefix via resume_min() under a fresh
// Adversary — zero formation rounds per probe after the first (asserted in
// bench_campaign).
//
// Search = random generation + mutation over a seed corpus, guided by a
// coverage signal: each probe's outcome is hashed into a bucket signature
// (log2-bucketed per-phase PhaseCounters + outcome kind/trigger +
// revocation counts); a never-seen signature makes the genome a mutation
// seed. Tracked worst cases:
//
//   ruin         a disrupted execution with the FEWEST adversary keys
//                revoked (the adversary that ruins executions while giving
//                the revocation walk the least to bite on), deepened into a
//                full "executions ruined before full revocation" streak;
//   misrevoke    most honest collateral (honest sensors revoked, revoked
//                keys the adversary never held);
//   latency      longest pinpoint walk (flooding rounds, predicate tests);
//   violation    ANY trace-invariant violation (a protocol bug).
//
// Everything is deterministic for a fixed (seed, probes) budget: probes run
// sequentially through vmat::Rng, and each probe's execution is
// bit-identical for any VMAT_THREADS (the PR 5/6 contract), so the corpus,
// the coverage counters, and the worst-case table replay exactly.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_set>

#include "attack/adversary.h"
#include "campaign/corpus.h"
#include "core/coordinator.h"
#include "sim/snapshot.h"
#include "spec/simulation_spec.h"

namespace vmat::campaign {

struct CampaignConfig {
  /// Deployment under attack. instances is forced to 1 (probes are MIN
  /// queries); depth_bound 0 = physical depth of the honest subgraph.
  SimulationSpec spec{};
  /// Compromised sensor count (placement via choose_malicious).
  std::uint32_t compromised{2};
  std::uint64_t placement_seed{17};
  /// Search budget: probes to run.
  std::uint32_t probes{64};
  /// Fuzzer seed: drives genome generation and mutation.
  std::uint64_t seed{1};
  /// Fork probes from one shared post-formation snapshot (default). When
  /// false, every probe builds a private deployment and executes from
  /// scratch; bit-identical results either way (the snapshot contract),
  /// only the formation count and wall clock differ.
  bool fork_probes{true};
  /// Optional seed corpus to mutate from.
  Corpus seeds{};
};

/// One probe's summarized outcome. `entry.digest` is filled with the
/// observed outcome digest, making the entry replayable as a regression.
struct ProbeOutcome {
  CampaignEntry entry;
  bool ruined{false};
  /// Distinct adversary-held keys revoked by this probe: pinpointed keys
  /// and the keys of every ring the probe closed alike.
  std::size_t adversary_keys_revoked{0};
  /// Pinpointed keys NO malicious sensor holds — pure honest collateral.
  std::size_t framed_keys{0};
  /// Revoked sensors outside the malicious set (θ-cascade collateral).
  std::size_t honest_sensors_revoked{0};
  int pinpoint_rounds{0};
  int predicate_tests{0};
  std::size_t violations{0};
  std::string violation_text{};
  std::uint64_t coverage{0};
  bool new_coverage{false};
};

struct CampaignResult {
  std::vector<ProbeOutcome> probes;
  /// Replayable counterexamples: violations, worst cases, and ruining
  /// coverage novelties (deterministic order, deduplicated).
  Corpus corpus;
  std::size_t coverage_buckets{0};
  /// Tree formations run across the whole campaign (1 in fork mode).
  std::uint64_t formations{0};
  /// Indices into `probes` for each objective (unset = no candidate).
  std::optional<std::size_t> worst_ruin;
  std::optional<std::size_t> worst_misrevocation;
  std::optional<std::size_t> worst_latency;
  std::optional<std::size_t> first_violation;
  /// Deep evaluation of the worst_ruin genome: executions ruined before the
  /// adversary lost every key (or the streak cap), with the total
  /// executions the streak took.
  int ruin_streak{0};
  int ruin_streak_executions{0};

  /// The deterministic worst-case table (what vmatsim --campaign prints).
  [[nodiscard]] std::string table() const;
};

class CampaignRunner {
 public:
  /// Validates config.spec (throws std::invalid_argument with the joined
  /// report) and builds the shared deployment.
  explicit CampaignRunner(CampaignConfig config);
  ~CampaignRunner();

  CampaignRunner(const CampaignRunner&) = delete;
  CampaignRunner& operator=(const CampaignRunner&) = delete;

  /// Run the full budget. Deterministic for a fixed config.
  [[nodiscard]] CampaignResult run();

  /// Re-execute one serialized entry through the probe path; the returned
  /// outcome's entry.digest is freshly computed (compare against the
  /// stored digest to detect behavior drift).
  [[nodiscard]] ProbeOutcome replay(const CampaignEntry& entry);
  /// replay() that also hands back the probe's full event stream (for JSON
  /// export / tools/check_trace.py). `recorder` is cleared first.
  [[nodiscard]] ProbeOutcome replay(const CampaignEntry& entry,
                                    FlightRecorder& recorder);

  [[nodiscard]] const std::unordered_set<NodeId>& malicious() const noexcept {
    return malicious_;
  }
  /// Formations run so far (shared coordinator + scratch probes).
  [[nodiscard]] std::uint64_t formations() const noexcept;

 private:
  [[nodiscard]] ProbeOutcome probe(const CampaignEntry& entry,
                                   FlightRecorder& recorder);
  /// `first_event` indexes the first registry event the probe added.
  [[nodiscard]] ProbeOutcome probe_outcome(const CampaignEntry& entry,
                                           const ExecutionOutcome& outcome,
                                           const FlightRecorder& recorder,
                                           const Network& net,
                                           const AdversaryView& adversary,
                                           std::size_t first_event);
  [[nodiscard]] CampaignEntry random_entry(Rng& rng) const;
  [[nodiscard]] AttackPredicate random_predicate(Rng& rng, int depth) const;
  [[nodiscard]] CampaignEntry mutate(const CampaignEntry& base,
                                     Rng& rng) const;
  [[nodiscard]] std::vector<Reading> probe_readings(std::uint64_t seed) const;
  /// Multi-execution re-run of one genome on a private deployment:
  /// executions ruined before the adversary is fully revoked.
  void deepen_ruin(const CampaignEntry& entry, CampaignResult& result);

  CampaignConfig config_;
  SimulationSpec spec_;  ///< config_.spec with instances/depth_bound pinned
  std::unordered_set<NodeId> malicious_;
  /// Shared fork deployment (fork mode; unused for scratch probes).
  std::unique_ptr<Network> net_;
  std::unique_ptr<Adversary> formation_adversary_;
  std::unique_ptr<VmatCoordinator> coordinator_;
  std::optional<Snapshot> snapshot_;
  /// Registry events in snapshot_: a fork probe's own start after them.
  std::size_t snapshot_revocations_{0};
  /// Formations run by scratch probes (their coordinators are transient).
  std::uint64_t scratch_formations_{0};
};

/// Outcome digest used for corpus replay verification: a snapshot_mix hash
/// over the complete observable outcome (kind, trigger, minima, revocation
/// lists, rounds, pinpoint cost, fabric bytes, per-phase counters).
[[nodiscard]] std::uint64_t outcome_digest(const ExecutionOutcome& outcome);

/// Coverage-bucket signature for the search (coarser than the digest:
/// log2 buckets so "same shape" outcomes collide).
[[nodiscard]] std::uint64_t coverage_signature(const ExecutionOutcome& outcome,
                                               std::size_t violations);

}  // namespace vmat::campaign
