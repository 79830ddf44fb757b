// Bit-identity against pinned digests.
//
// Every constant below was recorded with the all-ids phase drivers (each
// slot scanning every node on TX and RX, the authenticated broadcast
// verifying on one thread) and must not move, at one intra-execution
// thread or at four. The ParallelTsan suites compare thread counts within
// one build, so they cannot see a change that moves every thread count the
// same way; these pins can. Each run pins its campaign::outcome_digest and
// a fold of its FlightRecorder event stream, over a 4,000-sensor geometric
// deployment: a clean run_min, a choke-genome run that pinpoints, and a
// lossy run (which pins the order the loss RNG is drawn in). A
// snapshot_after_formation() capture pins the snapshot bytes, less the
// records the hash skipped while their struct padding was indeterminate.
//
// The epoch and engine pins were recorded the same way, before the
// coordinator's entry points were folded into one form step and one input
// type: prepare_epoch → run_query → an interleaved run_min → rearm_epoch
// (or, once a revocation moved key material, prepare_epoch) → run_query,
// on the clean and the choke deployment; and Engine::run_batch of every
// query kind on a serve-shaped tenant (36-sensor grid, 16 instances),
// twice around a one-shot execute() so that the second batch re-arms.
//
// The tree-injector pins were recorded before tree formation read its edge
// MACs from a per-key flood memo and the authenticated broadcast checked
// its MAC once per broadcast. They run the two strategies that inject tree
// frames: WormholeStrategy's forged hop count gives its frames a payload
// other than the flood's, and RandomByzantineStrategy (seed 22) twice
// sends hop count 0 — the flood payload itself — under attack_key_for()
// keys.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "campaign/runner.h"
#include "engine/engine.h"
#include "helpers.h"
#include "sim/snapshot.h"
#include "spec/attack_spec.h"
#include "spec/simulation_spec.h"
#include "trace/trace.h"

namespace vmat {
namespace {

using campaign::named_genome;
using campaign::NamedAttack;

constexpr std::uint32_t kSensors = 4000;

/// A run: its outcome digest, the event fold and the event count.
using Pin = std::vector<std::uint64_t>;
const Pin kClean{11591741589093929726ULL, 6189108916529991057ULL, 186361};
const Pin kChoke{2033210903319224917ULL, 9568597004007417957ULL, 349097};
const Pin kLossy{9467243600887741915ULL, 8888707022840404558ULL, 185457};
const Pin kWormhole{10066986752949007946ULL, 17606060689698221482ULL, 348799};
const Pin kRandomByzantine{5952541235825412950ULL, 7431362531094453173ULL,
                           349435};
constexpr std::uint64_t kSnapshot = 11071568750588467936ULL;
constexpr std::uint64_t kSnapshotBytes = 7299939;

/// Epoch path: the served, one-shot and re-served outcome digests, whether
/// rearm_epoch() succeeded, the final epoch id, the event fold and count.
const Pin kCleanEpoch{10045713444271080703ULL, 11591741589093929726ULL,
                      10045713444271080703ULL, 1, 2, 17042401129846021566ULL,
                      559085};
const Pin kChokeEpoch{14688387194885666321ULL, 3763934949702936431ULL,
                      7080637558055854020ULL, 0, 2, 18023692483712488844ULL,
                      1047289};
/// Engine path: the fold of every result, the one-shot outcome digest, the
/// EngineStats fields in declaration order, the event fold and count.
const Pin kEngine{3235931138643999377ULL, 3151989920451830662ULL, 15, 15, 0, 1,
                  1, 12, 0, 0, 16, 341495, 1133459913924778998ULL, 6183};

const Topology& deployment() {
  static const Topology topo = Topology::random_geometric(
      kSensors, Topology::connected_radius(kSensors), 7);
  return topo;
}

NetworkSpec keys(double loss = 0.0) {
  NetworkSpec spec;
  spec.keys.pool_size = 1000;
  spec.keys.ring_size = 180;
  spec.keys.seed = 41;
  spec.loss_probability = loss;
  return spec;
}

std::vector<Reading> readings() {
  std::vector<Reading> out(kSensors);
  for (std::uint32_t id = 0; id < kSensors; ++id)
    out[id] = 1000 + static_cast<Reading>((id * 7919u) % 100003u);
  return out;
}

std::uint64_t fold_events(const std::vector<TraceEvent>& events) {
  std::uint64_t h = 0x6576656e7473ULL;  // "events"
  for (const TraceEvent& e : events) {
    h = snapshot_mix(h, static_cast<std::uint64_t>(e.kind));
    h = snapshot_mix(h, static_cast<std::uint64_t>(e.phase));
    h = snapshot_mix(h, static_cast<std::uint32_t>(e.slot));
    h = snapshot_mix(h, (std::uint64_t{e.a.value} << 32) | e.b.value);
    h = snapshot_mix(h, (std::uint64_t{e.key.value} << 32) | e.bytes);
    h = snapshot_mix(h, static_cast<std::uint64_t>(e.value));
    h = snapshot_mix(h, e.ok ? 1 : 0);
  }
  return h;
}

/// The choke genome on 4 sensors of `net`, with the depth bound it needs.
std::unique_ptr<Adversary> choke_adversary(Network& net, CoordinatorSpec& cfg) {
  const campaign::Genome genome = named_genome(NamedAttack::kChoke);
  AttackSpec attack;
  attack.compromised(4).placement_seed(11).policy(genome.policy).when(
      genome.when);
  auto built = attack.build(net);
  EXPECT_TRUE(built.has_value());
  if (!built.has_value()) return nullptr;
  cfg.depth_bound = deployment().depth(built.value()->malicious()) + 2;
  return std::move(built.value());
}

enum class Attack : std::uint8_t { kNone, kChoke, kWormhole, kRandomByzantine };

/// A tree-frame injector on 4 sensors of `net`, with the depth bound the
/// placement needs.
std::unique_ptr<Adversary> tree_injector(Network& net, CoordinatorSpec& cfg,
                                         Attack attack) {
  const std::unordered_set<NodeId> malicious =
      choose_malicious(deployment(), 4, 11);
  cfg.depth_bound = deployment().depth(malicious) + 2;
  std::unique_ptr<AdversaryStrategy> strategy;
  if (attack == Attack::kWormhole)
    strategy = std::make_unique<WormholeStrategy>(50);
  else
    strategy = std::make_unique<RandomByzantineStrategy>(22);
  return std::make_unique<Adversary>(&net, malicious, std::move(strategy));
}

/// One recorded execution on a fresh network.
Pin pin_run(const NetworkSpec& spec, Attack attack) {
  Network net(deployment(), spec);
  CoordinatorSpec cfg;
  std::unique_ptr<Adversary> adversary;
  if (attack == Attack::kChoke)
    adversary = choke_adversary(net, cfg);
  else if (attack != Attack::kNone)
    adversary = tree_injector(net, cfg, attack);
  VmatCoordinator coordinator(&net, adversary.get(), cfg);
  FlightRecorder recorder;
  coordinator.set_recorder(&recorder);
  const ExecutionOutcome outcome = coordinator.run_min(readings());
  if (attack == Attack::kChoke) {
    EXPECT_EQ(outcome.kind, OutcomeKind::kRevocation);
    EXPECT_GT(outcome.pinpoint_cost.predicate_tests, 0u);
  }
  return {campaign::outcome_digest(outcome), fold_events(recorder.events()),
          recorder.events().size()};
}

/// Hash a capture's bytes, less the two kinds of record whose padding was
/// indeterminate when the pin was recorded (Snapshot.TwinCapturesAreByteEqual
/// covers them now): the Epoch right after the COOR tag, nonce state and
/// stale flag (still the default epoch in a snapshot_after_formation()
/// capture), and the trailing TraceEvent records of the captured prefix,
/// which fold_events() covers field by field instead.
std::uint64_t hash_snapshot(std::span<const std::uint8_t> bytes,
                            const std::vector<TraceEvent>& prefix) {
  constexpr std::size_t kEpochAt = 4 + 8 + 1;
  const std::size_t events_at =
      bytes.size() - prefix.size() * sizeof(TraceEvent);
  std::uint64_t h = snapshot_mix(fold_events(prefix), bytes.size());
  for (std::size_t i = 0; i < events_at; ++i)
    if (i < kEpochAt || i >= kEpochAt + sizeof(Epoch))
      h = snapshot_mix(h, bytes[i]);
  return h;
}

/// prepare_epoch → run_query → run_min → rearm_epoch (prepare_epoch when
/// it declines) → run_query on a fresh network, recorded throughout.
Pin pin_epoch_path(bool choke) {
  Network net(deployment(), keys());
  CoordinatorSpec cfg;
  const std::unique_ptr<Adversary> adversary =
      choke ? choke_adversary(net, cfg) : nullptr;
  VmatCoordinator coordinator(&net, adversary.get(), cfg);
  FlightRecorder recorder;
  coordinator.set_recorder(&recorder);
  const ValueTable values = testing::one_instance(readings());
  const ValueTable weights(kSensors, 1, 0);

  (void)coordinator.prepare_epoch();
  Pin pin{campaign::outcome_digest(coordinator.run_query(values, weights)),
          campaign::outcome_digest(coordinator.run_min(readings()))};
  const bool rearmed = coordinator.rearm_epoch();
  if (!rearmed) (void)coordinator.prepare_epoch();
  pin.push_back(
      campaign::outcome_digest(coordinator.run_query(values, weights)));
  pin.insert(pin.end(), {rearmed ? 1u : 0u, coordinator.epoch().id,
                         fold_events(recorder.events()),
                         recorder.events().size()});
  return pin;
}

/// One query of every kind over the readings (id · 37) mod 91.
std::vector<EngineQuery> every_kind(std::uint32_t n) {
  std::vector<EngineQuery> batch(6);
  const EngineQueryKind kinds[] = {
      EngineQueryKind::kCount,    EngineQueryKind::kSum,
      EngineQueryKind::kAverage,  EngineQueryKind::kQuantile,
      EngineQueryKind::kMin,      EngineQueryKind::kMax};
  for (std::size_t k = 0; k < batch.size(); ++k) {
    EngineQuery& q = batch[k];
    q.kind = kinds[k];
    q.q = 0.25;
    q.domain_max = 100;
    q.predicate.assign(n, 0);
    q.readings.assign(n, 0);
    q.raw.assign(n, 0);
    for (std::uint32_t id = 1; id < n; ++id) {
      q.readings[id] = (id * 37u) % 91u;
      q.predicate[id] = q.readings[id] >= 40 ? 1 : 0;
      q.raw[id] = 1000 + q.readings[id];
    }
  }
  return batch;
}

/// Two run_batch() calls of every query kind on a serve-shaped tenant, with
/// a one-shot execute() between them that orphans the epoch.
Pin pin_engine() {
  constexpr std::uint32_t kNodes = 36;
  constexpr std::uint32_t kInstances = 16;
  SimulationSpec spec;
  spec.nodes(kNodes).topology(TopologyKind::kGrid).seed(1);
  spec.key_pool(1000, 180).revocation_threshold(1).instances(kInstances);
  Network net(spec);
  VmatCoordinator coordinator(&net, nullptr, spec);
  FlightRecorder recorder;
  coordinator.set_recorder(&recorder);
  Engine engine(&coordinator);

  std::uint64_t results = 0x656e67696e65ULL;  // "engine"
  auto fold_results = [&results](const std::vector<EngineResult>& batch) {
    for (const EngineResult& r : batch) {
      EXPECT_TRUE(r.answered()) << to_string(r.kind);
      results = snapshot_mix(
          results, std::bit_cast<std::uint64_t>(r.estimate.value_or(-1.0)));
      results = snapshot_mix(results, static_cast<std::uint64_t>(r.executions));
      results = snapshot_mix(results, r.epoch_id);
    }
  };
  fold_results(engine.run_batch(every_kind(kNodes)));
  ValueTable values(kNodes, kInstances, kInfinity);
  for (std::uint32_t id = 1; id < kNodes; ++id)
    values.row(id)[id % kInstances] = 500 + id;
  const ExecutionOutcome one_shot =
      coordinator.execute(values, ValueTable(kNodes, kInstances, 0));
  fold_results(engine.run_batch(every_kind(kNodes)));
  const EngineStats& s = engine.stats();
  return {results, campaign::outcome_digest(one_shot), s.rounds, s.executions,
          s.disrupted_executions, s.epochs_formed, s.epochs_rearmed,
          s.queries_answered, s.queries_failed, s.backoff, s.window,
          s.fabric_bytes, fold_events(recorder.events()),
          recorder.events().size()};
}

TEST(BitIdentity, RunsAndSnapshotMatchPinnedDigests) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    const testing::ScopedThreads scoped(threads);
    EXPECT_EQ(pin_run(keys(), Attack::kNone), kClean) << "clean";
    EXPECT_EQ(pin_run(keys(), Attack::kChoke), kChoke) << "choke";
    EXPECT_EQ(pin_run(keys(0.02), Attack::kNone), kLossy) << "lossy";
    EXPECT_EQ(pin_run(keys(), Attack::kWormhole), kWormhole) << "wormhole";
    EXPECT_EQ(pin_run(keys(), Attack::kRandomByzantine), kRandomByzantine)
        << "random byzantine";

    Network net(deployment(), keys());
    VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
    FlightRecorder prefix;  // sees exactly the captured prefix's events
    coordinator.set_recorder(&prefix);
    const Snapshot snapshot = coordinator.snapshot_after_formation();
    EXPECT_EQ(snapshot.size_bytes(), kSnapshotBytes);
    EXPECT_EQ(hash_snapshot(snapshot.data(), prefix.events()), kSnapshot);
  }
}

TEST(BitIdentity, EpochAndEnginePathsMatchPinnedDigests) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    const testing::ScopedThreads scoped(threads);
    EXPECT_EQ(pin_epoch_path(false), kCleanEpoch);
    EXPECT_EQ(pin_epoch_path(true), kChokeEpoch);
    EXPECT_EQ(pin_engine(), kEngine);
  }
}

}  // namespace
}  // namespace vmat
