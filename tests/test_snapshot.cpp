// Copy-on-write snapshot tests: a fork (snapshot_after_formation +
// resume_min) must be bit-identical to the run_min() that would have run
// the same prefix — same stats, same trace stream, for any thread count —
// and a re-armed epoch must continue the live nonce/ordinal streams. The
// SnapshotParallel suite runs concurrent forks and is picked up by the
// sanitizer CI matrix (ctest -R 'Parallel|ThreadPool|TrialSeed').
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>
#include <unordered_set>
#include <vector>

#include "engine/engine.h"
#include "helpers.h"
#include "sim/snapshot.h"
#include "util/parallel.h"

namespace vmat {
namespace {

using campaign::named_genome;
using campaign::NamedAttack;
using testing::default_readings;
using testing::dense_keys;
using testing::revocations_sound;
using testing::true_min;

void expect_same_outcome(const ExecutionOutcome& a, const ExecutionOutcome& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.trigger, b.trigger);
  EXPECT_EQ(a.minima, b.minima);
  EXPECT_EQ(a.revoked_keys, b.revoked_keys);
  EXPECT_EQ(a.revoked_sensors, b.revoked_sensors);
  EXPECT_EQ(a.data_rounds, b.data_rounds);
  EXPECT_EQ(a.fabric_bytes, b.fabric_bytes);
  EXPECT_TRUE(a.metrics == b.metrics);
}

/// Per-trial readings so forked trials are distinct queries, not reruns.
std::vector<Reading> trial_readings(std::uint32_t n, std::size_t trial) {
  std::vector<Reading> readings(n);
  for (std::uint32_t i = 0; i < n; ++i)
    readings[i] = 100 + static_cast<Reading>((i * 13 + trial * 101) % 500);
  return readings;
}

TEST(Snapshot, ForkMatchesScratchBitIdentical) {
  const auto topo = Topology::grid(6, 6);
  const auto readings = default_readings(36);

  FlightRecorder scratch_rec;
  Network scratch_net(topo, dense_keys());
  VmatCoordinator scratch(&scratch_net, nullptr, CoordinatorSpec{});
  scratch.set_recorder(&scratch_rec);
  const auto want = scratch.run_min(readings);
  ASSERT_EQ(want.kind, OutcomeKind::kResult);
  EXPECT_EQ(want.minima[0], true_min(scratch_net, readings));

  Network fork_net(topo, dense_keys());
  VmatCoordinator forker(&fork_net, nullptr, CoordinatorSpec{});
  const Snapshot snapshot = forker.snapshot_after_formation();
  EXPECT_FALSE(snapshot.empty());
  EXPECT_EQ(snapshot.kind(), SnapshotKind::kExecutionPrefix);
  EXPECT_EQ(snapshot.node_count(), 36u);

  // Attached after the capture, the recorder receives the replayed prefix
  // plus the live query phases: one complete stream, equal to scratch's.
  FlightRecorder fork_rec;
  forker.set_recorder(&fork_rec);
  const auto got = forker.resume_min(snapshot, readings);

  expect_same_outcome(want, got);
  EXPECT_EQ(scratch_rec.events(), fork_rec.events());
}

TEST(Snapshot, RepeatedForksFromOneSnapshotAreIdentical) {
  Network net(Topology::grid(6, 6), dense_keys());
  VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
  const Snapshot snapshot = coordinator.snapshot_after_formation();

  const auto readings = default_readings(36);
  const auto first = coordinator.resume_min(snapshot, readings);
  const auto second = coordinator.resume_min(snapshot, readings);
  expect_same_outcome(first, second);

  // Forks are real per-trial work: a different query reads differently.
  auto other = readings;
  other[3] = 42;
  const auto third = coordinator.resume_min(snapshot, other);
  ASSERT_EQ(third.kind, OutcomeKind::kResult);
  EXPECT_EQ(third.minima[0], 42);
  EXPECT_EQ(first.minima[0], 101);
}

TEST(Snapshot, ForkOnSeparateDeploymentMatches) {
  const auto topo = Topology::grid(6, 6);
  Network net_a(topo, dense_keys());
  VmatCoordinator a(&net_a, nullptr, CoordinatorSpec{});
  const Snapshot snapshot = a.snapshot_after_formation();

  // A compatible twin deployment (same topology/keys/config) restores the
  // buffer captured elsewhere — the fan-out sharing mode.
  Network net_b(topo, dense_keys());
  VmatCoordinator b(&net_b, nullptr, CoordinatorSpec{});

  const auto readings = default_readings(36);
  const auto from_a = a.resume_min(snapshot, readings);
  const auto from_b = b.resume_min(snapshot, readings);
  expect_same_outcome(from_a, from_b);
}

TEST(Snapshot, DivergentStrategiesMatchScratch) {
  const auto topo = Topology::grid(5, 5);
  const std::unordered_set<NodeId> malicious{NodeId{7}, NodeId{12}};
  const auto readings = default_readings(25);

  const NamedAttack attacks[] = {NamedAttack::kSilent, NamedAttack::kDrop,
                                 NamedAttack::kChoke, NamedAttack::kSelfVeto};

  // One snapshot, formed under the factory strategy; every PolicyStrategy
  // shares the honest tree-slot behavior, so the prefix is strategy-blind.
  Network fork_net(topo, dense_keys());
  Adversary factory_adv(&fork_net, malicious,
                        named_genome(NamedAttack::kSilent).strategy());
  VmatCoordinator forker(&fork_net, &factory_adv, CoordinatorSpec{});
  const Snapshot snapshot = forker.snapshot_after_formation();

  for (const NamedAttack attack : attacks) {
    Network scratch_net(topo, dense_keys());
    Adversary scratch_adv(&scratch_net, malicious,
                          named_genome(attack).strategy());
    VmatCoordinator scratch(&scratch_net, &scratch_adv, CoordinatorSpec{});
    const auto want = scratch.run_min(readings);

    Adversary fork_adv(&fork_net, malicious, named_genome(attack).strategy());
    forker.set_adversary(&fork_adv);
    const auto got = forker.resume_min(snapshot, readings);

    expect_same_outcome(want, got);
    if (got.kind == OutcomeKind::kRevocation) {
      EXPECT_TRUE(revocations_sound(fork_net, malicious));
    }
  }
  forker.set_adversary(&factory_adv);
}

TEST(Snapshot, ForkStreamIsThreadCountInvariant) {
  const auto topo = Topology::grid(6, 6);
  const auto readings = default_readings(36);

  Network net(topo, dense_keys());
  VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
  const Snapshot snapshot = coordinator.snapshot_after_formation();

  FlightRecorder recorder;
  coordinator.set_recorder(&recorder);

  std::vector<std::vector<TraceEvent>> streams;
  std::vector<ExecutionOutcome> outcomes;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const testing::ScopedThreads scoped(threads);
    recorder.clear();
    outcomes.push_back(coordinator.resume_min(snapshot, readings));
    streams.push_back(recorder.events());
  }
  coordinator.set_recorder(nullptr);

  expect_same_outcome(outcomes[0], outcomes[1]);
  EXPECT_EQ(streams[0], streams[1]);
}

TEST(Snapshot, ResumeRejectsEmptySnapshot) {
  Network net(Topology::grid(4, 4), dense_keys());
  VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
  EXPECT_THROW((void)coordinator.resume_min(Snapshot{}, default_readings(16)),
               std::invalid_argument);
}

TEST(Snapshot, ResumeRejectsIncompatibleDeployment) {
  const auto topo = Topology::grid(5, 5);
  Network net_a(topo, dense_keys());
  VmatCoordinator a(&net_a, nullptr, CoordinatorSpec{});
  const Snapshot snapshot = a.snapshot_after_formation();

  // Different key-ring seed: same node count, different deployment
  // identity — the fingerprint check must refuse the restore.
  Network net_b(topo, dense_keys(/*theta=*/0, /*seed=*/9999));
  VmatCoordinator b(&net_b, nullptr, CoordinatorSpec{});
  EXPECT_THROW((void)b.resume_min(snapshot, default_readings(25)),
               std::invalid_argument);
}

/// Rewrite the first occurrence of the 4-byte little-endian section tag
/// `from` inside the snapshot buffer to `to`. The Snapshot API is
/// deliberately opaque, so the tamper goes through data()'s span.
void retag_section(const Snapshot& snapshot, std::uint32_t from,
                   std::uint32_t to) {
  const auto view = snapshot.data();
  auto* bytes = const_cast<std::uint8_t*>(view.data());
  std::uint8_t needle[4], replacement[4];
  std::memcpy(needle, &from, 4);
  std::memcpy(replacement, &to, 4);
  for (std::size_t i = 0; i + 4 <= view.size(); ++i) {
    if (std::memcmp(bytes + i, needle, 4) == 0) {
      std::memcpy(bytes + i, replacement, 4);
      return;
    }
  }
  FAIL() << "section tag not found in snapshot buffer";
}

TEST(Snapshot, ResumeRejectsPreDietSectionLayout) {
  // The memory diet changed the tree and audit section encodings (CSR
  // offsets + pooled chains) and renamed their tags TREE→TRE2, AUDT→AUD2.
  // A snapshot carrying a pre-diet tag must be refused as layout skew, not
  // misparsed: forward compatibility here is a clean error.
  constexpr std::uint32_t kTre2 = 0x54524532;  // "TRE2" (current)
  constexpr std::uint32_t kTree = 0x54524545;  // "TREE" (pre-diet)
  constexpr std::uint32_t kAud2 = 0x41554432;  // "AUD2" (current)
  constexpr std::uint32_t kAudt = 0x41554454;  // "AUDT" (pre-diet)

  Network net(Topology::grid(5, 5), dense_keys());
  VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
  const auto readings = default_readings(25);

  Snapshot stale_tree = coordinator.snapshot_after_formation();
  retag_section(stale_tree, kTre2, kTree);
  EXPECT_THROW((void)coordinator.resume_min(stale_tree, readings),
               std::invalid_argument);

  Snapshot stale_audit = coordinator.snapshot_after_formation();
  retag_section(stale_audit, kAud2, kAudt);
  EXPECT_THROW((void)coordinator.resume_min(stale_audit, readings),
               std::invalid_argument);

  // The untampered twin still resumes — the rejections above are the tag
  // checks firing, not collateral corruption.
  const Snapshot good = coordinator.snapshot_after_formation();
  EXPECT_EQ(coordinator.resume_min(good, readings).kind,
            OutcomeKind::kResult);
}

TEST(Snapshot, RestoreRejectsStaleKeyMaterial) {
  Network net(Topology::grid(5, 5), dense_keys());
  VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
  const Snapshot snapshot = coordinator.snapshot_after_formation();

  // Re-keying with the *same* spec keeps the fingerprint but bumps the
  // key generation: the captured state references retired key material.
  net.rekey(dense_keys().keys);
  EXPECT_THROW((void)coordinator.resume_min(snapshot, default_readings(25)),
               std::invalid_argument);
}

/// One edge-key slot as a Network image stores it: {key index, stamp}.
struct SlotImage {
  std::uint32_t key;
  std::uint32_t stamp;
  friend bool operator==(const SlotImage&, const SlotImage&) = default;
};

/// The network's edge-key slot table, read back from its snapshot image
/// (NETW section: tag, key generation, then the slot vector).
std::vector<SlotImage> edge_slot_table(const Network& net) {
  SnapshotWriter w;
  net.snapshot_save(w);
  const Bytes image = w.take();
  SnapshotReader r(image);
  r.section(0x4e455457);  // "NETW"
  (void)r.pod<std::uint64_t>();
  std::vector<SlotImage> slots;
  r.vec_pod(slots);
  return slots;
}

/// Revoke the current edge key of a few grid edges, in a fixed order.
void burn_edge_keys(Network& net, std::initializer_list<std::uint32_t> from) {
  for (const std::uint32_t id : from) {
    const NodeId a{id};
    const NodeId b = net.topology().neighbors(a).front();
    if (const auto key = net.usable_edge_key(a, b))
      (void)net.revocation().revoke_key(*key);
  }
}

TEST(Snapshot, RestoredWarmEdgeKeyTableMatchesFreshTwin) {
  // Capture a fully warm table after some revocations, run on, restore:
  // the table and every directed edge's key must equal a freshly warmed
  // twin under the same registry.
  const Topology topo = Topology::grid(6, 6);
  Network net(topo, dense_keys());
  net.warm_crypto_caches();
  burn_edge_keys(net, {0, 7, 14, 21});
  net.warm_crypto_caches();
  SnapshotWriter w;
  net.snapshot_save(w);
  const Bytes image = w.take();

  burn_edge_keys(net, {1, 8, 15});  // diverge after the capture
  (void)net.revocation().revoke_sensor(NodeId{30});
  net.warm_crypto_caches();
  SnapshotReader r(image);
  net.snapshot_load(r);

  Network twin(topo, dense_keys());
  burn_edge_keys(twin, {0, 7, 14, 21});
  twin.warm_crypto_caches();
  ASSERT_EQ(net.revocation().revoked_key_count(),
            twin.revocation().revoked_key_count());
  EXPECT_EQ(edge_slot_table(net), edge_slot_table(twin));
  net.warm_crypto_caches();
  EXPECT_EQ(edge_slot_table(net), edge_slot_table(twin));
  for (std::uint32_t id = 0; id < topo.node_count(); ++id)
    for (const NodeId v : topo.neighbors(NodeId{id}))
      EXPECT_EQ(net.usable_edge_key(NodeId{id}, v),
                twin.usable_edge_key(NodeId{id}, v))
          << id << "->" << v.value;
}

TEST(Snapshot, StaleStampedEdgeKeyTableIsWarmedAgain) {
  // A table captured after a revocation but before the next warm holds
  // stale stamps. Restoring it over a warm live table must not pass it
  // off as warm: the next warm_crypto_caches() re-stamps every slot.
  const Topology topo = Topology::grid(6, 6);
  Network net(topo, dense_keys());
  net.warm_crypto_caches();
  burn_edge_keys(net, {0});
  (void)net.usable_edge_key(NodeId{5}, NodeId{4});  // one slot re-stamped
  SnapshotWriter w;
  net.snapshot_save(w);
  const Bytes image = w.take();
  net.warm_crypto_caches();

  SnapshotReader r(image);
  net.snapshot_load(r);
  net.warm_crypto_caches();
  const auto stamp =
      static_cast<std::uint32_t>(net.revocation().revoked_key_count()) + 1;
  const std::vector<SlotImage> slots = edge_slot_table(net);
  ASSERT_FALSE(slots.empty());
  for (const SlotImage& slot : slots) EXPECT_EQ(slot.stamp, stamp);

  Network twin(topo, dense_keys());
  burn_edge_keys(twin, {0});
  twin.warm_crypto_caches();
  EXPECT_EQ(slots, edge_slot_table(twin));
}

TEST(Snapshot, TwinCapturesAreByteEqual) {
  // Snapshot records carry no padding bytes, so equal states capture equal
  // bytes: the prefix trace events (TRAC), the coordinator's epoch (COOR),
  // and — after a pinpointing execution — SOF records (AUD2) and registry
  // events (REVO).
  const auto topo = Topology::grid(6, 6);
  const auto malicious = choose_malicious(topo, 2, 17);
  auto capture = [&topo, &malicious](bool pinpoint) {
    Network net(topo, dense_keys());
    Adversary adv(&net, malicious,
                  named_genome(NamedAttack::kChoke).strategy());
    CoordinatorSpec cfg;
    cfg.depth_bound = topo.depth(malicious);
    VmatCoordinator coordinator(&net, &adv, cfg);
    (void)coordinator.prepare_epoch();
    if (pinpoint) (void)coordinator.run_min(default_readings(36));
    EXPECT_EQ(net.revocation().events().empty(), !pinpoint);
    const Snapshot snapshot = coordinator.snapshot_after_formation();
    return Bytes(snapshot.data().begin(), snapshot.data().end());
  };
  for (const bool pinpoint : {false, true}) {
    const Bytes a = capture(pinpoint);
    const Bytes b = capture(pinpoint);
    ASSERT_EQ(a.size(), b.size());
    // The offset of the first differing byte; a.size() when none differs.
    EXPECT_EQ(std::ranges::mismatch(a, b).in1 - a.begin(), std::ssize(a))
        << pinpoint;
  }
}

TEST(Snapshot, RearmContinuesEpochOrdinalsAndResults) {
  const std::uint32_t n = 25;
  Network net(Topology::grid(5, 5), dense_keys());
  VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
  FlightRecorder recorder;
  coordinator.set_recorder(&recorder);

  const auto readings = default_readings(n);
  const ValueTable values = testing::one_instance(readings);
  const ValueTable weights(n, 1, 0);

  (void)coordinator.prepare_epoch();
  const auto served = coordinator.run_query(values, weights);
  ASSERT_EQ(served.kind, OutcomeKind::kResult);

  // An intervening one-shot execution stales the epoch without touching
  // revocations — exactly the case re-arming exists for.
  const auto one_shot = coordinator.run_min(readings);
  ASSERT_EQ(one_shot.kind, OutcomeKind::kResult);
  ASSERT_FALSE(coordinator.epoch_ready());

  ASSERT_TRUE(coordinator.rearm_epoch());
  EXPECT_TRUE(coordinator.epoch_ready());
  EXPECT_EQ(coordinator.epoch().id, 2u);

  const auto reserved = coordinator.run_query(values, weights);
  ASSERT_EQ(reserved.kind, OutcomeKind::kResult);
  EXPECT_EQ(reserved.minima, served.minima);
  coordinator.set_recorder(nullptr);

  // The replayed kEpochBegin continues the live epoch ordinal stream
  // (0 for the formed epoch, 1 for the re-armed one) — no rewinds.
  std::vector<std::int64_t> epoch_ordinals;
  for (const TraceEvent& e : recorder.events())
    if (e.kind == TraceEventKind::kEpochBegin) epoch_ordinals.push_back(e.value);
  EXPECT_EQ(epoch_ordinals, (std::vector<std::int64_t>{0, 1}));
}

TEST(Snapshot, EngineRearmsStaleEpochWithoutRevocation) {
  Network net(Topology::grid(6, 6), dense_keys());
  VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
  Engine engine(&coordinator);

  EngineQuery query;
  query.kind = EngineQueryKind::kMin;
  query.raw = default_readings(36);

  const auto first = engine.run_batch({query});
  ASSERT_EQ(first.size(), 1u);
  ASSERT_TRUE(first[0].answered());
  EXPECT_EQ(first[0].estimate.value(), 101.0);
  EXPECT_EQ(engine.stats().epochs_formed, 1u);
  EXPECT_EQ(engine.stats().epochs_rearmed, 0u);

  // Stale the epoch (one-shot execution between serving rounds), then
  // serve again: the engine re-arms from the epoch snapshot instead of
  // paying another announcement + tree formation.
  const auto one_shot = coordinator.run_min(default_readings(36));
  ASSERT_EQ(one_shot.kind, OutcomeKind::kResult);

  const auto second = engine.run_batch({query});
  ASSERT_EQ(second.size(), 1u);
  ASSERT_TRUE(second[0].answered());
  EXPECT_EQ(second[0].estimate.value(), 101.0);
  EXPECT_EQ(engine.stats().epochs_formed, 1u);
  EXPECT_EQ(engine.stats().epochs_rearmed, 1u);

  const auto& rollups = engine.epoch_rollups();
  ASSERT_EQ(rollups.size(), 2u);
  EXPECT_FALSE(rollups[0].rearmed);
  EXPECT_TRUE(rollups[1].rearmed);
  EXPECT_EQ(rollups[1].formation_rounds, 0);
  EXPECT_EQ(rollups[1].formation_bytes, 0u);
}

TEST(Snapshot, EngineReformsAfterRevocation) {
  Network net(Topology::grid(6, 6), dense_keys());
  VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
  Engine engine(&coordinator);

  EngineQuery query;
  query.kind = EngineQueryKind::kMin;
  query.raw = default_readings(36);

  (void)engine.run_batch({query});
  ASSERT_EQ(engine.stats().epochs_formed, 1u);

  // A revocation invalidates the formed tree: re-arming must refuse (the
  // snapshot references a pre-revocation membership) and the engine falls
  // back to a full prepare_epoch().
  (void)net.revocation().revoke_sensor(NodeId{5});
  EXPECT_FALSE(coordinator.epoch_ready());
  EXPECT_FALSE(coordinator.rearm_epoch());

  const auto after = engine.run_batch({query});
  ASSERT_EQ(after.size(), 1u);
  ASSERT_TRUE(after[0].answered());
  EXPECT_EQ(after[0].estimate.value(), 101.0);
  EXPECT_EQ(engine.stats().epochs_formed, 2u);
  EXPECT_EQ(engine.stats().epochs_rearmed, 0u);
  ASSERT_EQ(engine.epoch_rollups().size(), 2u);
  EXPECT_FALSE(engine.epoch_rollups()[1].rearmed);
}

// Named for the sanitizer CI matrix: `ctest -R 'Parallel|ThreadPool|...'`
// runs this suite under -DVMAT_SANITIZE=thread.
TEST(SnapshotParallel, ConcurrentForksAreIsolated) {
  const auto topo = Topology::grid(6, 6);
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kTrialsPerWorker = 3;

  // Scratch expectations, computed serially.
  std::vector<ExecutionOutcome> want(kWorkers * kTrialsPerWorker);
  for (std::size_t trial = 0; trial < want.size(); ++trial) {
    Network net(topo, dense_keys());
    VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
    want[trial] = coordinator.run_min(trial_readings(36, trial));
  }

  // One shared snapshot; each worker forks it on a private deployment.
  Network capture_net(topo, dense_keys());
  VmatCoordinator capturer(&capture_net, nullptr, CoordinatorSpec{});
  const Snapshot snapshot = capturer.snapshot_after_formation();

  std::vector<ExecutionOutcome> got(want.size());
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      Network net(topo, dense_keys());
      VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
      for (std::size_t i = 0; i < kTrialsPerWorker; ++i) {
        const std::size_t trial = w * kTrialsPerWorker + i;
        got[trial] = coordinator.resume_min(snapshot, trial_readings(36, trial));
      }
    });
  }
  for (auto& worker : workers) worker.join();

  for (std::size_t trial = 0; trial < want.size(); ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_same_outcome(want[trial], got[trial]);
  }
}

// Runtime twin of the vmat-analyze `snapshot-field-coverage` rule (see
// tools/fixtures/analyze/snapshot_coverage_bad.cpp for the static fixture):
// a serializer that omits a mutable field silently resurrects post-capture
// state on restore. The drifting pair shows the corruption the rule exists
// to catch; the covered pair shows the fix restoring bit-exact state.
struct DriftingTally {
  std::uint64_t applied{0};
  std::uint64_t dropped{0};

  // The buggy pair: `dropped` never enters the buffer.
  void save_drifting(SnapshotWriter& w) const { w.pod(applied); }
  void load_drifting(SnapshotReader& r) { r.pod(applied); }

  // The covered pair: every mutable field round-trips.
  void save_covered(SnapshotWriter& w) const {
    w.pod(applied);
    w.pod(dropped);
  }
  void load_covered(SnapshotReader& r) {
    r.pod(applied);
    r.pod(dropped);
  }
};

TEST(Snapshot, OmittedFieldDriftsAcrossRestore) {
  DriftingTally tally;
  tally.applied = 3;
  tally.dropped = 7;

  SnapshotWriter w;
  tally.save_drifting(w);
  const Bytes image = w.take();

  // Post-capture mutation that a restore must undo.
  tally.applied = 100;
  tally.dropped = 100;

  SnapshotReader r(image);
  tally.load_drifting(r);
  EXPECT_TRUE(r.exhausted());

  EXPECT_EQ(tally.applied, 3u);    // serialized: restored to capture time
  EXPECT_EQ(tally.dropped, 100u);  // omitted: post-capture value leaks through
  EXPECT_NE(tally.dropped, 7u);    // the restored object != the captured one
}

TEST(Snapshot, CoveredFieldsRestoreBitExact) {
  DriftingTally tally;
  tally.applied = 3;
  tally.dropped = 7;

  SnapshotWriter w;
  tally.save_covered(w);
  const Bytes image = w.take();

  tally.applied = 100;
  tally.dropped = 100;

  SnapshotReader r(image);
  tally.load_covered(r);
  EXPECT_TRUE(r.exhausted());

  EXPECT_EQ(tally.applied, 3u);
  EXPECT_EQ(tally.dropped, 7u);
}

}  // namespace
}  // namespace vmat
