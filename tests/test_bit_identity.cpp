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
// records whose struct padding is indeterminate (two captures of one
// deployment differ there).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "campaign/runner.h"
#include "helpers.h"
#include "sim/snapshot.h"
#include "spec/attack_spec.h"
#include "trace/trace.h"
#include "util/parallel.h"

namespace vmat {
namespace {

using campaign::named_genome;
using campaign::NamedAttack;

constexpr std::uint32_t kSensors = 4000;

struct RunPin {
  std::uint64_t outcome;
  std::uint64_t events;
  std::uint64_t event_count;
};

constexpr RunPin kClean{11591741589093929726ULL, 6189108916529991057ULL,
                        186361};
constexpr RunPin kChoke{2033210903319224917ULL, 9568597004007417957ULL,
                        349097};
constexpr RunPin kLossy{9467243600887741915ULL, 8888707022840404558ULL,
                        185457};
constexpr std::uint64_t kSnapshot = 11071568750588467936ULL;
constexpr std::uint64_t kSnapshotBytes = 7299939;

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

/// One recorded execution on a fresh network.
RunPin pin_run(const NetworkSpec& spec, bool choke) {
  Network net(deployment(), spec);
  std::unique_ptr<Adversary> adversary;
  CoordinatorSpec cfg;
  if (choke) {
    const campaign::Genome genome = named_genome(NamedAttack::kChoke);
    AttackSpec attack;
    attack.compromised(4).placement_seed(11).policy(genome.policy).when(
        genome.when);
    auto built = attack.build(net);
    EXPECT_TRUE(built.has_value());
    if (!built.has_value()) return {};
    adversary = std::move(built.value());
    cfg.depth_bound = deployment().depth(adversary->malicious()) + 2;
  }
  VmatCoordinator coordinator(&net, adversary.get(), cfg);
  FlightRecorder recorder;
  coordinator.set_recorder(&recorder);
  const ExecutionOutcome outcome = coordinator.run_min(readings());
  if (choke) {
    EXPECT_EQ(outcome.kind, OutcomeKind::kRevocation);
    EXPECT_GT(outcome.pinpoint_cost.predicate_tests, 0u);
  }
  return {campaign::outcome_digest(outcome), fold_events(recorder.events()),
          recorder.events().size()};
}

/// Hash a capture's bytes, less its two kinds of padded record, whose
/// padding bytes are indeterminate: the Epoch right after the COOR tag,
/// nonce state and stale flag (still the default epoch in a
/// snapshot_after_formation() capture), and the trailing TraceEvent
/// records of the captured prefix, which fold_events() covers field by
/// field instead.
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

void expect_pin(const RunPin& got, const RunPin& want, const char* label) {
  EXPECT_EQ(got.outcome, want.outcome) << label;
  EXPECT_EQ(got.events, want.events) << label;
  EXPECT_EQ(got.event_count, want.event_count) << label;
}

TEST(BitIdentity, RunsAndSnapshotMatchPinnedDigests) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    set_intra_execution_threads(threads);
    expect_pin(pin_run(keys(), false), kClean, "clean");
    expect_pin(pin_run(keys(), true), kChoke, "choke");
    expect_pin(pin_run(keys(0.02), false), kLossy, "lossy");

    Network net(deployment(), keys());
    VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
    FlightRecorder prefix;  // sees exactly the captured prefix's events
    coordinator.set_recorder(&prefix);
    const Snapshot snapshot = coordinator.snapshot_after_formation();
    EXPECT_EQ(snapshot.size_bytes(), kSnapshotBytes);
    EXPECT_EQ(hash_snapshot(snapshot.data(), prefix.events()), kSnapshot);
  }
  set_intra_execution_threads(0);
}

}  // namespace
}  // namespace vmat
