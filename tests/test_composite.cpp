// Multi-front and fuzzing adversary tests: one genome attacking aggregation,
// confirmation and predicate tests at once keeps the Theorem 7 disjunction;
// pure garbage never perturbs results or triggers revocation of anything.
// The tree-formation front is covered by the RandomByzantine sweeps
// (test_properties.cpp) and the Garbage tests here.
#include <gtest/gtest.h>

#include "core/coordinator.h"
#include "helpers.h"

namespace vmat {
namespace {

using campaign::named_genome;
using campaign::NamedAttack;
using testing::default_readings;
using testing::dense_keys;
using testing::revocations_sound;
using testing::true_min;

TEST(Garbage, PureNoiseChangesNothing) {
  const auto topo = Topology::grid(5, 5);
  const auto malicious = choose_malicious(topo, 3, 5);
  Network net(topo, dense_keys());
  Adversary adv(&net, malicious, std::make_unique<GarbageStrategy>(42));
  CoordinatorSpec cfg;
  cfg.depth_bound = topo.depth(malicious);
  VmatCoordinator coordinator(&net, &adv, cfg);
  const auto readings = default_readings(net.node_count());
  const auto out = coordinator.run_min(readings);
  // Malformed frames are dropped at decode; the query completes as if the
  // adversary were silent-but-honest-in-tree... except garbage nodes do
  // not even forward, so the only possible outcome change is a routed-
  // around minimum. Both outcomes must stay sound.
  if (out.kind == OutcomeKind::kResult)
    EXPECT_LE(out.minima[0], true_min(net, readings, malicious));
  else
    EXPECT_TRUE(revocations_sound(net, malicious)) << out.reason;
}

TEST(Garbage, NoiseDoesNotBreakSynopsisQueries) {
  const auto topo = Topology::grid(5, 5);
  const auto malicious = choose_malicious(topo, 2, 6);
  Network net(topo, dense_keys());
  Adversary adv(&net, malicious, std::make_unique<GarbageStrategy>(43));
  CoordinatorSpec cfg;
  cfg.instances = 40;
  cfg.depth_bound = topo.depth(malicious);
  VmatCoordinator coordinator(&net, &adv, cfg);
  Engine engine(&coordinator);
  std::vector<std::uint8_t> predicate(25, 1);
  predicate[0] = 0;
  // Retries allowed (a dropped-by-absence minimum may veto), but it must
  // converge and stay sound.
  const auto out =
      engine.run_batch({testing::count_query(predicate, 200)}).front();
  ASSERT_TRUE(out.answered());
  EXPECT_TRUE(revocations_sound(net, malicious));
}

/// Compromised sensors that never transmit, not even in tree formation, and
/// deny every predicate test.
struct SilentEverywhere final : AdversaryStrategy {};

TEST(Composite, DropPlusChokePlusAdmitLies) {
  const auto topo = Topology::grid(5, 5);
  const auto malicious = choose_malicious(topo, 3, 7);
  Network net(topo, dense_keys());
  // Forward the maximum in every aggregation slot, choke SOF slot 1, and
  // admit every predicate test.
  campaign::Genome genome =
      named_genome(NamedAttack::kChoke, LiePolicy::kAdmitAll);
  genome.policy.agg = campaign::AggAction::kForwardMax;
  genome.when = campaign::AttackPredicate::phase_is(TracePhase::kAggregation) ||
                genome.when;
  Adversary adv(&net, malicious, genome.strategy());
  CoordinatorSpec cfg;
  cfg.depth_bound = topo.depth(malicious);
  VmatCoordinator coordinator(&net, &adv, cfg);

  const auto readings = default_readings(net.node_count());
  const auto history = testing::until_result(coordinator, readings, 400);
  EXPECT_TRUE(history.back().produced_result());
  EXPECT_LE(history.back().minima[0], true_min(net, readings, malicious));
  EXPECT_TRUE(revocations_sound(net, malicious));
}

TEST(Composite, FullySilentAdversaryStaysSound) {
  const auto topo = Topology::grid(4, 4);
  const auto malicious = choose_malicious(topo, 2, 8);
  Network net(topo, dense_keys());
  Adversary adv(&net, malicious, std::make_unique<SilentEverywhere>());
  CoordinatorSpec cfg;
  cfg.depth_bound = topo.depth(malicious);
  VmatCoordinator coordinator(&net, &adv, cfg);
  const auto readings = default_readings(net.node_count());
  const auto out = coordinator.run_min(readings);
  // Fully silent malicious nodes: either the tree routed around them (a
  // correct result over honest sensors) or a veto walk revoked something.
  if (out.kind == OutcomeKind::kResult)
    EXPECT_LE(out.minima[0], true_min(net, readings, malicious));
  else
    EXPECT_TRUE(revocations_sound(net, malicious)) << out.reason;
}

TEST(Composite, CompositeSweepAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto topo = Topology::grid(5, 5);
    const auto malicious = choose_malicious(topo, 2, seed + 20);
    Network net(topo, dense_keys(0, seed));
    // Drop everything, veto a hidden reading of 1 with a valid MAC, and
    // answer predicate tests at random.
    Adversary adv(&net, malicious,
                  named_genome(NamedAttack::kSelfVeto, LiePolicy::kRandom)
                      .strategy());
    CoordinatorSpec cfg;
    cfg.depth_bound = topo.depth(malicious);
    cfg.seed = seed;
    VmatCoordinator coordinator(&net, &adv, cfg);
    const auto history = testing::until_result(
        coordinator, default_readings(net.node_count()), 400);
    EXPECT_TRUE(history.back().produced_result()) << "seed " << seed;
    EXPECT_TRUE(revocations_sound(net, malicious)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace vmat
