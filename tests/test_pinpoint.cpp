// Pinpointing/revocation tests (Lemmas 4-6): every walk ends by revoking
// key material the adversary provably holds, honest sensors are never
// revoked, and the walks stay sound against stonewalling, admit-all
// framing, and inconsistent answers.
#include <gtest/gtest.h>

#include <cmath>

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

/// Path A 0-1-2-3-4 (node 2 will be malicious) plus detour B 0-5-6-7-8-4:
/// the minimum at node 4 is tree-routed through node 2, while the honest
/// subgraph stays connected through the detour.
Topology forced_drop_topology() {
  Topology t(9);
  t.add_edge(NodeId{0}, NodeId{1});
  t.add_edge(NodeId{1}, NodeId{2});
  t.add_edge(NodeId{2}, NodeId{3});
  t.add_edge(NodeId{3}, NodeId{4});
  t.add_edge(NodeId{0}, NodeId{5});
  t.add_edge(NodeId{5}, NodeId{6});
  t.add_edge(NodeId{6}, NodeId{7});
  t.add_edge(NodeId{7}, NodeId{8});
  t.add_edge(NodeId{8}, NodeId{4});
  return t;
}

struct Scenario {
  Scenario(Topology topo, std::unordered_set<NodeId> malicious,
           std::unique_ptr<AdversaryStrategy> strategy,
           std::uint64_t seed = 100)
      : net(std::move(topo), dense_keys(/*theta=*/0, seed)),
        malicious_set(malicious),
        adv(&net, std::move(malicious), std::move(strategy)) {
    cfg.depth_bound = net.topology().depth(malicious_set);
    cfg.seed = seed;
    coordinator = std::make_unique<VmatCoordinator>(&net, &adv, cfg);
  }

  Network net;
  std::unordered_set<NodeId> malicious_set;
  Adversary adv;
  CoordinatorSpec cfg;
  std::unique_ptr<VmatCoordinator> coordinator;
};

std::vector<Reading> forced_drop_readings() {
  auto readings = default_readings(9);
  readings[4] = 1;  // the vetoer behind the malicious node
  return readings;
}

TEST(Pinpoint, SilentDropIsRevokedViaVetoWalk) {
  Scenario s(forced_drop_topology(), {NodeId{2}},
             named_genome(NamedAttack::kSilent).strategy());
  const auto out = s.coordinator->run_min(forced_drop_readings());
  ASSERT_EQ(out.kind, OutcomeKind::kRevocation);
  EXPECT_EQ(out.trigger, Trigger::kVeto);
  EXPECT_FALSE(out.revoked_keys.empty());
  EXPECT_TRUE(revocations_sound(s.net, s.malicious_set)) << out.reason;
}

TEST(Pinpoint, AdmitAllDraggingStillEndsInSoundRevocation) {
  Scenario s(forced_drop_topology(), {NodeId{2}},
             named_genome(NamedAttack::kSilent, LiePolicy::kAdmitAll)
                 .strategy());
  const auto out = s.coordinator->run_min(forced_drop_readings());
  ASSERT_EQ(out.kind, OutcomeKind::kRevocation);
  EXPECT_TRUE(!out.revoked_keys.empty() || !out.revoked_sensors.empty())
      << "walk must revoke something";
  EXPECT_TRUE(revocations_sound(s.net, s.malicious_set)) << out.reason;
}

TEST(Pinpoint, RandomAnswersStillEndInSoundRevocation) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Scenario s(forced_drop_topology(), {NodeId{2}},
               named_genome(NamedAttack::kSilent, LiePolicy::kRandom)
                   .strategy(),
               1000 + seed);
    const auto out = s.coordinator->run_min(forced_drop_readings());
    ASSERT_EQ(out.kind, OutcomeKind::kRevocation) << "seed " << seed;
    EXPECT_TRUE(revocations_sound(s.net, s.malicious_set))
        << "seed " << seed << ": " << out.reason;
  }
}

TEST(Pinpoint, ValueDropPinpointedToo) {
  Scenario s(forced_drop_topology(), {NodeId{2}},
             named_genome(NamedAttack::kDrop).strategy());
  const auto out = s.coordinator->run_min(forced_drop_readings());
  ASSERT_EQ(out.kind, OutcomeKind::kRevocation);
  EXPECT_EQ(out.trigger, Trigger::kVeto);
  EXPECT_TRUE(revocations_sound(s.net, s.malicious_set)) << out.reason;
}

TEST(Pinpoint, JunkInjectionTriggersJunkWalk) {
  const auto topo = Topology::grid(4, 4);
  const auto malicious = choose_malicious(topo, 2, 7);
  Scenario s(topo, malicious,
             named_genome(NamedAttack::kJunk).strategy());
  const auto out = s.coordinator->run_min(default_readings(16));
  ASSERT_EQ(out.kind, OutcomeKind::kRevocation);
  EXPECT_EQ(out.trigger, Trigger::kJunkAggregation);
  EXPECT_TRUE(revocations_sound(s.net, s.malicious_set)) << out.reason;
}

TEST(Pinpoint, JunkInjectionWithFramingDoesNotHurtTheFramed) {
  const auto topo = Topology::grid(4, 4);
  const auto malicious = choose_malicious(topo, 2, 8);
  Scenario s(topo, malicious,
             named_genome(NamedAttack::kJunk, LiePolicy::kAdmitAll).strategy());
  const auto out = s.coordinator->run_min(default_readings(16));
  ASSERT_EQ(out.kind, OutcomeKind::kRevocation);
  EXPECT_TRUE(revocations_sound(s.net, s.malicious_set)) << out.reason;
}

TEST(Pinpoint, ChokingAttackTriggersJunkConfirmationWalk) {
  Scenario s(forced_drop_topology(), {NodeId{2}},
             named_genome(NamedAttack::kChoke).strategy());
  const auto out = s.coordinator->run_min(forced_drop_readings());
  ASSERT_EQ(out.kind, OutcomeKind::kRevocation);
  EXPECT_EQ(out.trigger, Trigger::kJunkConfirmation);
  EXPECT_TRUE(revocations_sound(s.net, s.malicious_set)) << out.reason;
}

TEST(Pinpoint, ValidSelfVetoFromMaliciousSensorIsWalkedSoundly) {
  const auto topo = Topology::grid(4, 4);
  const auto malicious = choose_malicious(topo, 1, 9);
  Scenario s(topo, malicious,
             named_genome(NamedAttack::kSelfVeto).strategy());
  const auto out = s.coordinator->run_min(default_readings(16));
  ASSERT_EQ(out.kind, OutcomeKind::kRevocation);
  EXPECT_EQ(out.trigger, Trigger::kVeto);
  EXPECT_TRUE(revocations_sound(s.net, s.malicious_set)) << out.reason;
}

TEST(Pinpoint, HonestSensorsNeverRevokedAcrossManyRuns) {
  // Repeat executions against the dropper until it is fully neutralized;
  // no honest key material may ever be revoked.
  Scenario s(forced_drop_topology(), {NodeId{2}},
             named_genome(NamedAttack::kSilent).strategy());
  const auto readings = forced_drop_readings();
  const auto history = testing::until_result(*s.coordinator, readings);
  ASSERT_GE(history.size(), 2u);  // at least one revocation, then a result
  EXPECT_TRUE(history.back().produced_result());
  EXPECT_TRUE(revocations_sound(s.net, s.malicious_set));
  for (std::size_t i = 0; i + 1 < history.size(); ++i)
    EXPECT_TRUE(history[i].revoked_keys.size() +
                    history[i].revoked_sensors.size() >
                0)
        << "execution " << i << " neither produced nor revoked";
}

TEST(Pinpoint, ResultAfterRecoveryIsCorrect) {
  Scenario s(forced_drop_topology(), {NodeId{2}},
             named_genome(NamedAttack::kSilent).strategy());
  const auto readings = forced_drop_readings();
  const auto history = testing::until_result(*s.coordinator, readings);
  // The final result includes node 4's reading: it was never revoked and
  // the network routes around the neutralized dropper.
  EXPECT_EQ(history.back().minima[0],
            true_min(s.net, readings, s.malicious_set));
}

TEST(Pinpoint, MessageLevelPredicateModeGivesSameOutcome) {
  // Run the same drop scenario with the full fabric-level predicate-test
  // flood instead of the reachability collapse: identical revocations.
  auto run_with = [&](PredicateTestMode mode) {
    Scenario s(forced_drop_topology(), {NodeId{2}},
               named_genome(NamedAttack::kSilent).strategy());
    CoordinatorSpec cfg = s.cfg;
    cfg.predicate_mode = mode;
    VmatCoordinator coordinator(&s.net, &s.adv, cfg);
    return coordinator.run_min(forced_drop_readings());
  };
  const auto fast = run_with(PredicateTestMode::kReachability);
  const auto full = run_with(PredicateTestMode::kMessageLevel);
  ASSERT_EQ(fast.kind, OutcomeKind::kRevocation);
  ASSERT_EQ(full.kind, OutcomeKind::kRevocation);
  EXPECT_EQ(fast.trigger, full.trigger);
  EXPECT_EQ(fast.revoked_keys, full.revoked_keys);
  EXPECT_EQ(fast.reason, full.reason);
}

TEST(Pinpoint, CostStaysWithinTheoremSixBounds) {
  Scenario s(forced_drop_topology(), {NodeId{2}},
             named_genome(NamedAttack::kSilent).strategy());
  const auto out = s.coordinator->run_min(forced_drop_readings());
  ASSERT_EQ(out.kind, OutcomeKind::kRevocation);
  // O(L log n) predicate tests: L+1 walk steps, each O(log r + log n)
  // tests; generous constant-factor ceiling.
  const int L = s.coordinator->effective_depth_bound();
  const double bound =
      12.0 * (L + 2) *
      (std::log2(static_cast<double>(s.net.keys().config().pool_size)) + 4);
  EXPECT_LE(out.pinpoint_cost.predicate_tests, bound);
  EXPECT_GE(out.pinpoint_cost.predicate_tests, 1);
}

}  // namespace
}  // namespace vmat
