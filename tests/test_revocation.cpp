// Statistical tests backing the Figure 7 reproduction: ring-overlap
// distributions, the θ threshold trade-off, and θ-driven full-sensor
// revocation during protocol campaigns.
#include <gtest/gtest.h>

#include <cmath>

#include "core/coordinator.h"
#include "helpers.h"
#include "util/random.h"

namespace vmat {
namespace {

using testing::default_readings;
using testing::dense_keys;

TEST(Fig7Stats, MeanRingOverlapMatchesHypergeometric) {
  // E[overlap] = r^2 / u.
  constexpr std::uint32_t kPool = 10000;
  constexpr std::uint32_t kRing = 100;
  const Predistribution pd(200, {.pool_size = kPool, .ring_size = kRing,
                                 .seed = 5});
  double total = 0.0;
  int pairs = 0;
  for (std::uint32_t a = 1; a < 60; ++a)
    for (std::uint32_t b = a + 1; b < 60; ++b) {
      total += static_cast<double>(pd.ring(NodeId{a}).overlap(pd.ring(NodeId{b})));
      ++pairs;
    }
  EXPECT_NEAR(total / pairs, 1.0, 0.2);  // 100*100/10000 = 1
}

TEST(Fig7Stats, SmallThetaMisrevokesLargeThetaDoesNot) {
  // Adversary key set = union of f=5 malicious rings; an honest ring with
  // >= θ overlap is mis-revocable. θ=1 catches many honest sensors; a θ a
  // few standard deviations above the mean overlap catches none.
  constexpr std::uint32_t kPool = 10000;
  constexpr std::uint32_t kRing = 100;
  constexpr std::uint32_t kNodes = 300;
  const Predistribution pd(kNodes, {.pool_size = kPool, .ring_size = kRing,
                                    .seed = 6});
  std::vector<bool> adversary_keys(kPool, false);
  for (std::uint32_t m = 1; m <= 5; ++m)
    for (KeyIndex k : pd.ring(NodeId{m}).indices())
      adversary_keys[k.value] = true;

  auto overlap_with_adversary = [&](NodeId node) {
    std::uint32_t overlap = 0;
    for (KeyIndex k : pd.ring(node).indices())
      if (adversary_keys[k.value]) ++overlap;
    return overlap;
  };

  std::uint32_t misrevoked_theta1 = 0, misrevoked_theta_big = 0;
  for (std::uint32_t id = 6; id < kNodes; ++id) {
    const auto o = overlap_with_adversary(NodeId{id});
    if (o >= 1) ++misrevoked_theta1;
    if (o >= 25) ++misrevoked_theta_big;  // mean ~5, far tail
  }
  EXPECT_GT(misrevoked_theta1, kNodes / 2);
  EXPECT_EQ(misrevoked_theta_big, 0u);
}

TEST(Fig7Stats, LargerAdversaryNeedsLargerTheta) {
  constexpr std::uint32_t kPool = 10000;
  constexpr std::uint32_t kRing = 100;
  const Predistribution pd(400, {.pool_size = kPool, .ring_size = kRing,
                                 .seed = 7});
  auto max_honest_overlap = [&](std::uint32_t f) {
    std::vector<bool> adversary_keys(kPool, false);
    for (std::uint32_t m = 1; m <= f; ++m)
      for (KeyIndex k : pd.ring(NodeId{m}).indices())
        adversary_keys[k.value] = true;
    std::uint32_t worst = 0;
    for (std::uint32_t id = f + 1; id < 400; ++id) {
      std::uint32_t o = 0;
      for (KeyIndex k : pd.ring(NodeId{id}).indices())
        if (adversary_keys[k.value]) ++o;
      worst = std::max(worst, o);
    }
    return worst;
  };
  // More malicious sensors -> larger worst-case honest overlap -> larger
  // θ needed for zero mis-revocation.
  EXPECT_LT(max_honest_overlap(1), max_honest_overlap(16));
}

// Regression for the θ-cascade accounting bug: ring-seed bulk revocations
// said nothing about the *other* holders of those keys, yet they used to
// count toward every holder's θ. With high ring overlap one revoked sensor
// then chain-revoked honest neighbors. Only pinpointed keys — individual
// exposures attributable to the holder — may contribute (Section VI-C).
TEST(ThetaCascade, RingSeedRevocationsDoNotCountTowardOtherSensorsTheta) {
  // pool 50, ring 40: any two rings overlap in ~32 keys, far above θ = 10,
  // so the pre-fix accounting would cascade through the whole deployment.
  const Predistribution pd(6, {.pool_size = 50, .ring_size = 40, .seed = 11});
  RevocationRegistry reg(&pd, /*threshold=*/10);

  const auto newly = reg.revoke_sensor(NodeId{1});
  ASSERT_FALSE(newly.empty());
  EXPECT_EQ(newly.front(), NodeId{1});
  EXPECT_EQ(newly.size(), 1u) << "ring-seed revocation cascaded";
  for (std::uint32_t id = 2; id < 6; ++id) {
    EXPECT_FALSE(reg.is_sensor_revoked(NodeId{id})) << "sensor " << id;
    EXPECT_EQ(reg.revoked_count(NodeId{id}), 0u) << "sensor " << id;
  }
}

TEST(ThetaCascade, PinpointedRevocationsStillCrossTheta) {
  const Predistribution pd(6, {.pool_size = 50, .ring_size = 40, .seed = 11});
  RevocationRegistry reg(&pd, /*threshold=*/10);

  // Individually pinpointed keys are real exposures and must still count:
  // after θ of node 2's keys are revoked one by one, node 2 falls.
  std::uint32_t walked = 0;
  for (KeyIndex k : pd.ring(NodeId{2}).indices()) {
    if (reg.is_sensor_revoked(NodeId{2})) break;
    (void)reg.revoke_key(k);
    ++walked;
  }
  EXPECT_TRUE(reg.is_sensor_revoked(NodeId{2}));
  EXPECT_EQ(walked, 10u) << "cascade should fire exactly at theta";
}

// θ-campaign scaffolding: a junk-injecting attacker placed at a
// high-degree node, under the paper's sparse-key regime (mean pairwise
// ring overlap r²/u = 2). Every execution pinpoints one fresh edge key the
// attacker shares with some honest neighbor, so its exposure accumulates
// across neighbors until θ is crossed — the Section VI-C mechanism.
struct ThetaCampaignResult {
  std::size_t executions;
  bool attacker_ring_revoked;
  std::size_t pinpointed_keys;
  std::size_t honest_revoked;
};

ThetaCampaignResult run_theta_campaign(std::uint32_t theta,
                                       std::uint64_t seed) {
  const auto topo = Topology::random_geometric(40, 0.40, seed);
  // Attack from the highest-degree non-base-station node.
  NodeId attacker{1};
  for (std::uint32_t id = 2; id < topo.node_count(); ++id)
    if (topo.degree(NodeId{id}) > topo.degree(attacker)) attacker = NodeId{id};

  NetworkSpec netcfg;
  netcfg.keys.pool_size = 800;
  netcfg.keys.ring_size = 40;
  netcfg.keys.seed = seed;
  netcfg.revocation_threshold = theta;
  Network net(topo, netcfg);

  const std::unordered_set<NodeId> malicious{attacker};
  campaign::Genome junk = campaign::named_genome(campaign::NamedAttack::kJunk);
  junk.policy.frame_honest_origin = false;
  Adversary adv(&net, malicious, junk.strategy());
  CoordinatorSpec cfg;
  cfg.depth_bound = topo.depth(malicious) + 2;  // slack for sparse keying
  cfg.seed = seed;
  VmatCoordinator coordinator(&net, &adv, cfg);

  const auto readings = default_readings(net.node_count());
  const auto history = testing::until_result(coordinator, readings, 500);

  ThetaCampaignResult result;
  result.executions = history.size();
  result.attacker_ring_revoked = net.revocation().is_sensor_revoked(attacker);
  result.pinpointed_keys = net.revocation().pinpointed_key_count();
  result.honest_revoked = 0;
  for (NodeId s : net.revocation().revoked_sensors_in_order())
    if (!malicious.contains(s)) ++result.honest_revoked;
  return result;
}

TEST(ThetaCampaign, ThresholdFullyRevokesThePersistentAttacker) {
  const auto r = run_theta_campaign(/*theta=*/8, /*seed=*/3);
  EXPECT_TRUE(r.attacker_ring_revoked);
  EXPECT_EQ(r.honest_revoked, 0u);
  // θ-threshold bulk revocation: only ~θ keys needed individual walks.
  EXPECT_LE(r.pinpointed_keys, 12u);
}

TEST(ThetaCampaign, ZeroThetaRequiresMoreExecutions) {
  const auto with_theta = run_theta_campaign(/*theta=*/8, /*seed=*/3);
  const auto without_theta = run_theta_campaign(/*theta=*/0, /*seed=*/3);
  EXPECT_FALSE(without_theta.attacker_ring_revoked);
  EXPECT_EQ(without_theta.honest_revoked, 0u);
  EXPECT_LT(with_theta.executions, without_theta.executions);
}

}  // namespace
}  // namespace vmat
