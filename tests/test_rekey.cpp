// Re-keying epoch tests: fresh key material restores honest capacity,
// fully-revoked sensors stay out, and the adversary's old keys are
// worthless afterwards.
#include <gtest/gtest.h>

#include "core/coordinator.h"
#include "helpers.h"

namespace vmat {
namespace {

using campaign::named_genome;
using campaign::NamedAttack;
using testing::default_readings;
using testing::dense_keys;
using testing::true_min;

TEST(Rekey, FreshMaterialClearsBurnedEdgeKeys) {
  Network net(Topology::grid(5, 5), dense_keys(0, 1));
  // Burn a few edge keys as pinpointing would.
  const auto first = net.usable_edge_key(NodeId{1}, NodeId{2});
  ASSERT_TRUE(first.has_value());
  (void)net.revocation().revoke_key(*first);
  EXPECT_EQ(net.revocation().revoked_key_count(), 1u);

  KeyMaterialSpec fresh = dense_keys(0, 99).keys;
  EXPECT_EQ(net.rekey(fresh), 0u);
  EXPECT_EQ(net.revocation().revoked_key_count(), 0u);
  EXPECT_EQ(net.keys().config().seed, fresh.seed);
  // The pair has a usable key again (fresh rings).
  EXPECT_TRUE(net.usable_edge_key(NodeId{1}, NodeId{2}).has_value());
}

TEST(Rekey, RevokedSensorsStayRevoked) {
  Network net(Topology::grid(5, 5), dense_keys(0, 2));
  (void)net.revocation().revoke_sensor(NodeId{7});
  const auto carried = net.rekey(dense_keys(0, 100).keys);
  EXPECT_EQ(carried, 1u);
  EXPECT_TRUE(net.revocation().is_sensor_revoked(NodeId{7}));
  // Its fresh ring keys are revoked too: neighbors ignore its frames.
  for (KeyIndex k : net.keys().ring(NodeId{7}).indices())
    EXPECT_TRUE(net.revocation().is_key_revoked(k));
}

TEST(Rekey, ThresholdSurvivesRekey) {
  NetworkSpec cfg = dense_keys(0, 3);
  cfg.revocation_threshold = 42;
  Network net(Topology::grid(4, 4), cfg);
  (void)net.rekey(dense_keys(0, 101).keys);
  EXPECT_EQ(net.revocation().threshold(), 42u);
}

TEST(Rekey, ProtocolRunsCleanAfterEpoch) {
  // Grind an attacker down, ring-revoke it, rekey, and verify the next
  // query is clean and correct with the attacker still excluded.
  const auto topo = Topology::grid(5, 5);
  const auto malicious = choose_malicious(topo, 1, 4);
  NetworkSpec cfg = dense_keys(0, 4);
  Network net(topo, cfg);
  Adversary adv(&net, malicious,
                named_genome(NamedAttack::kSilent).strategy());
  CoordinatorSpec vcfg;
  vcfg.depth_bound = topo.depth(malicious);
  VmatCoordinator coordinator(&net, &adv, vcfg);
  const auto readings = default_readings(25);
  (void)testing::until_result(coordinator, readings, 400);
  // Administrative decision: fully revoke the attacker, then re-key.
  for (NodeId m : malicious) (void)net.revocation().revoke_sensor(m);
  (void)net.rekey(dense_keys(0, 500).keys);

  const auto out = coordinator.run_min(readings);
  ASSERT_EQ(out.kind, OutcomeKind::kResult);
  EXPECT_EQ(out.minima[0], true_min(net, readings, malicious));
  // The attacker's old key material buys it nothing: its fresh ring is
  // dead and it cannot inject anything its neighbors would accept.
  for (NodeId m : malicious)
    for (NodeId v : topo.neighbors(m))
      EXPECT_FALSE(net.usable_edge_key(m, v).has_value());
}

}  // namespace
}  // namespace vmat
