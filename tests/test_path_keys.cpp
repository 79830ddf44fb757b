// Path-key establishment tests: sparse rings leave physical edges unkeyed;
// establish_path_keys() restores full secure connectivity, and the whole
// protocol — including pinpointing and revocation — treats path keys as
// first-class keys.
#include <gtest/gtest.h>

#include "core/coordinator.h"
#include "helpers.h"

namespace vmat {
namespace {

using campaign::named_genome;
using campaign::NamedAttack;
using testing::default_readings;
using testing::revocations_sound;
using testing::true_min;

NetworkSpec sparse_keys(std::uint64_t seed) {
  NetworkSpec cfg;
  cfg.keys.pool_size = 5000;
  cfg.keys.ring_size = 50;  // P(two rings share a key) ~ 0.39
  cfg.keys.seed = seed;
  cfg.revocation_threshold = 0;
  return cfg;
}

TEST(PathKeys, RegistrationBasics) {
  Predistribution pd(10, {.pool_size = 100, .ring_size = 5, .seed = 1});
  const KeyIndex k = pd.register_path_key(NodeId{2}, NodeId{7});
  EXPECT_TRUE(pd.is_path_key(k));
  EXPECT_GE(k.value, 100u);
  // Idempotent, order-independent.
  EXPECT_EQ(pd.register_path_key(NodeId{7}, NodeId{2}), k);
  // Exactly two holders, sorted.
  const auto holders = pd.holders(k);
  ASSERT_EQ(holders.size(), 2u);
  EXPECT_EQ(holders[0], NodeId{2});
  EXPECT_EQ(holders[1], NodeId{7});
  // node_holds / keys_of see it.
  EXPECT_TRUE(pd.node_holds(NodeId{2}, k));
  EXPECT_TRUE(pd.node_holds(NodeId{7}, k));
  EXPECT_FALSE(pd.node_holds(NodeId{3}, k));
  const auto keys = pd.keys_of(NodeId{2});
  EXPECT_TRUE(std::find(keys.begin(), keys.end(), k) != keys.end());
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  // Distinct key material from pool keys and other path keys.
  const KeyIndex k2 = pd.register_path_key(NodeId{1}, NodeId{3});
  EXPECT_NE(pd.key_material(k), pd.key_material(k2));
}

TEST(PathKeys, RegistrationValidation) {
  Predistribution pd(5, {.pool_size = 50, .ring_size = 5, .seed = 2});
  EXPECT_THROW((void)pd.register_path_key(NodeId{1}, NodeId{1}),
               std::invalid_argument);
  EXPECT_THROW((void)pd.register_path_key(NodeId{1}, NodeId{9}),
               std::out_of_range);
  EXPECT_THROW((void)pd.key_material(KeyIndex{60}), std::out_of_range);
}

TEST(PathKeys, EstablishmentRestoresSecureConnectivity) {
  const auto topo = Topology::grid(6, 6);
  Network net(topo, sparse_keys(4));
  // Sparse rings: many physical edges are unkeyed before establishment.
  const auto before = topo.secure_subgraph(net.keys());
  ASSERT_LT(before.edge_count(), topo.edge_count());

  const std::size_t established = net.establish_path_keys();
  EXPECT_EQ(established, topo.edge_count() - before.edge_count());
  // Now every physical neighbor pair has a usable key.
  for (std::uint32_t id = 0; id < topo.node_count(); ++id)
    EXPECT_EQ(net.usable_neighbors(NodeId{id}).size(),
              topo.degree(NodeId{id}));
  // Idempotent.
  EXPECT_EQ(net.establish_path_keys(), 0u);
}

TEST(PathKeys, SecureSendOverPathKey) {
  // Find an edge that needs a path key and exercise the full MAC path.
  const auto topo = Topology::grid(6, 6);
  Network net(topo, sparse_keys(4));
  (void)net.establish_path_keys();
  bool exercised = false;
  for (std::uint32_t id = 0; id < topo.node_count() && !exercised; ++id) {
    for (NodeId v : topo.neighbors(NodeId{id})) {
      const auto key = net.usable_edge_key(NodeId{id}, v);
      ASSERT_TRUE(key.has_value());
      if (!net.keys().is_path_key(*key)) continue;
      const Bytes payload{1, 2, 3};
      ASSERT_TRUE(net.send_secure(NodeId{id}, v, payload));
      net.fabric().end_slot();
      const auto got = net.receive_valid(v);
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(Bytes(got[0].payload.begin(), got[0].payload.end()), payload);
      exercised = true;
      break;
    }
  }
  EXPECT_TRUE(exercised);
}

TEST(PathKeys, RevokedPathKeyKillsTheEdge) {
  const auto topo = Topology::grid(6, 6);
  Network net(topo, sparse_keys(4));
  (void)net.establish_path_keys();
  for (std::uint32_t id = 0; id < topo.node_count(); ++id) {
    for (NodeId v : topo.neighbors(NodeId{id})) {
      const auto key = net.usable_edge_key(NodeId{id}, v);
      if (!key.has_value() || !net.keys().is_path_key(*key)) continue;
      (void)net.revocation().revoke_key(*key);
      // No fallback: the pair shared no ring key to begin with.
      EXPECT_FALSE(net.usable_edge_key(NodeId{id}, v).has_value());
      return;
    }
  }
  FAIL() << "no path-keyed edge found";
}

TEST(PathKeys, FullProtocolRunsOnSparseRings) {
  const auto topo = Topology::grid(6, 6);
  Network net(topo, sparse_keys(8));
  (void)net.establish_path_keys();
  VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
  const auto readings = default_readings(net.node_count());
  const auto out = coordinator.run_min(readings);
  ASSERT_EQ(out.kind, OutcomeKind::kResult);
  EXPECT_EQ(out.minima[0], true_min(net, readings));
}

TEST(PathKeys, PinpointingWalksAcrossPathKeys) {
  // Sparse rings + a silent dropper: the veto walk must traverse (and may
  // revoke) path keys, and stays sound.
  const auto topo = Topology::grid(5, 5);
  Network net(topo, sparse_keys(11));
  (void)net.establish_path_keys();
  const auto malicious = choose_malicious(topo, 2, 13);
  Adversary adv(&net, malicious,
                named_genome(NamedAttack::kSilent).strategy());
  CoordinatorSpec cfg;
  cfg.depth_bound = topo.depth(malicious);
  VmatCoordinator coordinator(&net, &adv, cfg);

  const auto readings = default_readings(net.node_count());
  const auto history = testing::until_result(coordinator, readings, 400);
  EXPECT_TRUE(history.back().produced_result());
  EXPECT_TRUE(revocations_sound(net, malicious));
  EXPECT_EQ(history.back().minima[0], true_min(net, readings, malicious));
}

TEST(PathKeys, RingRevocationTakesPathKeysAlong) {
  Predistribution pd(10, {.pool_size = 200, .ring_size = 10, .seed = 3});
  const KeyIndex pk = pd.register_path_key(NodeId{4}, NodeId{5});
  RevocationRegistry reg(&pd, 0);
  (void)reg.revoke_sensor(NodeId{4});
  EXPECT_TRUE(reg.is_key_revoked(pk));
}

}  // namespace
}  // namespace vmat
