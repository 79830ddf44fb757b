// Lossy-link tests: the paper assumes "messages are reliable, after proper
// retransmissions if necessary" — here the assumption is made mechanical.
// With per-frame loss p and redundancy k, a logical message is lost with
// probability p^k; adequate k restores every protocol guarantee.
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

NetworkSpec lossy_keys(double loss, std::uint32_t redundancy,
                         std::uint64_t seed = 9) {
  NetworkSpec cfg = testing::dense_keys(0, seed);
  cfg.loss_probability = loss;
  cfg.redundancy = redundancy;
  return cfg;
}

TEST(Loss, FabricDropsRequestedFraction) {
  const auto topo = Topology::line(2);
  Fabric fabric(&topo);
  ASSERT_TRUE(fabric.set_loss(0.3, 5).has_value());
  int delivered = 0;
  constexpr int kFrames = 4000;
  for (int i = 0; i < kFrames; ++i) {
    Envelope e;
    e.from = NodeId{0};
    e.to = NodeId{1};
    e.payload = {1};
    ASSERT_TRUE(fabric.send(e));
    fabric.end_slot();
    delivered += static_cast<int>(fabric.take_inbox(NodeId{1}).size());
  }
  EXPECT_NEAR(static_cast<double>(delivered) / kFrames, 0.7, 0.03);
  EXPECT_EQ(fabric.frames_lost(), kFrames - delivered);
}

TEST(Loss, SetLossValidatesProbability) {
  const auto topo = Topology::line(2);
  Fabric fabric(&topo);
  const Status low = fabric.set_loss(-0.1, 1);
  ASSERT_FALSE(low.has_value());
  EXPECT_EQ(low.error().code, ErrorCode::kInvalidArgument);
  const Status high = fabric.set_loss(1.0, 1);
  ASSERT_FALSE(high.has_value());
  EXPECT_EQ(high.error().code, ErrorCode::kInvalidArgument);
}

TEST(Loss, RedundancyRestoresCorrectMin) {
  // 10% frame loss, 4 copies per logical message: logical loss 1e-4; runs
  // across seeds must all return the exact minimum.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Network net(Topology::grid(5, 5), lossy_keys(0.10, 4, seed));
    VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
    const auto readings = default_readings(25);
    const auto out = coordinator.run_min(readings);
    ASSERT_EQ(out.kind, OutcomeKind::kResult) << "seed " << seed;
    EXPECT_EQ(out.minima[0], true_min(net, readings)) << "seed " << seed;
  }
}

TEST(Loss, SynopsisQueriesSurviveLoss) {
  Network net(Topology::grid(6, 6), lossy_keys(0.08, 4));
  CoordinatorSpec cfg;
  cfg.instances = 60;
  VmatCoordinator coordinator(&net, nullptr, cfg);
  Engine engine(&coordinator);
  std::vector<std::uint8_t> predicate(36, 0);
  for (std::uint32_t id = 1; id <= 18; ++id) predicate[id] = 1;
  const auto out =
      engine.run_batch({testing::count_query(predicate, 50)}).front();
  ASSERT_TRUE(out.answered());
  EXPECT_NEAR(*out.estimate, 18.0, 18.0 * 0.4);
}

TEST(Loss, AdversaryUnderLossStillSoundlyRevoked) {
  const auto topo = Topology::grid(5, 5);
  const auto malicious = choose_malicious(topo, 2, 3);
  Network net(topo, lossy_keys(0.05, 4));
  Adversary adv(&net, malicious,
                named_genome(NamedAttack::kSilent).strategy());
  CoordinatorSpec cfg;
  cfg.depth_bound = topo.depth(malicious);
  VmatCoordinator coordinator(&net, &adv, cfg);
  const auto readings = default_readings(25);
  const auto history = testing::until_result(coordinator, readings, 400);
  EXPECT_TRUE(history.back().produced_result());
  EXPECT_TRUE(revocations_sound(net, malicious));
}

TEST(Loss, UnmitigatedLossCanCostHonestKeys) {
  // The reason the paper assumes reliability: with heavy loss and NO
  // redundancy, a vanished message looks exactly like a drop attack, and
  // the veto walk may blame (and revoke) an honest edge key. This test
  // documents the failure mode the redundancy knob exists to prevent.
  int honest_key_revocations = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Network net(Topology::grid(5, 5), lossy_keys(0.25, 1, seed));
    VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
    (void)coordinator.run_min(default_readings(25));
    honest_key_revocations +=
        static_cast<int>(net.revocation().revoked_key_count());
  }
  // Not asserting a tight count (stochastic), just that the hazard is real
  // — and that with redundancy 4 (RedundancyRestoresCorrectMin) it never
  // happened.
  EXPECT_GT(honest_key_revocations, 0);
}

}  // namespace
}  // namespace vmat
