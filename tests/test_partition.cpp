// Partition behaviour (Section III): "if the malicious sensors indeed
// partition the sensor network, then VMAT will simply compute an aggregate
// for those sensors that are in the same connected component as the base
// station". These tests pin that documented behaviour down.
#include <gtest/gtest.h>

#include "core/coordinator.h"
#include "helpers.h"

namespace vmat {
namespace {

using campaign::named_genome;
using campaign::NamedAttack;
using testing::default_readings;
using testing::dense_keys;

TEST(Partition, SilentCutVertexLimitsScopeToBsComponent) {
  // Line 0-1-2-3-4-5: node 2 is a cut vertex. A fully silent node 2
  // partitions {3,4,5} away; their readings (including the global minimum)
  // cannot be incorporated, and no veto can cross the cut either.
  Network net(Topology::line(6), dense_keys());
  // Fully silent including tree formation: a destroyed/jammed sensor.
  class DeadSensor final : public AdversaryStrategy {};
  Adversary adv(&net, {NodeId{2}}, std::make_unique<DeadSensor>());
  CoordinatorSpec cfg;
  cfg.depth_bound = 5;
  VmatCoordinator coordinator(&net, &adv, cfg);
  auto readings = default_readings(6);
  readings[5] = 1;  // global min, but partitioned away
  const auto out = coordinator.run_min(readings);
  ASSERT_EQ(out.kind, OutcomeKind::kResult);
  // The answer is the correct minimum *of the BS component* {1}.
  EXPECT_EQ(out.minima[0], 101);
}

TEST(Partition, TreeParticipatingCutVertexIsCaughtInstead) {
  // The sneakier play: the cut vertex participates in tree formation (so
  // the far side gets levels and vetoes) but drops everything. Vetoes
  // cannot cross it either — but then the far-side sensors simply never
  // reach the base station and the component answer stands. If however the
  // far side has *any* honest path around the cut, the veto arrives and
  // the dropper is pinpointed. Both cases in one test:
  {
    // No detour: component answer.
    Network net(Topology::line(6), dense_keys());
    Adversary adv(&net, {NodeId{2}},
                  named_genome(NamedAttack::kSilent).strategy());
    CoordinatorSpec cfg;
    cfg.depth_bound = 5;
    VmatCoordinator coordinator(&net, &adv, cfg);
    auto readings = default_readings(6);
    readings[5] = 1;
    const auto out = coordinator.run_min(readings);
    ASSERT_EQ(out.kind, OutcomeKind::kResult);
    EXPECT_EQ(out.minima[0], 101);
  }
  {
    // With a detour the same strategy is pinpointed (no silent loss).
    std::vector<Edge> edges;
    for (std::uint32_t i = 0; i + 1 < 6; ++i)
      edges.push_back({NodeId{i}, NodeId{i + 1}});
    edges.push_back({NodeId{0}, NodeId{6}});
    edges.push_back({NodeId{6}, NodeId{4}});  // detour around node 2
    const Topology topo(7, edges);
    Network net(topo, dense_keys());
    Adversary adv(&net, {NodeId{2}},
                  named_genome(NamedAttack::kSilent).strategy());
    CoordinatorSpec cfg;
    cfg.depth_bound = topo.depth({NodeId{2}});
    VmatCoordinator coordinator(&net, &adv, cfg);
    auto readings = default_readings(7);
    readings[5] = 1;
    const auto out = coordinator.run_min(readings);
    // The minimum either flows around the detour (result) or its drop is
    // vetoed and pinpointed; silent incorrect answers are impossible.
    if (out.kind == OutcomeKind::kResult)
      EXPECT_EQ(out.minima[0], 1);
    else
      EXPECT_TRUE(testing::revocations_sound(net, {NodeId{2}})) << out.reason;
  }
}

TEST(Partition, PartitionedSensorsDoNotBlockTermination) {
  // Executions always terminate in O(1) data rounds even when a chunk of
  // the network is unreachable.
  Network net(Topology::line(8), dense_keys());
  class DeadSensor final : public AdversaryStrategy {};
  Adversary adv(&net, {NodeId{3}}, std::make_unique<DeadSensor>());
  CoordinatorSpec cfg;
  cfg.depth_bound = 7;
  VmatCoordinator coordinator(&net, &adv, cfg);
  const auto out = coordinator.run_min(default_readings(8));
  ASSERT_EQ(out.kind, OutcomeKind::kResult);
  EXPECT_EQ(out.data_rounds, 6);
}

}  // namespace
}  // namespace vmat
