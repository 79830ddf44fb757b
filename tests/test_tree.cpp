// Tree-formation tests: timestamp levels equal BFS depth in honest runs;
// parents are recorded with usable edge keys; the wormhole attack breaks
// hop-count trees but not timestamp trees (Section IV-A / Figure 2).
#include <gtest/gtest.h>

#include "core/tree_formation.h"
#include "helpers.h"

namespace vmat {
namespace {

using campaign::named_genome;
using campaign::NamedAttack;
using testing::dense_keys;

TreeResult form(Network& net, Adversary* adv, TreeMode mode, Level L,
                std::uint64_t session = 1) {
  TreePhaseParams params;
  params.mode = mode;
  params.depth_bound = L;
  params.session = session;
  return run_tree_formation(net, adv, params);
}

TEST(TreeFormation, TimestampLevelsEqualBfsDepthWithoutAdversary) {
  Network net(Topology::grid(6, 5), dense_keys());
  const Level L = net.physical_depth();
  const auto tree = form(net, nullptr, TreeMode::kTimestamp, L);
  const auto depth = net.topology().bfs_depth();
  for (std::uint32_t id = 0; id < net.node_count(); ++id)
    EXPECT_EQ(tree.level[id], depth[id]) << "node " << id;
}

TEST(TreeFormation, HopCountLevelsEqualBfsDepthWithoutAdversary) {
  Network net(Topology::grid(6, 5), dense_keys());
  const Level L = net.physical_depth();
  const auto tree = form(net, nullptr, TreeMode::kHopCount, L);
  const auto depth = net.topology().bfs_depth();
  for (std::uint32_t id = 1; id < net.node_count(); ++id)
    EXPECT_EQ(tree.level[id], depth[id]) << "node " << id;
}

TEST(TreeFormation, ParentsAreOneLevelUpAndKeyed) {
  Network net(Topology::random_geometric(120, 0.18, 5), dense_keys());
  const Level L = net.physical_depth();
  const auto tree = form(net, nullptr, TreeMode::kTimestamp, L);
  for (std::uint32_t id = 1; id < net.node_count(); ++id) {
    ASSERT_TRUE(tree.has_valid_level(NodeId{id})) << "node " << id;
    ASSERT_FALSE(tree.parents[id].empty());
    for (const ParentLink& p : tree.parents[id]) {
      EXPECT_EQ(tree.level[p.claimed_id.value], tree.level[id] - 1);
      // The child holds the edge key it accepted the frame with.
      EXPECT_TRUE(net.keys().ring(NodeId{id}).contains(p.edge_key));
      EXPECT_TRUE(net.keys().ring(p.claimed_id).contains(p.edge_key));
    }
  }
}

TEST(TreeFormation, MultiParentRecordingForMultipath) {
  // In a grid, interior nodes usually hear the flood from several
  // same-level-minus-one neighbors in the same slot.
  Network net(Topology::grid(5, 5), dense_keys());
  const auto tree = form(net, nullptr, TreeMode::kTimestamp,
                         net.physical_depth());
  std::size_t multi = 0;
  for (std::uint32_t id = 1; id < net.node_count(); ++id)
    if (tree.parents[id].size() > 1) ++multi;
  EXPECT_GT(multi, 0u);
}

TEST(TreeFormation, WormholeBreaksHopCountTree) {
  // Line topology with malicious node 3: it forges hop count 50 in slot 1,
  // giving its honest neighbors levels > L.
  Network net(Topology::line(10), dense_keys());
  const Level L = net.physical_depth();
  Adversary adv(&net, {NodeId{3}},
                std::make_unique<WormholeStrategy>(50));
  const auto tree = form(net, &adv, TreeMode::kHopCount, L);
  std::size_t invalid = 0;
  for (std::uint32_t id = 1; id < net.node_count(); ++id)
    if (!tree.has_valid_level(NodeId{id})) ++invalid;
  // Everything behind the wormhole got a poisoned (>= 51) level.
  EXPECT_GT(invalid, 0u);
}

TEST(TreeFormation, WormholeHarmlessAgainstTimestampTree) {
  Network net(Topology::line(10), dense_keys());
  const Level L = net.physical_depth();
  Adversary adv(&net, {NodeId{3}},
                std::make_unique<WormholeStrategy>(50));
  const auto tree = form(net, &adv, TreeMode::kTimestamp, L);
  for (std::uint32_t id = 1; id < net.node_count(); ++id)
    EXPECT_TRUE(tree.has_valid_level(NodeId{id})) << "node " << id;
}

TEST(TreeFormation, SilentMaliciousCutDelaysButBoundsLevels) {
  // Grid with a few silent malicious nodes: honest non-partitioned sensors
  // still level within L as long as L covers the honest detour depth.
  const auto topo = Topology::grid(6, 6);
  const auto malicious = choose_malicious(topo, 4, 99);
  Network net(topo, dense_keys());
  const Level L = topo.depth(malicious);  // depth excluding malicious
  Adversary adv(&net, malicious, named_genome(NamedAttack::kSilent).strategy());
  const auto tree = form(net, &adv, TreeMode::kTimestamp, L);
  const auto honest_depth = topo.bfs_depth(malicious);
  for (std::uint32_t id = 1; id < net.node_count(); ++id) {
    if (malicious.contains(NodeId{id})) continue;
    ASSERT_NE(honest_depth[id], kNoLevel);
    EXPECT_TRUE(tree.has_valid_level(NodeId{id})) << "node " << id;
    EXPECT_LE(tree.level[id], L);
    // Timestamp level can never beat the honest shortest path.
    EXPECT_GE(tree.level[id], 1);
  }
}

TEST(TreeFormation, StaleSessionFramesIgnored) {
  Network net(Topology::line(4), dense_keys());
  const auto t1 = form(net, nullptr, TreeMode::kTimestamp, 3, /*session=*/10);
  EXPECT_TRUE(t1.has_valid_level(NodeId{3}));
  // New session: old levels do not leak.
  const auto t2 = form(net, nullptr, TreeMode::kTimestamp, 3, /*session=*/11);
  EXPECT_EQ(t2.session, 11u);
  EXPECT_TRUE(t2.has_valid_level(NodeId{3}));
}

TEST(TreeFormation, RejectsZeroDepthBound) {
  Network net(Topology::line(3), dense_keys());
  TreePhaseParams params;
  params.depth_bound = 0;
  EXPECT_THROW((void)run_tree_formation(net, nullptr, params),
               std::invalid_argument);
}

TEST(TreeFormation, PassthroughAdversaryActsHonest) {
  Network net(Topology::grid(4, 4), dense_keys());
  const Level L = net.physical_depth();
  Adversary adv(&net, {NodeId{5}}, std::make_unique<NullStrategy>());
  const auto tree = form(net, &adv, TreeMode::kTimestamp, L);
  const auto depth = net.topology().bfs_depth();
  for (std::uint32_t id = 0; id < net.node_count(); ++id)
    EXPECT_EQ(tree.level[id], depth[id]);
}

}  // namespace
}  // namespace vmat
