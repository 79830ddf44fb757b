// Topology generator and graph-utility tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "keys/predistribution.h"
#include "sim/topology.h"

namespace vmat {
namespace {

TEST(Topology, LineDepthAndDegrees) {
  const auto t = Topology::line(5);
  EXPECT_EQ(t.node_count(), 5u);
  EXPECT_EQ(t.edge_count(), 4u);
  EXPECT_EQ(t.depth(), 4);
  EXPECT_EQ(t.degree(NodeId{0}), 1u);
  EXPECT_EQ(t.degree(NodeId{2}), 2u);
  const auto depth = t.bfs_depth();
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(depth[i], static_cast<Level>(i));
}

TEST(Topology, GridShape) {
  const auto t = Topology::grid(4, 3);
  EXPECT_EQ(t.node_count(), 12u);
  EXPECT_EQ(t.edge_count(), 4u * 2 + 3u * 3);  // horizontal + vertical
  EXPECT_EQ(t.depth(), 3 + 2);                 // manhattan from corner
  EXPECT_TRUE(t.connected());
}

TEST(Topology, StarOfChains) {
  const auto t = Topology::star_of_chains(3, 4);
  EXPECT_EQ(t.node_count(), 13u);
  EXPECT_EQ(t.depth(), 4);
  EXPECT_EQ(t.degree(kBaseStation), 3u);
  EXPECT_TRUE(t.connected());
}

TEST(Topology, EdgeListValidation) {
  const auto build = [](std::uint32_t n, std::vector<Edge> edges) {
    return Topology(n, edges);
  };
  EXPECT_THROW(build(3, {{NodeId{0}, NodeId{0}}}), std::invalid_argument);
  EXPECT_THROW(build(3, {{NodeId{0}, NodeId{3}}}), std::out_of_range);
  EXPECT_THROW(build(3, {{NodeId{3}, NodeId{0}}}), std::out_of_range);
  EXPECT_THROW(build(0, {}), std::invalid_argument);
  // A repeated edge throws in either orientation.
  EXPECT_THROW(build(3, {{NodeId{0}, NodeId{1}}, {NodeId{0}, NodeId{1}}}),
               std::invalid_argument);
  EXPECT_THROW(build(3, {{NodeId{0}, NodeId{1}}, {NodeId{1}, NodeId{2}},
                         {NodeId{1}, NodeId{0}}}),
               std::invalid_argument);
  const Topology edgeless = build(3, {});
  EXPECT_EQ(edgeless.edge_count(), 0u);
  EXPECT_TRUE(edgeless.neighbors(NodeId{2}).empty());
  EXPECT_EQ(build(3, {{NodeId{0}, NodeId{1}}}).edge_count(), 1u);
}

TEST(Topology, EdgeListKeepsListOrderInEveryRow) {
  // Edge {a, b} appends b to a's row and a to b's, in list order.
  const std::vector<Edge> edges{{NodeId{2}, NodeId{0}}, {NodeId{0}, NodeId{3}},
                                {NodeId{1}, NodeId{2}}, {NodeId{0}, NodeId{1}},
                                {NodeId{3}, NodeId{2}}};
  const Topology t(4, edges);
  const auto row = [&t](std::uint32_t id) {
    const auto span = t.neighbors(NodeId{id});
    std::vector<std::uint32_t> ids;
    for (const NodeId v : span) ids.push_back(v.value);
    return ids;
  };
  EXPECT_EQ(row(0), (std::vector<std::uint32_t>{2, 3, 1}));
  EXPECT_EQ(row(1), (std::vector<std::uint32_t>{2, 0}));
  EXPECT_EQ(row(2), (std::vector<std::uint32_t>{0, 1, 3}));
  EXPECT_EQ(row(3), (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(t.edge_count(), 5u);
  EXPECT_EQ(t.directed_edge_count(), 10u);
  // A directed edge's slot is its position in the flat row array.
  EXPECT_EQ(t.directed_edge_slot(NodeId{0}, NodeId{1}), 2u);
  EXPECT_EQ(t.directed_edge_slot(NodeId{2}, NodeId{3}), 3u + 2u + 2u);
  EXPECT_EQ(t.directed_edge_slot(NodeId{1}, NodeId{3}),
            Topology::kNoDirectedEdge);
  EXPECT_TRUE(t.has_edge(NodeId{3}, NodeId{2}));
  EXPECT_FALSE(t.has_edge(NodeId{1}, NodeId{3}));
}

TEST(Topology, ExclusionAffectsDepthAndConnectivity) {
  // 0-1-2-3 plus shortcut 0-3: excluding 1 leaves 0-3-2.
  const std::vector<Edge> edges{{NodeId{0}, NodeId{1}}, {NodeId{1}, NodeId{2}},
                                {NodeId{2}, NodeId{3}}, {NodeId{0}, NodeId{3}}};
  const Topology t(4, edges);
  EXPECT_EQ(t.depth(), 2);
  const std::unordered_set<NodeId> excl{NodeId{3}};
  EXPECT_EQ(t.depth(excl), 2);
  const std::unordered_set<NodeId> cut{NodeId{1}, NodeId{3}};
  EXPECT_FALSE(t.connected(cut));
}

TEST(Topology, RandomGeometricIsConnectedAndRooted) {
  const auto t = Topology::random_geometric(150, 0.16, 42);
  EXPECT_EQ(t.node_count(), 150u);
  EXPECT_TRUE(t.connected());
  EXPECT_GT(t.degree(kBaseStation), 0u);
}

TEST(Topology, RandomGeometricDeterministicPerSeed) {
  const auto a = Topology::random_geometric(80, 0.2, 7);
  const auto b = Topology::random_geometric(80, 0.2, 7);
  EXPECT_EQ(a.edge_count(), b.edge_count());
  for (std::uint32_t i = 0; i < 80; ++i)
    EXPECT_EQ(a.degree(NodeId{i}), b.degree(NodeId{i}));
}

TEST(Topology, RandomGeometricCellsMatchesPairwise) {
  // random_geometric() scans pairs below 2,048 nodes and buckets cells at
  // and above; both must produce the same rows, in the same order.
  struct Case {
    std::uint32_t n;
    double radius;
    std::uint64_t seed;
  };
  const double retry_radius = 1.8 / std::sqrt(120.0);
  const Case cases[] = {{50, 0.6, 3},
                        {80, 0.2, 7},
                        {120, retry_radius, 5},
                        {150, 0.16, 42},
                        {1000, Topology::connected_radius(1000), 1},
                        {2000, 0.06, 11}};
  for (const Case& c : cases) {
    const auto pairwise = Topology::random_geometric(c.n, c.radius, c.seed);
    const auto cells = Topology::random_geometric_cells(c.n, c.radius, c.seed);
    ASSERT_EQ(cells.node_count(), pairwise.node_count());
    ASSERT_EQ(cells.edge_count(), pairwise.edge_count()) << "n " << c.n;
    for (std::uint32_t id = 0; id < c.n; ++id) {
      const auto a = pairwise.neighbors(NodeId{id});
      const auto b = cells.neighbors(NodeId{id});
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "n " << c.n << " seed " << c.seed << " row " << id;
    }
  }
  // Seed 5 at n = 120 is disconnected on its first draw, so the case above
  // also compares the retry path.
  EXPECT_THROW((void)Topology::random_geometric(120, retry_radius, 5, 1),
               std::runtime_error);
  EXPECT_THROW((void)Topology::random_geometric_cells(120, retry_radius, 5, 1),
               std::runtime_error);
}

TEST(Topology, RandomGeometricThrowsWhenImpossible) {
  EXPECT_THROW((void)Topology::random_geometric(100, 0.01, 1, 3),
               std::runtime_error);
}

TEST(Topology, SecureSubgraphKeepsOnlyKeyedEdges) {
  const auto t = Topology::grid(5, 5);
  // Tiny rings: many physical edges will lack a shared key.
  const Predistribution sparse(25, {.pool_size = 500, .ring_size = 5, .seed = 1});
  const auto secure = t.secure_subgraph(sparse);
  EXPECT_LT(secure.edge_count(), t.edge_count());
  for (std::uint32_t a = 0; a < 25; ++a)
    for (NodeId b : secure.neighbors(NodeId{a}))
      EXPECT_TRUE(sparse.edge_key(NodeId{a}, b).has_value());

  // Dense rings: essentially every edge survives.
  const Predistribution dense(25, {.pool_size = 100, .ring_size = 60, .seed = 1});
  EXPECT_EQ(t.secure_subgraph(dense).edge_count(), t.edge_count());
}

TEST(Topology, BfsDepthUnreachableIsNoLevel) {
  const std::vector<Edge> edges{{NodeId{0}, NodeId{1}}};
  const Topology t(3, edges);
  const auto depth = t.bfs_depth();
  EXPECT_EQ(depth[2], kNoLevel);
  EXPECT_FALSE(t.connected());
}

}  // namespace
}  // namespace vmat
