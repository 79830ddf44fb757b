// Baseline comparator tests: TAG silently corrupts, VMAT recovers from a
// persistent attacker (detect-only SHIA stalls forever under one, see
// test_shia.cpp), set-sampling is correct but pays Ω(log n) rounds,
// send-all pays linear bytes.
#include <gtest/gtest.h>

#include <cmath>

#include "baseline/sampling.h"
#include "baseline/send_all.h"
#include "baseline/tag.h"
#include "core/coordinator.h"
#include "helpers.h"

namespace vmat {
namespace {

using campaign::named_genome;
using campaign::NamedAttack;
using testing::default_readings;
using testing::dense_keys;

TEST(Tag, HonestRunIsCorrect) {
  Network net(Topology::grid(5, 5), dense_keys());
  const auto readings = default_readings(25);
  const auto r = run_tag_min(net, readings, {}, TagAttack::kNone, 8);
  ASSERT_TRUE(r.minimum.has_value());
  EXPECT_EQ(*r.minimum, 101);
}

TEST(Tag, SingleAttackerCorruptsSilently) {
  Network net(Topology::grid(5, 5), dense_keys());
  auto readings = default_readings(25);
  readings[24] = 1;
  // Any node on the unique BFS route of the minimum can deflate/inflate.
  const auto depth = net.topology().bfs_depth();
  (void)depth;
  const auto inflated =
      run_tag_min(net, readings, {NodeId{24}}, TagAttack::kInflate, 8);
  ASSERT_TRUE(inflated.minimum.has_value());
  EXPECT_NE(*inflated.minimum, 1);  // the true min vanished, no alarm

  const auto deflated =
      run_tag_min(net, readings, {NodeId{12}}, TagAttack::kDeflate, 8);
  ASSERT_TRUE(deflated.minimum.has_value());
  EXPECT_EQ(*deflated.minimum, -1000000);  // fabricated value accepted
}

TEST(Tag, ConstantRounds) {
  Network net(Topology::grid(5, 5), dense_keys());
  const auto r =
      run_tag_min(net, default_readings(25), {}, TagAttack::kNone, 8);
  EXPECT_EQ(r.flooding_rounds, 2);
}

TEST(Vmat, RecoversFromPersistentChoker) {
  // A persistent attacker stalls detect-only SHIA forever
  // (Shia.PersistentAttackerStallsForever). A persistent choker cannot stall
  // VMAT: each veto walk revokes its key material, so retries converge.
  const auto topo = Topology::grid(5, 5);
  const auto malicious = choose_malicious(topo, 2, 3);
  Network net(topo, dense_keys());
  Adversary adv(&net, malicious,
                named_genome(NamedAttack::kChoke).strategy());
  CoordinatorSpec cfg;
  cfg.depth_bound = topo.depth(malicious);
  VmatCoordinator coordinator(&net, &adv, cfg);
  const auto readings = default_readings(25);
  const auto history = testing::until_result(coordinator, readings, 600);
  EXPECT_TRUE(history.back().produced_result());
}

TEST(Sampling, EstimateWithinFactorAndLogRounds) {
  std::vector<std::uint8_t> predicate(1024, 0);
  for (std::uint32_t id = 1; id <= 300; ++id) predicate[id] = 1;
  const auto r = run_set_sampling_count(predicate, {.tests_per_level = 64,
                                                    .seed = 5});
  EXPECT_NEAR(r.estimate, 300.0, 300.0 * 0.5);
  EXPECT_EQ(r.levels, 10u);  // log2(1024)
  EXPECT_EQ(r.flooding_rounds, 20);
}

TEST(Sampling, ZeroCountIsZero) {
  const std::vector<std::uint8_t> predicate(256, 0);
  const auto r = run_set_sampling_count(predicate, {});
  EXPECT_EQ(r.estimate, 0.0);
}

TEST(Sampling, RoundsGrowLogarithmically) {
  std::vector<std::uint8_t> small(64, 1), large(4096, 1);
  const auto rs = run_set_sampling_count(small, {});
  const auto rl = run_set_sampling_count(large, {});
  EXPECT_EQ(rl.flooding_rounds - rs.flooding_rounds, 2 * 6);  // log ratio 64
}

TEST(SendAll, ExactMinAndLinearBytes) {
  Network net_small(Topology::grid(6, 6), dense_keys());
  Network net_large(Topology::grid(12, 12), dense_keys());
  auto readings_small = default_readings(36);
  auto readings_large = default_readings(144);
  const auto small = run_send_all(net_small, readings_small);
  const auto large = run_send_all(net_large, readings_large);
  EXPECT_EQ(small.minimum, 101);
  EXPECT_EQ(large.minimum, 101);
  // Total cost grows super-linearly with n (relaying), and the hottest
  // relay scales with n.
  EXPECT_GT(large.total_bytes, small.total_bytes * 3);
  EXPECT_GT(large.max_node_bytes, small.max_node_bytes);
  // Every reading crosses at least one hop: lower bound.
  EXPECT_GE(small.total_bytes, 35u * 20u);
}

TEST(SendAll, MatchesPaperScaleClaim) {
  // Section IX: ~10,000 sensors => at least 80 KB with 8-byte MACs. Our
  // records carry 20 bytes, so the total must exceed 200 KB.
  Network net(Topology::grid(100, 100), dense_keys());
  const auto r = run_send_all(net, default_readings(10000));
  EXPECT_GE(r.total_bytes, 200000u);
}

}  // namespace
}  // namespace vmat
