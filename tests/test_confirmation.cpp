// Confirmation/SOF tests: Lemma 1 (a veto always gets through), one-time
// forwarding, audit tuples, slotted interval bounds, and the choking race.
#include <gtest/gtest.h>

#include "core/confirmation.h"
#include "core/tree_formation.h"
#include "helpers.h"

namespace vmat {
namespace {

using campaign::named_genome;
using campaign::NamedAttack;
using testing::default_readings;
using testing::dense_keys;

struct ConfFixture {
  explicit ConfFixture(Topology topo, Adversary* adv = nullptr)
      : net(std::move(topo), dense_keys()), audits(net.node_count()) {
    TreePhaseParams tp;
    tp.depth_bound = net.physical_depth();
    tp.session = 5;
    tree = run_tree_formation(net, adv, tp);
  }

  ConfirmationOutcome run(Adversary* adv, const std::vector<Reading>& readings,
                          Reading broadcast_min, bool slotted = true) {
    const ValueTable values = testing::one_instance(readings);
    return run_confirmation(net, adv, tree, {broadcast_min}, 0x99, values,
                            audits, slotted);
  }

  Network net;
  TreeResult tree;
  AuditLog audits;
};

TEST(Confirmation, NoVetoWhenMinimumCorrect) {
  ConfFixture fx(Topology::grid(5, 4));
  const auto readings = default_readings(fx.net.node_count());
  const auto out = fx.run(nullptr, readings, /*broadcast_min=*/101);
  EXPECT_TRUE(out.arrivals.empty());
}

TEST(Confirmation, UndercutReadingTriggersVeto) {
  ConfFixture fx(Topology::grid(5, 4));
  const auto readings = default_readings(fx.net.node_count());
  // Claimed minimum larger than node 1's and node 2's readings.
  const auto out = fx.run(nullptr, readings, /*broadcast_min=*/103);
  ASSERT_FALSE(out.arrivals.empty());
  const auto& first = out.arrivals.front();
  EXPECT_LT(first.msg.value, 103);
  EXPECT_TRUE(verify_veto(fx.net.keys().sensor_key(first.msg.origin),
                          first.msg, 0x99));
}

TEST(Confirmation, VetoFromDeepestNodeArrives) {
  ConfFixture fx(Topology::line(8));
  auto readings = default_readings(fx.net.node_count());
  readings[7] = 1;  // only the deepest node undercuts
  const auto out = fx.run(nullptr, readings, /*broadcast_min=*/50);
  ASSERT_FALSE(out.arrivals.empty());
  EXPECT_EQ(out.arrivals.front().msg.origin, NodeId{7});
  // Arrived within L intervals (Lemma 1 bound).
  EXPECT_LE(out.arrivals.front().interval, fx.tree.depth_bound);
}

TEST(Confirmation, OneTimeForwardingRecordsSingleTuple) {
  ConfFixture fx(Topology::line(8));
  auto readings = default_readings(fx.net.node_count());
  readings[7] = 1;
  (void)fx.run(nullptr, readings, 50);
  for (std::uint32_t id = 1; id <= 6; ++id) {
    const SofRecord* rec = fx.audits.sof(NodeId{id});
    ASSERT_NE(rec, nullptr) << "node " << id;
    EXPECT_FALSE(rec->originated);
    EXPECT_EQ(rec->forward_interval, rec->received_interval + 1);
    EXPECT_FALSE(rec->out_edges.empty());
    EXPECT_TRUE(fx.net.keys().ring(NodeId{id}).contains(rec->in_edge));
  }
  // The vetoer's record.
  const SofRecord* vetoer_rec = fx.audits.sof(NodeId{7});
  ASSERT_NE(vetoer_rec, nullptr);
  EXPECT_TRUE(vetoer_rec->originated);
  EXPECT_EQ(vetoer_rec->forward_interval, 1);
}

TEST(Confirmation, SofIntervalsAreBoundedByDepth) {
  ConfFixture fx(Topology::grid(6, 5));
  auto readings = default_readings(fx.net.node_count());
  readings[29] = 1;
  (void)fx.run(nullptr, readings, 50);
  for (std::uint32_t id = 1; id < fx.net.node_count(); ++id) {
    const SofRecord* rec = fx.audits.sof(NodeId{id});
    if (rec == nullptr) continue;
    EXPECT_LE(rec->forward_interval, fx.tree.depth_bound + 1);
  }
}

TEST(Confirmation, Lemma1HoldsUnderSilentMaliciousCut) {
  // Honest vetoer exists and stays connected: some veto must reach the BS
  // no matter which (non-partitioning) set goes silent.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto topo = Topology::grid(5, 5);
    const auto malicious = choose_malicious(topo, 3, seed);
    Network net(topo, dense_keys());
    Adversary adv(&net, malicious,
                  named_genome(NamedAttack::kSilent).strategy());
    TreePhaseParams tp;
    tp.depth_bound = topo.depth(malicious);
    tp.session = seed;
    const auto tree = run_tree_formation(net, &adv, tp);

    auto readings = default_readings(net.node_count());
    // Pick an honest non-BS node to undercut.
    NodeId vetoer{0};
    for (std::uint32_t id = 1; id < net.node_count(); ++id)
      if (!malicious.contains(NodeId{id})) {
        vetoer = NodeId{id};
        break;
      }
    readings[vetoer.value] = 1;

    const ValueTable values = testing::one_instance(readings);
    AuditLog audits(net.node_count());
    const auto out = run_confirmation(net, &adv, tree, {50}, seed, values,
                                      audits);
    EXPECT_FALSE(out.arrivals.empty()) << "seed " << seed;
  }
}

TEST(Confirmation, SpuriousVetoChokesButSomethingStillArrives) {
  // The choking adversary floods spurious vetoes in slot 1. Honest one-time
  // forwarders may pick the junk — but then the junk reaches the BS, which
  // is exactly what SOF promises (Lemma 1: *some* veto arrives).
  const auto topo = Topology::grid(5, 5);
  const auto malicious = choose_malicious(topo, 3, 4);
  Network net(topo, dense_keys());
  Adversary adv(&net, malicious, named_genome(NamedAttack::kChoke).strategy());
  TreePhaseParams tp;
  tp.depth_bound = topo.depth(malicious);
  tp.session = 9;
  const auto tree = run_tree_formation(net, &adv, tp);

  auto readings = default_readings(net.node_count());
  NodeId vetoer{0};
  for (std::uint32_t id = 1; id < net.node_count(); ++id)
    if (!malicious.contains(NodeId{id})) {
      vetoer = NodeId{id};
      break;
    }
  readings[vetoer.value] = 1;
  const ValueTable values = testing::one_instance(readings);
  AuditLog audits(net.node_count());
  const auto out =
      run_confirmation(net, &adv, tree, {50}, 11, values, audits);
  ASSERT_FALSE(out.arrivals.empty());
  // At least one arrival is spurious (the choke) or the legit veto made it;
  // either way the base station has something to act on.
  bool any_spurious = false, any_valid = false;
  for (const auto& a : out.arrivals) {
    if (a.msg.origin.value < net.node_count() &&
        verify_veto(net.keys().sensor_key(a.msg.origin), a.msg, 11))
      any_valid = true;
    else
      any_spurious = true;
  }
  EXPECT_TRUE(any_spurious || any_valid);
}

TEST(Confirmation, VetoersAtInvalidLevelStaySilent) {
  ConfFixture fx(Topology::line(5));
  auto readings = default_readings(fx.net.node_count());
  readings[4] = 1;
  // Manually invalidate the vetoer's level to simulate a poisoned tree.
  fx.tree.level[4] = kNoLevel;
  const auto out = fx.run(nullptr, readings, 50);
  // Node 4 cannot veto (no valid level); nobody else undercuts.
  EXPECT_TRUE(out.arrivals.empty());
}

TEST(Confirmation, SizeMismatchThrows) {
  ConfFixture fx(Topology::grid(4, 4));
  const std::uint32_t n = fx.net.node_count();
  ValueTable short_data = testing::one_instance(default_readings(n));
  short_data.data.pop_back();  // one entry short of n x 1
  const std::uint64_t sent = fx.net.fabric().frames_sent();
  for (const ValueTable& bad :
       {ValueTable(n - 1, 1, 5), ValueTable(n, 2, 5), short_data})
    EXPECT_THROW((void)run_confirmation(fx.net, nullptr, fx.tree, {50}, 0x99,
                                        bad, fx.audits),
                 std::invalid_argument);
  EXPECT_EQ(fx.net.fabric().frames_sent(), sent);  // rejected before sending
}

}  // namespace
}  // namespace vmat
