// Aggregation-phase tests: correct minima at the base station, audit-trail
// recording, multi-instance bundles, multipath mode, and dropping attacks.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/aggregation.h"
#include "core/tree_formation.h"
#include "helpers.h"

namespace vmat {
namespace {

using campaign::named_genome;
using campaign::NamedAttack;
using testing::default_readings;
using testing::dense_keys;

struct AggFixture {
  explicit AggFixture(Topology topo, Adversary* adv = nullptr,
                      std::uint32_t instances = 1)
      : net(std::move(topo), dense_keys()), audits(net.node_count()) {
    TreePhaseParams tp;
    tp.depth_bound = net.physical_depth();
    tp.session = 77;
    tree = run_tree_formation(net, adv, tp);
    config.instances = instances;
    config.nonce = 0xbeef;
  }

  AggregationOutcome run(Adversary* adv,
                         const std::vector<Reading>& readings) {
    ValueTable values(net.node_count(), config.instances, 0);
    const ValueTable weights(net.node_count(), config.instances, 0);
    for (std::uint32_t id = 0; id < net.node_count(); ++id)
      for (std::uint32_t i = 0; i < config.instances; ++i)
        values.row(id)[i] = readings[id];
    return run_aggregation(net, adv, tree, config, values, weights, audits);
  }

  Reading best_valid(const AggregationOutcome& out, std::uint32_t instance) {
    Reading best = kInfinity;
    for (const auto& a : out.arrivals) {
      if (a.msg.instance != instance) continue;
      if (!verify_agg_message(net.keys().sensor_key(a.msg.origin), a.msg,
                              config.nonce))
        continue;
      best = std::min(best, a.msg.value);
    }
    return best;
  }

  Network net;
  TreeResult tree;
  AggConfig config;
  AuditLog audits;
};

TEST(Aggregation, HonestRunDeliversTrueMin) {
  AggFixture fx(Topology::grid(5, 5));
  const auto readings = default_readings(fx.net.node_count());
  const auto out = fx.run(nullptr, readings);
  EXPECT_EQ(fx.best_valid(out, 0), 101);  // node 1 has the smallest reading
}

TEST(Aggregation, MinimumCarriesOriginatorsMac) {
  AggFixture fx(Topology::line(6));
  auto readings = default_readings(fx.net.node_count());
  readings[4] = 3;  // deep node holds the min
  const auto out = fx.run(nullptr, readings);
  bool found = false;
  for (const auto& a : out.arrivals) {
    if (a.msg.value == 3) {
      found = true;
      EXPECT_EQ(a.msg.origin, NodeId{4});
      EXPECT_TRUE(verify_agg_message(fx.net.keys().sensor_key(NodeId{4}),
                                     a.msg, fx.config.nonce));
    }
  }
  EXPECT_TRUE(found);
}

TEST(Aggregation, EveryForwarderRecordedAuditTuples) {
  AggFixture fx(Topology::line(6));
  auto readings = default_readings(fx.net.node_count());
  readings[5] = 1;  // deepest node: its value traverses the whole line
  (void)fx.run(nullptr, readings);
  // Every intermediate node forwarded value 1 with in/out edges recorded.
  for (std::uint32_t id = 1; id <= 5; ++id) {
    EXPECT_EQ(fx.audits.level(NodeId{id}), static_cast<Level>(id));
    const auto forwarded = fx.audits.forwarded_of(NodeId{id});
    const bool forwarded_min =
        std::any_of(forwarded.begin(), forwarded.end(),
                    [](const ForwardRecord& f) { return f.msg.value == 1; });
    EXPECT_TRUE(forwarded_min) << "node " << id;
    for (const auto& f : forwarded)
      EXPECT_TRUE(fx.net.keys().ring(NodeId{id}).contains(f.out_edge));
  }
  // Receivers recorded the child level the value arrived from.
  for (std::uint32_t id = 1; id <= 4; ++id) {
    const auto received = fx.audits.received_of(NodeId{id});
    const bool got_min = std::any_of(
        received.begin(), received.end(), [&](const ReceivedRecord& r) {
          return r.msg.value == 1 &&
                 r.child_level == static_cast<Level>(id) + 1;
        });
    EXPECT_TRUE(got_min) << "node " << id;
  }
}

TEST(Aggregation, MultiInstanceMinimaIndependent) {
  AggFixture fx(Topology::grid(4, 4), nullptr, /*instances=*/3);
  ValueTable values(fx.net.node_count(), 3, 0);
  const ValueTable weights(fx.net.node_count(), 3, 0);
  for (std::uint32_t id = 0; id < fx.net.node_count(); ++id) {
    values.row(id)[0] = static_cast<Reading>(1000 + id);
    values.row(id)[1] = static_cast<Reading>(2000 - id);
    values.row(id)[2] = static_cast<Reading>(5 * id + 7);
  }
  const auto out = run_aggregation(fx.net, nullptr, fx.tree, fx.config,
                                   values, weights, fx.audits);
  Reading best[3] = {kInfinity, kInfinity, kInfinity};
  for (const auto& a : out.arrivals)
    best[a.msg.instance] = std::min(best[a.msg.instance], a.msg.value);
  EXPECT_EQ(best[0], 1001);                      // id 1
  EXPECT_EQ(best[1], 2000 - 15);                 // largest id
  EXPECT_EQ(best[2], 12);                        // id 1
}

TEST(Aggregation, InfinityValueContributesNothing) {
  AggFixture fx(Topology::line(4));
  ValueTable values(fx.net.node_count(), 1, kInfinity);
  const ValueTable weights(fx.net.node_count(), 1, 0);
  values.data[2] = 55;
  const auto out = run_aggregation(fx.net, nullptr, fx.tree, fx.config,
                                   values, weights, fx.audits);
  ASSERT_FALSE(out.arrivals.empty());
  for (const auto& a : out.arrivals) EXPECT_EQ(a.msg.origin, NodeId{2});
}

TEST(Aggregation, SilentDropLosesDeepValuesOnALine) {
  // Line 0-1-2-3-4-5 with malicious 2: everything behind it is cut off.
  Network net(Topology::line(6), dense_keys());
  Adversary adv(&net, {NodeId{2}},
                named_genome(NamedAttack::kSilent).strategy());
  AggFixture fx(Topology::line(6), nullptr);  // honest tree for levels
  // Re-run with the adversary present end to end.
  AggFixture fx2(Topology::line(6), &adv);
  auto readings = default_readings(6);
  readings[5] = 1;
  const auto out = fx2.run(&adv, readings);
  EXPECT_EQ(fx2.best_valid(out, 0), 101);  // node 1's reading; 1 was dropped
}

TEST(Aggregation, ValueDropForwardsMaxInstead) {
  Network net(Topology::line(6), dense_keys());
  auto strategy = named_genome(NamedAttack::kDrop).strategy();
  Adversary adv(&net, {NodeId{3}}, std::move(strategy));
  AggFixture fx(Topology::line(6), &adv);
  auto readings = default_readings(6);
  readings[5] = 1;  // behind the malicious node
  const auto out = fx.run(&adv, readings);
  const Reading best = fx.best_valid(out, 0);
  EXPECT_NE(best, 1);      // the true min was dropped
  EXPECT_NE(best, kInfinity);  // but something still flowed
}

TEST(Aggregation, MultipathSurvivesSingleSilentParent) {
  // Grid, multipath on: a single silent malicious node cannot cut off the
  // min because siblings carry it around.
  const auto topo = Topology::grid(5, 5);
  Network net(topo, dense_keys());
  Adversary adv(&net, {NodeId{6}},
                named_genome(NamedAttack::kSilent).strategy());
  TreePhaseParams tp;
  tp.depth_bound = net.physical_depth();
  tp.session = 3;
  const auto tree = run_tree_formation(net, &adv, tp);

  AggConfig config;
  config.instances = 1;
  config.nonce = 0x77;
  config.multipath = true;

  const ValueTable weights(net.node_count(), 1, 0);
  auto readings = default_readings(net.node_count());
  readings[24] = 1;  // far corner
  const ValueTable values = testing::one_instance(readings);
  AuditLog audits(net.node_count());
  const auto out = run_aggregation(net, &adv, tree, config, values, weights,
                                   audits);
  Reading best = kInfinity;
  for (const auto& a : out.arrivals) best = std::min(best, a.msg.value);
  EXPECT_EQ(best, 1);
}

TEST(Aggregation, SizeMismatchThrows) {
  AggFixture fx(Topology::line(3));
  const ValueTable bad(2, 1, 0);  // wrong node count
  const ValueTable weights(3, 1, 0);
  ValueTable short_data(3, 1, 0);  // data one entry short of 3 x 1
  short_data.data.pop_back();
  const std::uint64_t sent = fx.net.fabric().frames_sent();
  EXPECT_THROW((void)run_aggregation(fx.net, nullptr, fx.tree, fx.config, bad,
                                     weights, fx.audits),
               std::invalid_argument);
  EXPECT_THROW((void)run_aggregation(fx.net, nullptr, fx.tree, fx.config,
                                     short_data, weights, fx.audits),
               std::invalid_argument);
  EXPECT_THROW((void)run_aggregation(fx.net, nullptr, fx.tree, fx.config,
                                     weights, short_data, fx.audits),
               std::invalid_argument);
  EXPECT_EQ(fx.net.fabric().frames_sent(), sent);  // rejected before sending
}

}  // namespace
}  // namespace vmat
