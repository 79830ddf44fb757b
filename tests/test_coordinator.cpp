// End-to-end coordinator tests: the Figure 1 state machine, Theorem 2
// (returned results are correct), O(1) data rounds, and the Theorem 7
// recovery loop for every attack family.
#include <gtest/gtest.h>

#include "core/coordinator.h"
#include "helpers.h"

namespace vmat {
namespace {

using campaign::named_genome;
using campaign::NamedAttack;
using testing::default_readings;
using testing::dense_keys;
using testing::revocations_sound;
using testing::true_min;

TEST(Coordinator, HonestRunReturnsTrueMin) {
  Network net(Topology::grid(5, 5), dense_keys());
  VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
  const auto readings = default_readings(net.node_count());
  const auto out = coordinator.run_min(readings);
  ASSERT_EQ(out.kind, OutcomeKind::kResult);
  EXPECT_EQ(out.trigger, Trigger::kNone);
  EXPECT_EQ(out.minima[0], true_min(net, readings));
}

TEST(Coordinator, DataPathIsConstantRounds) {
  for (std::uint32_t side : {4u, 6u, 8u}) {
    Network net(Topology::grid(side, side), dense_keys());
    VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
    const auto out = coordinator.run_min(default_readings(net.node_count()));
    ASSERT_EQ(out.kind, OutcomeKind::kResult);
    EXPECT_EQ(out.data_rounds, 6);  // 3 announcements + 3 phases, any n
  }
}

TEST(Coordinator, RandomGeometricHonestRun) {
  Network net(Topology::random_geometric(200, 0.14, 33), dense_keys());
  VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
  const auto readings = default_readings(net.node_count());
  const auto out = coordinator.run_min(readings);
  ASSERT_EQ(out.kind, OutcomeKind::kResult);
  EXPECT_EQ(out.minima[0], true_min(net, readings));
}

TEST(Coordinator, PassthroughAdversaryChangesNothing) {
  Network net(Topology::grid(5, 5), dense_keys());
  Adversary adv(&net, {NodeId{7}, NodeId{12}},
                std::make_unique<NullStrategy>());
  VmatCoordinator coordinator(&net, &adv, CoordinatorSpec{});
  const auto readings = default_readings(net.node_count());
  const auto out = coordinator.run_min(readings);
  ASSERT_EQ(out.kind, OutcomeKind::kResult);
  EXPECT_EQ(out.minima[0], true_min(net, readings));
}

TEST(Coordinator, NeverReturnsIncorrectResult) {
  // Theorem 2: whatever the dropper does, a returned result equals the
  // honest minimum (here the malicious sensor reports its honest reading,
  // so the true min is the global min).
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto topo = Topology::grid(5, 5);
    const auto malicious = choose_malicious(topo, 3, seed);
    Network net(topo, dense_keys(0, seed));
    Adversary adv(&net, malicious,
                  named_genome(NamedAttack::kDrop).strategy());
    CoordinatorSpec cfg;
    cfg.depth_bound = topo.depth(malicious);
    cfg.seed = seed;
    VmatCoordinator coordinator(&net, &adv, cfg);
    const auto readings = default_readings(net.node_count());
    const auto out = coordinator.run_min(readings);
    if (out.kind == OutcomeKind::kResult)
      EXPECT_LE(out.minima[0], true_min(net, readings, malicious))
          << "seed " << seed;
    else
      EXPECT_TRUE(revocations_sound(net, malicious)) << "seed " << seed;
  }
}

TEST(Coordinator, RecoversFromEveryAttackFamily) {
  const auto topo = Topology::grid(5, 5);
  const auto readings = default_readings(25);

  const std::pair<NamedAttack, LiePolicy> attacks[] = {
      {NamedAttack::kSilent, LiePolicy::kDenyAll},
      {NamedAttack::kDrop, LiePolicy::kAdmitAll},
      {NamedAttack::kJunk, LiePolicy::kDenyAll},
      {NamedAttack::kChoke, LiePolicy::kRandom},
      {NamedAttack::kSelfVeto, LiePolicy::kDenyAll},
  };

  for (const auto& [attack, lie] : attacks) {
    const std::string_view name = campaign::to_string(attack);
    const auto malicious = choose_malicious(topo, 2, 17);
    Network net(topo, dense_keys(0, 99));
    Adversary adv(&net, malicious, named_genome(attack, lie).strategy());
    CoordinatorSpec cfg;
    cfg.depth_bound = topo.depth(malicious);
    VmatCoordinator coordinator(&net, &adv, cfg);
    const auto history = testing::until_result(coordinator, readings, 600);
    EXPECT_TRUE(history.back().produced_result()) << name;
    EXPECT_TRUE(revocations_sound(net, malicious)) << name;
    // Honest material intact: the final minimum is the honest one.
    EXPECT_LE(history.back().minima[0], true_min(net, readings, malicious))
        << name;
  }
}

TEST(Coordinator, MultipathModeWorksEndToEnd) {
  Network net(Topology::grid(5, 5), dense_keys());
  CoordinatorSpec cfg;
  cfg.multipath = true;
  VmatCoordinator coordinator(&net, nullptr, cfg);
  const auto readings = default_readings(net.node_count());
  const auto out = coordinator.run_min(readings);
  ASSERT_EQ(out.kind, OutcomeKind::kResult);
  EXPECT_EQ(out.minima[0], true_min(net, readings));
}

TEST(Coordinator, MultipathToleratesSingleDropperWithoutPinpointing) {
  // Section IV-D: with ring aggregation a single silent parent usually
  // cannot suppress the minimum, so the run completes with a result.
  const auto topo = Topology::grid(5, 5);
  Network net(topo, dense_keys());
  Adversary adv(&net, {NodeId{7}},
                named_genome(NamedAttack::kSilent).strategy());
  CoordinatorSpec cfg;
  cfg.multipath = true;
  cfg.depth_bound = topo.depth({NodeId{7}});
  VmatCoordinator coordinator(&net, &adv, cfg);
  const auto readings = default_readings(net.node_count());
  const auto out = coordinator.run_min(readings);
  ASSERT_EQ(out.kind, OutcomeKind::kResult);
  EXPECT_EQ(out.minima[0], true_min(net, readings, {NodeId{7}}));
}

TEST(Coordinator, SelfIncriminationRevokesTheSigner) {
  // A malicious sensor sends a *valid-MAC* veto with an impossible level.
  class BadLevelVeto final : public PolicyStrategy {
   public:
    BadLevelVeto() : PolicyStrategy(LiePolicy::kDenyAll) {}
    void on_conf_slot(AdversaryView& view, const ConfCtx& ctx) override {
      if (ctx.slot != 1) return;
      const NodeId m = *view.malicious().begin();
      const Reading value = (*ctx.broadcast_minima)[0] == kInfinity
                                ? 0
                                : (*ctx.broadcast_minima)[0] - 1;
      const VetoMsg veto = make_veto(view.sensor_key(m), m, 0, value,
                                     /*level=*/9999, ctx.nonce);
      const Bytes frame = encode(veto);
      for (NodeId v : view.net().topology().neighbors(m)) {
        const auto key = view.attack_key_for(v);
        if (key.has_value()) (void)view.inject(m, v, m, *key, frame);
      }
    }
  };
  const auto topo = Topology::grid(4, 4);
  Network net(topo, dense_keys());
  Adversary adv(&net, {NodeId{5}}, std::make_unique<BadLevelVeto>());
  CoordinatorSpec cfg;
  cfg.depth_bound = topo.depth({NodeId{5}});
  VmatCoordinator coordinator(&net, &adv, cfg);
  const auto out = coordinator.run_min(default_readings(16));
  ASSERT_EQ(out.kind, OutcomeKind::kRevocation);
  EXPECT_EQ(out.trigger, Trigger::kSelfIncrimination);
  ASSERT_FALSE(out.revoked_sensors.empty());
  EXPECT_EQ(out.revoked_sensors.front(), NodeId{5});
}

TEST(Coordinator, EmptyNetworkMinIsInfinity) {
  Network net(Topology::line(4), dense_keys());
  CoordinatorSpec cfg;
  cfg.instances = 1;
  VmatCoordinator coordinator(&net, nullptr, cfg);
  const ValueTable values(4, 1, kInfinity);
  const ValueTable weights(4, 1, 0);
  const auto out = coordinator.execute(values, weights);
  ASSERT_EQ(out.kind, OutcomeKind::kResult);
  EXPECT_EQ(out.minima[0], kInfinity);
}

TEST(Coordinator, ValidatesInputSizes) {
  // Every entry point checks node count and width first: a malformed input
  // throws before anything is formed, restored, broadcast or recorded.
  constexpr std::uint32_t n = 16;
  const auto topo = Topology::grid(4, 4);
  Network net(topo, dense_keys());
  VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
  FlightRecorder recorder;
  coordinator.set_recorder(&recorder);
  const ValueTable weights(n, 1, 0);
  ValueTable short_data(n, 1, 1);
  short_data.data.pop_back();

  EXPECT_THROW((void)coordinator.execute(ValueTable(3, 1, 1), weights),
               std::invalid_argument);
  EXPECT_THROW((void)coordinator.execute(ValueTable(n, 2, 1),
                                         ValueTable(n, 2, 0)),
               std::invalid_argument);  // 2 wide; the coordinator runs 1
  EXPECT_THROW((void)coordinator.execute(short_data, weights),
               std::invalid_argument);
  EXPECT_EQ(coordinator.formations_run(), 0u);
  EXPECT_TRUE(recorder.events().empty());

  (void)coordinator.prepare_epoch();
  ASSERT_TRUE(coordinator.epoch_ready());
  const std::size_t events = recorder.events().size();
  EXPECT_THROW((void)coordinator.run_min({1, 2}), std::invalid_argument);
  EXPECT_THROW((void)coordinator.run_query(ValueTable(n, 2, 1), weights),
               std::invalid_argument);
  EXPECT_THROW((void)coordinator.run_query(ValueTable(3, 1, 1),
                                           ValueTable(3, 1, 0)),
               std::invalid_argument);
  EXPECT_THROW((void)coordinator.run_query(ValueTable(n, 0, 1),
                                           ValueTable(n, 0, 0)),
               std::invalid_argument);

  // A twin's capture is compatible, so only the readings are wrong.
  Network twin_net(topo, dense_keys());
  VmatCoordinator twin(&twin_net, nullptr, CoordinatorSpec{});
  const Snapshot snapshot = twin.snapshot_after_formation();
  EXPECT_THROW((void)coordinator.resume_min(snapshot, {1, 2}),
               std::invalid_argument);

  EXPECT_EQ(coordinator.formations_run(), 1u);
  EXPECT_TRUE(coordinator.epoch_ready());
  EXPECT_EQ(recorder.events().size(), events);
}

TEST(Coordinator, InstancesZeroRejected) {
  Network net(Topology::line(4), dense_keys());
  CoordinatorSpec cfg;
  cfg.instances = 0;
  EXPECT_THROW(VmatCoordinator(&net, nullptr, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace vmat
