// Replay and direct-injection edge cases: nonce freshness makes vetoes
// from past executions spurious, and junk injected straight at the base
// station (skipping the whole aggregation chain) is pinned to the
// injector's own key.
#include <gtest/gtest.h>

#include "core/coordinator.h"
#include "helpers.h"

namespace vmat {
namespace {

using testing::default_readings;
using testing::dense_keys;
using testing::revocations_sound;

/// Records every veto its nodes overhear and replays the first one in all
/// later confirmation phases (a classic replay attack — the MAC is valid,
/// but for a stale nonce).
class ReplayOldVeto final : public PolicyStrategy {
 public:
  ReplayOldVeto() : PolicyStrategy(LiePolicy::kDenyAll) {}

  void on_conf_slot(AdversaryView& view, const ConfCtx& ctx) override {
    // Capture: remember anything overheard in earlier executions.
    for (NodeId m : view.malicious()) {
      const auto& seen = (*ctx.malicious_vetoes)[m.value];
      if (!captured_.has_value() && !seen.empty()) captured_ = seen.front();
    }
    if (ctx.slot != 1 || !captured_.has_value()) return;
    if (captured_nonce_ == 0) {
      captured_nonce_ = ctx.nonce;  // same execution: not a replay yet
      return;
    }
    if (ctx.nonce == captured_nonce_) return;
    const Bytes frame = encode(*captured_);
    for (NodeId m : view.malicious()) {
      for (NodeId v : view.net().topology().neighbors(m)) {
        if (view.is_malicious(v)) continue;
        const auto key = view.attack_key_for(v);
        if (key.has_value()) (void)view.inject(m, v, m, *key, frame);
      }
    }
  }

 private:
  std::optional<VetoMsg> captured_;
  std::uint64_t captured_nonce_{0};
};

TEST(Replay, StaleVetoFromPastExecutionIsSpuriousAndPinned) {
  // Path A 0-1-2-3-4 (2 malicious) + detour 0-5-6-7-8-4 so the honest
  // subgraph stays connected. Execution 1: node 2 drops node 4's minimum,
  // overhears the resulting veto. Later executions: it replays that veto.
  const std::vector<Edge> edges{
      {NodeId{0}, NodeId{1}}, {NodeId{1}, NodeId{2}}, {NodeId{2}, NodeId{3}},
      {NodeId{3}, NodeId{4}}, {NodeId{0}, NodeId{5}}, {NodeId{5}, NodeId{6}},
      {NodeId{6}, NodeId{7}}, {NodeId{7}, NodeId{8}}, {NodeId{8}, NodeId{4}}};
  const Topology topo(9, edges);

  Network net(topo, dense_keys());
  const std::unordered_set<NodeId> malicious{NodeId{2}};
  Adversary adv(&net, malicious, std::make_unique<ReplayOldVeto>());
  CoordinatorSpec cfg;
  cfg.depth_bound = topo.depth(malicious);
  VmatCoordinator coordinator(&net, &adv, cfg);

  auto readings = default_readings(9);
  readings[4] = 1;

  bool saw_replay_pinned = false;
  for (int e = 0; e < 20 && !saw_replay_pinned; ++e) {
    const auto out = coordinator.run_min(readings);
    ASSERT_TRUE(revocations_sound(net, malicious)) << out.reason;
    // A replayed stale veto fails the fresh-nonce MAC check and lands in
    // the junk-confirmation walk.
    saw_replay_pinned = out.trigger == Trigger::kJunkConfirmation;
  }
  EXPECT_TRUE(saw_replay_pinned)
      << "replayed veto was never classified as spurious";
}

/// Injects junk straight at the base station in an early slot, claiming an
/// absurdly deep level — the walk must start at the claimed level and
/// revoke the injection key without bothering anyone honest.
class DirectJunkAtBs final : public PolicyStrategy {
 public:
  DirectJunkAtBs() : PolicyStrategy(LiePolicy::kDenyAll) {}

  void on_agg_slot(AdversaryView& view, const AggCtx& ctx) override {
    if (ctx.slot != 1) return;  // earliest slot => claimed level = L
    for (NodeId m : view.malicious()) {
      if (!view.net().topology().has_edge(m, kBaseStation)) continue;
      AggMessage junk;
      junk.origin = m;
      junk.value = -999;
      const Bytes frame = encode(AggBundle{{junk}});
      const auto key = view.attack_key_for(kBaseStation);
      if (key.has_value())
        (void)view.inject(m, kBaseStation, m, *key, frame);
    }
  }
};

TEST(Replay, DirectEarlyJunkAtBaseStationPinsInjectorKey) {
  const auto topo = Topology::grid(4, 4);
  // Malicious node adjacent to the base station (corner 0): node 1.
  const std::unordered_set<NodeId> malicious{NodeId{1}};
  Network net(topo, dense_keys());
  Adversary adv(&net, malicious, std::make_unique<DirectJunkAtBs>());
  CoordinatorSpec cfg;
  cfg.depth_bound = topo.depth(malicious);
  VmatCoordinator coordinator(&net, &adv, cfg);
  const auto out = coordinator.run_min(default_readings(16));
  ASSERT_EQ(out.kind, OutcomeKind::kRevocation);
  EXPECT_EQ(out.trigger, Trigger::kJunkAggregation);
  ASSERT_EQ(out.revoked_keys.size(), 1u);
  // The blamed key is held by the injector.
  EXPECT_TRUE(net.keys().node_holds(NodeId{1}, out.revoked_keys[0]));
  EXPECT_TRUE(revocations_sound(net, malicious));
}

}  // namespace
}  // namespace vmat
