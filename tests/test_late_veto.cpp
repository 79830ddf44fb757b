// Regression tests for late/replayed spurious vetoes: in unslotted SOF a
// spurious veto can reach the base station in an interval far beyond L+1;
// the junk-confirmation walk must track the longer trail (its step budget
// follows the arrival interval) and still end in a sound revocation.
#include <gtest/gtest.h>

#include "core/coordinator.h"
#include "helpers.h"

namespace vmat {
namespace {

using testing::default_readings;
using testing::dense_keys;
using testing::revocations_sound;

/// Injects one *spurious* veto (bogus MAC) very late in the confirmation
/// phase — only meaningful when SOF runs unslotted.
class LateSpuriousVeto final : public PolicyStrategy {
 public:
  explicit LateSpuriousVeto(Interval inject_at)
      : PolicyStrategy(LiePolicy::kDenyAll), inject_at_(inject_at) {}

  void on_conf_slot(AdversaryView& view, const ConfCtx& ctx) override {
    if (ctx.slot != inject_at_) return;
    for (NodeId m : view.malicious()) {
      VetoMsg junk;
      junk.origin = m;
      junk.instance = 0;
      junk.value = (*ctx.broadcast_minima)[0] == kInfinity
                       ? -1
                       : (*ctx.broadcast_minima)[0] - 1;
      junk.level = 1;
      const Bytes frame = encode(junk);
      for (NodeId v : view.net().topology().neighbors(m)) {
        if (view.is_malicious(v)) continue;
        const auto key = view.attack_key_for(v);
        if (key.has_value()) (void)view.inject(m, v, m, *key, frame);
      }
    }
  }

 private:
  Interval inject_at_;
};

TEST(LateVeto, UnslottedLateSpuriousVetoIsWalkedSoundly) {
  const auto topo = Topology::grid(5, 5);
  const auto malicious = choose_malicious(topo, 1, 3);
  Network net(topo, dense_keys());
  const Level L = topo.depth(malicious);
  Adversary adv(&net, malicious,
                std::make_unique<LateSpuriousVeto>(/*inject_at=*/3 * L));
  CoordinatorSpec cfg;
  cfg.depth_bound = L;
  cfg.slotted_sof = false;  // the only mode where late injection can land
  VmatCoordinator coordinator(&net, &adv, cfg);
  const auto out = coordinator.run_min(default_readings(25));
  ASSERT_EQ(out.kind, OutcomeKind::kRevocation);
  EXPECT_EQ(out.trigger, Trigger::kJunkConfirmation);
  EXPECT_TRUE(revocations_sound(net, malicious)) << out.reason;
}

TEST(LateVeto, SlottedSofIgnoresLateInjection) {
  // With slotted SOF the phase is over before the replay slot: the attack
  // simply never lands and the query completes.
  const auto topo = Topology::grid(5, 5);
  const auto malicious = choose_malicious(topo, 1, 3);
  Network net(topo, dense_keys());
  const Level L = topo.depth(malicious);
  Adversary adv(&net, malicious,
                std::make_unique<LateSpuriousVeto>(/*inject_at=*/3 * L));
  CoordinatorSpec cfg;
  cfg.depth_bound = L;
  VmatCoordinator coordinator(&net, &adv, cfg);
  const auto readings = default_readings(25);
  const auto out = coordinator.run_min(readings);
  ASSERT_EQ(out.kind, OutcomeKind::kResult);
  EXPECT_EQ(out.minima[0], testing::true_min(net, readings, malicious));
}

TEST(LateVeto, UnslottedCampaignStillConverges) {
  const auto topo = Topology::grid(5, 5);
  const auto malicious = choose_malicious(topo, 2, 5);
  Network net(topo, dense_keys());
  const Level L = topo.depth(malicious);
  Adversary adv(&net, malicious,
                std::make_unique<LateSpuriousVeto>(2 * L));
  CoordinatorSpec cfg;
  cfg.depth_bound = L;
  cfg.slotted_sof = false;
  VmatCoordinator coordinator(&net, &adv, cfg);
  const auto readings = default_readings(25);
  const auto history = testing::until_result(coordinator, readings, 400);
  EXPECT_TRUE(history.back().produced_result());
  EXPECT_TRUE(revocations_sound(net, malicious));
}

}  // namespace
}  // namespace vmat
