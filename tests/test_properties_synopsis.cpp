// Theorem 7 property sweep for *synopsis* (COUNT) queries served through
// the Engine: under every attack family, each execution must either answer
// within the estimator's statistical bounds or soundly revoke, and the
// query must converge within its execution budget. Complements the
// plain-MIN sweep in test_properties.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "helpers.h"

namespace vmat {
namespace {

using campaign::named_genome;
using campaign::NamedAttack;
using testing::count_query;
using testing::dense_keys;
using testing::revocations_sound;

enum class Family { kSilent, kValueDrop, kJunk, kChoke, kRandom };

const char* family_name(Family f) {
  switch (f) {
    case Family::kSilent: return "Silent";
    case Family::kValueDrop: return "ValueDrop";
    case Family::kJunk: return "Junk";
    case Family::kChoke: return "Choke";
    case Family::kRandom: return "Random";
  }
  return "?";
}

std::unique_ptr<AdversaryStrategy> make_strategy(Family f,
                                                 std::uint64_t seed) {
  switch (f) {
    case Family::kSilent:
      return named_genome(NamedAttack::kSilent).strategy();
    case Family::kValueDrop:
      return named_genome(NamedAttack::kDrop, LiePolicy::kAdmitAll).strategy();
    case Family::kJunk:
      return named_genome(NamedAttack::kJunk, LiePolicy::kRandom).strategy();
    case Family::kChoke:
      return named_genome(NamedAttack::kChoke).strategy();
    case Family::kRandom:
      return std::make_unique<RandomByzantineStrategy>(seed);
  }
  return nullptr;
}

using Params = std::tuple<Family, std::uint64_t>;

class SynopsisSweep : public ::testing::TestWithParam<Params> {};

TEST_P(SynopsisSweep, CountQueriesConvergeAndStaySound) {
  const Family family = std::get<0>(GetParam());
  const std::uint64_t seed = std::get<1>(GetParam());

  const auto topo = Topology::grid(5, 5);
  const auto malicious = choose_malicious(topo, 2, seed + 31);
  Network net(topo, dense_keys(0, seed));
  Adversary adv(&net, malicious, make_strategy(family, seed));
  CoordinatorSpec cfg;
  cfg.instances = 40;
  cfg.depth_bound = topo.depth(malicious);
  cfg.seed = seed;
  VmatCoordinator coordinator(&net, &adv, cfg);
  Engine engine(&coordinator);

  std::vector<std::uint8_t> predicate(25, 0);
  std::uint32_t honest_true = 0;
  for (std::uint32_t id = 1; id < 25; ++id) {
    predicate[id] = 1;
    if (!malicious.contains(NodeId{id})) ++honest_true;
  }
  ASSERT_TRUE(engine.submit(count_query(predicate, 500)).has_value());

  // One execution per step: every step stays sound, and a step that raised
  // disrupted_executions revoked something.
  const RevocationRegistry& registry = net.revocation();
  std::uint64_t disrupted = 0;
  std::size_t keys = 0, sensors = 0;
  for (bool open = true; open;) {
    open = engine.step();
    ASSERT_TRUE(revocations_sound(net, malicious)) << "seed " << seed;
    if (engine.stats().disrupted_executions > disrupted) {
      ASSERT_TRUE(registry.revoked_key_count() > keys ||
                  registry.revoked_sensors_in_order().size() > sensors)
          << "seed " << seed << ": disrupted but revoked nothing";
    }
    disrupted = engine.stats().disrupted_executions;
    keys = registry.revoked_key_count();
    sensors = registry.revoked_sensors_in_order().size();
  }
  const auto results = engine.take_ready();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].answered())
      << "never answered within 500 executions";
  // Answered: within the 40-instance estimator's generous tail, against
  // the population the adversary could legally shape (honest_true .. all
  // 24 sensors self-reporting true).
  EXPECT_GT(*results[0].estimate, honest_true * 0.35) << "seed " << seed;
  EXPECT_LT(*results[0].estimate, 24 * 2.2) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Families, SynopsisSweep,
    ::testing::Combine(::testing::Values(Family::kSilent, Family::kValueDrop,
                                         Family::kJunk, Family::kChoke,
                                         Family::kRandom),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3})),
    [](const ::testing::TestParamInfo<Params>& info) {
      return std::string(family_name(std::get<0>(info.param))) +
             std::to_string(std::get<1>(info.param));
    });

TEST(SynopsisSweepLarge, GeometricNetworkFiveByzantines) {
  const auto topo = Topology::random_geometric(80, 0.24, 11);
  const auto malicious = choose_malicious(topo, 5, 13);
  Network net(topo, dense_keys(0, 11));
  Adversary adv(&net, malicious,
                std::make_unique<RandomByzantineStrategy>(99));
  CoordinatorSpec cfg;
  cfg.instances = 30;
  cfg.depth_bound = topo.depth(malicious);
  VmatCoordinator coordinator(&net, &adv, cfg);
  Engine engine(&coordinator);
  std::vector<std::uint8_t> predicate(net.node_count(), 1);
  predicate[0] = 0;
  const auto out = engine.run_batch({count_query(predicate, 500)}).front();
  ASSERT_TRUE(out.answered());
  EXPECT_TRUE(revocations_sound(net, malicious));
  EXPECT_GT(*out.estimate, (net.node_count() - 6) * 0.3);
}

}  // namespace
}  // namespace vmat
