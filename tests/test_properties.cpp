// Theorem 7 property sweep: for every strategy family x topology x seed,
// each execution either returns the correct minimum or revokes key material
// held by the adversary; honest sensors are never revoked; and repeated
// executions always converge to a result (strictly diminishing adversary).
//
// Every sweep runs with the flight recorder attached and validates the
// recorded stream with the trace-invariant checker, so the Lemma 1 /
// Theorem 7 trace properties are exercised across every named attack and
// the RandomByzantine fuzzer.
// Set VMAT_TRACE_DIR to export each recording as JSON (CI feeds these to
// tools/check_trace.py).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>

#include "core/coordinator.h"
#include "helpers.h"
#include "trace/checker.h"

namespace vmat {
namespace {

using campaign::named_genome;
using campaign::NamedAttack;
using testing::default_readings;
using testing::dense_keys;
using testing::revocations_sound;
using testing::true_min;

/// The sweep's attack column: the named genomes in NamedAttack order, then
/// the coin-flip adversary no genome expresses. An int-sized enum, because
/// the generated test names print each parameter's bytes.
enum class Family {
  kSilent,
  kValueDrop,
  kJunk,
  kChoke,
  kSelfVeto,
  kRandomByzantine,
};
static_assert(static_cast<int>(Family::kSelfVeto) ==
              static_cast<int>(NamedAttack::kSelfVeto));

std::string family_name(Family f) {
  switch (f) {
    case Family::kSilent: return "Silent";
    case Family::kValueDrop: return "ValueDrop";
    case Family::kJunk: return "Junk";
    case Family::kChoke: return "Choke";
    case Family::kSelfVeto: return "SelfVeto";
    case Family::kRandomByzantine: return "RandomByzantine";
  }
  return "?";
}

std::unique_ptr<AdversaryStrategy> make_strategy(Family f, LiePolicy policy,
                                                 std::uint64_t seed) {
  if (f == Family::kRandomByzantine)
    return std::make_unique<RandomByzantineStrategy>(seed);
  return named_genome(static_cast<NamedAttack>(f), policy).strategy();
}

/// Validate a sweep's recording against the trace invariants and, when
/// VMAT_TRACE_DIR is set, export it as <dir>/<current test name>.json.
void check_and_export(const FlightRecorder& recorder) {
  const auto check = check_trace(recorder);
  EXPECT_TRUE(check.ok()) << check.to_string();
  const char* dir = std::getenv("VMAT_TRACE_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." + info->name();
  for (char& c : name)
    if (c == '/') c = '_';
  EXPECT_TRUE(recorder.write_json(std::string(dir) + "/" + name + ".json"));
}

enum class Shape { kGrid, kGeometric };

Topology make_topology(Shape shape, std::uint64_t seed) {
  switch (shape) {
    case Shape::kGrid:
      return Topology::grid(5, 5);
    case Shape::kGeometric:
      return Topology::random_geometric(40, 0.3, seed);
  }
  return Topology::line(2);
}

using Params = std::tuple<Family, LiePolicy, Shape, std::uint64_t>;

class Theorem7Sweep : public ::testing::TestWithParam<Params> {};

TEST_P(Theorem7Sweep, EveryExecutionResultsOrSoundlyRevokes) {
  const auto [family, policy, shape, seed] = GetParam();
  const Topology topo = make_topology(shape, seed);
  const auto malicious = choose_malicious(topo, 3, seed * 13 + 1);
  Network net(topo, dense_keys(/*theta=*/0, seed));
  Adversary adv(&net, malicious, make_strategy(family, policy, seed));
  CoordinatorSpec cfg;
  cfg.depth_bound = topo.depth(malicious);
  cfg.seed = seed;
  VmatCoordinator coordinator(&net, &adv, cfg);
  FlightRecorder recorder;
  coordinator.set_recorder(&recorder);

  const auto readings = default_readings(net.node_count());
  const ValueTable values = testing::one_instance(readings);
  const ValueTable weights(values.node_count, 1, 0);

  int executions = 0;
  for (; executions < 400; ++executions) {
    const auto out = coordinator.execute(values, weights);
    // Soundness after every single execution.
    ASSERT_TRUE(revocations_sound(net, malicious))
        << family_name(family) << " execution " << executions << ": "
        << out.reason;
    if (out.kind == OutcomeKind::kResult) {
      // Theorem 2: a returned result never exceeds the honest minimum
      // (malicious sensors may legally self-report or hide their own
      // readings, so it can be smaller).
      EXPECT_LE(out.minima[0], true_min(net, readings, malicious));
      // And it cannot be a fabrication below anything any sensor could
      // have signed (RandomByzantine's own_reading shifts by >= -5).
      EXPECT_GE(out.minima[0], 101 - 5);
      break;
    }
    // Theorem 7: a non-result execution revoked something.
    ASSERT_FALSE(out.revoked_keys.empty() && out.revoked_sensors.empty())
        << family_name(family) << ": execution neither resulted nor revoked ("
        << out.reason << ")";
  }
  EXPECT_LT(executions, 400) << "adversary was never exhausted";
  check_and_export(recorder);
}

INSTANTIATE_TEST_SUITE_P(
    Families, Theorem7Sweep,
    ::testing::Combine(
        ::testing::Values(Family::kSilent, Family::kValueDrop, Family::kJunk,
                          Family::kChoke, Family::kSelfVeto,
                          Family::kRandomByzantine),
        ::testing::Values(LiePolicy::kDenyAll, LiePolicy::kAdmitAll,
                          LiePolicy::kRandom),
        ::testing::Values(Shape::kGrid, Shape::kGeometric),
        ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                          std::uint64_t{3})),
    [](const ::testing::TestParamInfo<Params>& info) {
      const Family family = std::get<0>(info.param);
      const LiePolicy policy = std::get<1>(info.param);
      const Shape shape = std::get<2>(info.param);
      std::string name = family_name(family);
      name += policy == LiePolicy::kDenyAll    ? "Deny"
              : policy == LiePolicy::kAdmitAll ? "Admit"
                                               : "Rand";
      name += shape == Shape::kGrid ? "Grid" : "Geo";
      name += std::to_string(std::get<3>(info.param));
      return name;
    });

// The multipath variant of the sweep (Section IV-D): same guarantees.
class Theorem7Multipath : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Theorem7Multipath, MultipathKeepsGuarantees) {
  const std::uint64_t seed = GetParam();
  const Topology topo = Topology::grid(5, 5);
  const auto malicious = choose_malicious(topo, 3, seed);
  Network net(topo, dense_keys(0, seed));
  Adversary adv(&net, malicious,
                named_genome(NamedAttack::kDrop, LiePolicy::kRandom)
                    .strategy());
  CoordinatorSpec cfg;
  cfg.depth_bound = topo.depth(malicious);
  cfg.multipath = true;
  cfg.seed = seed;
  VmatCoordinator coordinator(&net, &adv, cfg);
  FlightRecorder recorder;
  coordinator.set_recorder(&recorder);
  const auto readings = default_readings(net.node_count());
  const auto history = testing::until_result(coordinator, readings, 400);
  EXPECT_TRUE(history.back().produced_result());
  EXPECT_LE(history.back().minima[0], true_min(net, readings, malicious));
  EXPECT_TRUE(revocations_sound(net, malicious));
  check_and_export(recorder);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem7Multipath,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Unslotted-SOF ablation still satisfies the disjunction (just with longer
// trails; the length difference is measured in the ablation bench).
class UnslottedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UnslottedSweep, UnslottedSofStillSoundlyRevokes) {
  const std::uint64_t seed = GetParam();
  const Topology topo = Topology::grid(5, 5);
  const auto malicious = choose_malicious(topo, 2, seed);
  Network net(topo, dense_keys(0, seed));
  Adversary adv(&net, malicious,
                named_genome(NamedAttack::kChoke).strategy());
  CoordinatorSpec cfg;
  cfg.depth_bound = topo.depth(malicious);
  cfg.slotted_sof = false;
  cfg.seed = seed;
  VmatCoordinator coordinator(&net, &adv, cfg);
  FlightRecorder recorder;
  coordinator.set_recorder(&recorder);
  const auto readings = default_readings(net.node_count());
  const auto out = coordinator.run_min(readings);
  if (out.kind == OutcomeKind::kRevocation)
    EXPECT_TRUE(revocations_sound(net, malicious)) << out.reason;
  else
    EXPECT_LE(out.minima[0], true_min(net, readings, malicious));
  check_and_export(recorder);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnslottedSweep, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace vmat
