// Reporting-layer tests: summaries and descriptions carry the facts.
#include <gtest/gtest.h>

#include "core/report.h"
#include "helpers.h"

namespace vmat {
namespace {

using campaign::named_genome;
using campaign::NamedAttack;
using testing::default_readings;
using testing::dense_keys;

TEST(Report, EnumNames) {
  EXPECT_STREQ(to_string(Trigger::kNone), "none");
  EXPECT_STREQ(to_string(Trigger::kVeto), "veto");
  EXPECT_STREQ(to_string(Trigger::kJunkAggregation), "junk-aggregation");
  EXPECT_STREQ(to_string(Trigger::kJunkConfirmation), "junk-confirmation");
  EXPECT_STREQ(to_string(Trigger::kSelfIncrimination), "self-incrimination");
  EXPECT_STREQ(to_string(OutcomeKind::kResult), "result");
  EXPECT_STREQ(to_string(OutcomeKind::kRevocation), "revocation");
}

TEST(Report, ResultSummaryCarriesMinAndRounds) {
  Network net(Topology::grid(4, 4), dense_keys());
  VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
  const auto out = coordinator.run_min(default_readings(16));
  const std::string s = summarize(out);
  EXPECT_NE(s.find("result"), std::string::npos) << s;
  EXPECT_NE(s.find("101"), std::string::npos) << s;
  EXPECT_NE(s.find("6 rounds"), std::string::npos) << s;
  const std::string d = describe(out);
  EXPECT_NE(d.find("outcome:   result"), std::string::npos) << d;
}

TEST(Report, RevocationSummaryCarriesReason) {
  const auto topo = Topology::grid(4, 4);
  const auto malicious = choose_malicious(topo, 2, 7);
  Network net(topo, dense_keys());
  Adversary adv(&net, malicious,
                named_genome(NamedAttack::kJunk).strategy());
  CoordinatorSpec cfg;
  cfg.depth_bound = topo.depth(malicious);
  VmatCoordinator coordinator(&net, &adv, cfg);
  const auto out = coordinator.run_min(default_readings(16));
  ASSERT_EQ(out.kind, OutcomeKind::kRevocation);
  const std::string s = summarize(out);
  EXPECT_NE(s.find("revoked 1 key"), std::string::npos) << s;
  EXPECT_NE(s.find("junk-aggregation"), std::string::npos) << s;
  const std::string d = describe(out);
  EXPECT_NE(d.find("pinpoint:"), std::string::npos) << d;
}

TEST(Report, RevocationLedger) {
  Network net(Topology::grid(4, 4), dense_keys());
  (void)net.revocation().revoke_key(KeyIndex{3});
  (void)net.revocation().revoke_sensor(NodeId{5});
  const std::string s = describe_revocations(net);
  EXPECT_NE(s.find("1 pinpointed"), std::string::npos) << s;
  EXPECT_NE(s.find("revoked sensors: 1 5"), std::string::npos) << s;
  EXPECT_NE(s.find("disabled"), std::string::npos) << s;  // theta = 0
}

TEST(Report, DeploymentSummary) {
  Network net(Topology::grid(5, 5), dense_keys());
  const std::string s = describe_deployment(net);
  EXPECT_NE(s.find("sensors:  24"), std::string::npos) << s;
  EXPECT_NE(s.find("depth L=8"), std::string::npos) << s;
  EXPECT_NE(s.find("pool u=400"), std::string::npos) << s;
}

TEST(Report, InfinityMinimaRendered) {
  Network net(Topology::line(4), dense_keys());
  VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
  const ValueTable values(4, 1, kInfinity);
  const ValueTable weights(4, 1, 0);
  const auto out = coordinator.execute(values, weights);
  EXPECT_NE(summarize(out).find("inf"), std::string::npos);
}

}  // namespace
}  // namespace vmat
