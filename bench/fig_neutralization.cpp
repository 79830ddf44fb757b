// FIG-NEUT — quantifies the abstract's core promise: "malicious sensors
// can only ruin the aggregation result for a small number of times before
// they are fully revoked".
//
// For f ∈ {1,2,4} junk-injecting attackers and several θ settings we run
// repeated queries until the adversary is permanently neutralized, and
// report how many queries it managed to disrupt, how many of its keys were
// individually pinpointed, and whether any honest sensor was caught in a
// θ cascade. The sparse-key regime (mean pairwise ring overlap 2) matches
// the Figure 7 analysis scaled to simulator size.
//
// The repeated-query loop serves each query over the current epoch
// (prepare_epoch + run_query) instead of re-forming a tree per execution:
// the protocol only demands re-formation when a revocation invalidates the
// epoch, so the quiet tail of every campaign — and every disruption that
// exposes no key — reuses the formed tree. The "formations" column counts
// what that reuse saves versus one formation per query.
#include <cstdio>
#include <memory>

#include "campaign/strategy.h"
#include "core/coordinator.h"
#include "spec/attack_spec.h"
#include "trial_runner.h"
#include "util/stats.h"

namespace {

struct Outcome {
  int executions{0};
  int disrupted{0};
  std::uint64_t formations{0};
  std::size_t pinpointed{0};
  std::size_t attackers_fully_revoked{0};
  std::size_t honest_revoked{0};
  bool recovered{false};
};

Outcome run_campaign(std::uint32_t f, std::uint32_t theta,
                     std::uint64_t seed) {
  const auto topo = vmat::Topology::random_geometric(60, 0.32, seed);

  vmat::NetworkSpec netcfg;
  netcfg.keys.pool_size = 800;
  netcfg.keys.ring_size = 40;
  netcfg.keys.seed = seed;
  netcfg.revocation_threshold = theta;
  vmat::Network net(topo, netcfg);
  (void)net.establish_path_keys();

  // The attack, declaratively: the named junk genome (spurious minima in
  // the first aggregation slot), under the sensors' own names.
  vmat::campaign::Genome junk =
      vmat::campaign::named_genome(vmat::campaign::NamedAttack::kJunk);
  junk.policy.frame_honest_origin = false;
  vmat::AttackSpec attack;
  attack.compromised(f).placement_seed(seed + 5);
  attack.policy(junk.policy).when(junk.when);
  auto built = attack.build(net);
  if (!built.has_value()) {
    std::fprintf(stderr, "FIG-NEUT: %s\n", built.error().to_string().c_str());
    std::exit(1);
  }
  std::unique_ptr<vmat::Adversary> adv = std::move(built.value());
  const auto& malicious = adv->malicious();

  vmat::CoordinatorSpec cfg;
  cfg.depth_bound = topo.depth(malicious) + 2;
  cfg.seed = seed;
  vmat::VmatCoordinator coordinator(&net, adv.get(), cfg);

  vmat::ValueTable values(net.node_count(), 1, 0);
  for (std::uint32_t id = 0; id < net.node_count(); ++id)
    values.data[id] = 100 + static_cast<vmat::Reading>(id);
  const vmat::ValueTable weights(net.node_count(), 1, 0);

  Outcome out;
  int consecutive_results = 0;
  for (int e = 0; e < 400 && consecutive_results < 5; ++e) {
    if (!coordinator.epoch_ready()) (void)coordinator.prepare_epoch();
    const auto r = coordinator.run_query(values, weights);
    ++out.executions;
    if (r.produced_result()) {
      ++consecutive_results;
    } else {
      consecutive_results = 0;
      ++out.disrupted;
    }
  }
  out.recovered = consecutive_results >= 5;
  out.formations = coordinator.formations_run();
  out.pinpointed = net.revocation().pinpointed_key_count();
  for (vmat::NodeId m : malicious)
    if (net.revocation().is_sensor_revoked(m)) ++out.attackers_fully_revoked;
  for (vmat::NodeId s : net.revocation().revoked_sensors_in_order())
    if (!malicious.contains(s)) ++out.honest_revoked;
  return out;
}

}  // namespace

int main() {
  std::printf(
      "FIG-NEUT | disrupted queries before permanent recovery (junk "
      "injectors, geometric n=60, sparse rings r=40/u=800)\n\n");

  vmat::bench::BenchReport report("fig_neutralization");
  report.config("nodes", static_cast<std::int64_t>(60));
  report.config("pool", static_cast<std::int64_t>(800));
  report.config("ring", static_cast<std::int64_t>(40));

  // The nine campaigns are independent deterministic runs (each fixes its
  // own seed; the engine rng is unused) — fan them out over the trial pool.
  struct Config {
    std::uint32_t f;
    std::uint32_t theta;
  };
  std::vector<Config> configs;
  for (const std::uint32_t f : {1u, 2u, 4u})
    for (const std::uint32_t theta : {0u, 8u, 14u})
      configs.push_back({f, theta});
  std::vector<Outcome> outcomes(configs.size());
  auto& group = report.group("campaigns");
  vmat::bench::timed_trials(group, configs.size(), 0,
                            [&](std::size_t i, vmat::Rng&) {
                              outcomes[i] = run_campaign(
                                  configs[i].f, configs[i].theta,
                                  40 + configs[i].f);
                            });

  vmat::TablePrinter table({"f", "theta", "queries disrupted",
                            "keys pinpointed", "attackers fully revoked",
                            "honest mis-revoked", "formations",
                            "recovered"});
  double total_queries = 0, total_formations = 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const Outcome& o = outcomes[i];
    total_queries += o.executions;
    total_formations += static_cast<double>(o.formations);
    table.add_row({std::to_string(configs[i].f),
                   configs[i].theta == 0 ? "off"
                                         : std::to_string(configs[i].theta),
                   std::to_string(o.disrupted),
                   std::to_string(o.pinpointed),
                   std::to_string(o.attackers_fully_revoked) + "/" +
                       std::to_string(configs[i].f),
                   std::to_string(o.honest_revoked),
                   std::to_string(o.formations) + "/" +
                       std::to_string(o.executions),
                   o.recovered ? "yes" : "NO"});
  }
  table.print();
  report.result("queries", total_queries);
  report.result("formations", total_formations);
  report.result("formation_reuse",
                total_queries > 0 ? 1.0 - total_formations / total_queries
                                  : 0.0);
  report.write();

  std::printf(
      "\nShape checks vs paper: every campaign recovers, and the number of "
      "ruined queries is bounded by the\nadversary's exposable keys. With "
      "theta off an attacker is only stopped by exhausting its ring key\n"
      "by key; any finite theta fully revokes it after theta pinpointed "
      "keys, and the smaller theta wins\n(Section VI-C: smaller thresholds "
      "revoke faster). At this sparse-ring scale (overlap ~2) even\n"
      "theta=8 revokes no honest sensor -- the mis-revocation side of the "
      "tradeoff needs fig7's r=250\nrings to bite. Epoch reuse pays for "
      "the whole quiet tail: formations stay at one per disrupted\n"
      "query plus the formation-free recovery streak.\n");
  return 0;
}
