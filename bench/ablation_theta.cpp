// TXT-THETA — Section I / VI-C: "we show that this can often reduce the
// number of keys that need to be individually revoked by over 90%".
//
// Two views:
//  * analytic (paper parameters u=100,000, r=250): θ*(f) = the smallest
//    threshold with ~zero mis-revocation (from the Figure 7 simulation);
//    the saving is 1 - θ*/r, since a malicious sensor is fully revoked
//    after θ* individually pinpointed keys instead of all r.
//  * campaign (protocol-in-the-loop): a junk-injecting attacker is run to
//    exhaustion with and without threshold revocation; we count the keys
//    that needed an individual pinpointing walk.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "attack/strategies.h"
#include "campaign/strategy.h"
#include "core/coordinator.h"
#include "trial_runner.h"
#include "util/random.h"
#include "util/stats.h"

namespace {

constexpr std::uint32_t kPool = 100000;
constexpr std::uint32_t kRing = 250;

/// Smallest θ with zero mis-revoked honest sensors across trials
/// (paper parameters; same computation as the Figure 7 bench). Trials run
/// on the parallel engine; the reduction (max over per-trial worst
/// overlaps) is order-independent.
std::uint32_t theta_star(std::uint32_t n, std::uint32_t f,
                         std::size_t n_trials, std::uint64_t seed,
                         vmat::bench::TrialGroup& group) {
  std::vector<std::uint32_t> per_trial_worst(n_trials, 0);

  vmat::bench::timed_trials(
      group, n_trials, seed, [&](std::size_t trial, vmat::Rng& rng) {
        std::vector<std::uint32_t> stamps(kPool, 0);
        std::vector<std::uint8_t> adversary(kPool, 0);
        std::vector<std::uint32_t> ring;
        std::uint32_t mark = 0;
        std::uint32_t worst = 0;

        auto draw = [&](std::uint32_t m) {
          ring.clear();
          while (ring.size() < kRing) {
            const auto k = static_cast<std::uint32_t>(rng.below(kPool));
            if (stamps[k] == m) continue;
            stamps[k] = m;
            ring.push_back(k);
          }
        };

        for (std::uint32_t m = 0; m < f; ++m) {
          draw(++mark);
          for (auto k : ring) adversary[k] = 1;
        }
        for (std::uint32_t h = f; h < n; ++h) {
          draw(++mark);
          std::uint32_t overlap = 0;
          for (auto k : ring) overlap += adversary[k];
          worst = std::max(worst, overlap);
        }
        per_trial_worst[trial] = worst;
      });

  return *std::max_element(per_trial_worst.begin(), per_trial_worst.end()) + 1;
}

struct CampaignCost {
  std::size_t pinpointed;
  std::size_t executions;
  bool attacker_dead;
};

CampaignCost run_campaign(std::uint32_t theta, std::uint64_t seed) {
  const auto topo = vmat::Topology::random_geometric(40, 0.4, seed);
  vmat::NodeId attacker{1};
  for (std::uint32_t id = 2; id < topo.node_count(); ++id)
    if (topo.degree(vmat::NodeId{id}) > topo.degree(attacker))
      attacker = vmat::NodeId{id};

  vmat::NetworkSpec netcfg;
  netcfg.keys.pool_size = 800;
  netcfg.keys.ring_size = 40;
  netcfg.keys.seed = seed;
  netcfg.revocation_threshold = theta;
  vmat::Network net(topo, netcfg);
  vmat::campaign::Genome junk =
      vmat::campaign::named_genome(vmat::campaign::NamedAttack::kJunk);
  junk.policy.frame_honest_origin = false;
  vmat::Adversary adv(&net, {attacker}, junk.strategy());
  vmat::CoordinatorSpec cfg;
  cfg.depth_bound =
      topo.depth(std::unordered_set<vmat::NodeId>{attacker}) + 2;
  cfg.seed = seed;
  vmat::VmatCoordinator coordinator(&net, &adv, cfg);

  vmat::ValueTable values(net.node_count(), 1, 0);
  for (std::uint32_t id = 0; id < net.node_count(); ++id)
    values.data[id] = 100 + static_cast<vmat::Reading>(id);
  const vmat::ValueTable weights(net.node_count(), 1, 0);
  // Serve the retry loop over the current epoch instead of re-forming a
  // tree per execution (the execute() path): revocations invalidate the
  // epoch — the protocol's actual re-formation rule — and everything else
  // reuses the formed tree.
  std::size_t executions = 0;
  for (; executions < 500; ) {
    if (!coordinator.epoch_ready()) (void)coordinator.prepare_epoch();
    const auto outcome = coordinator.run_query(values, weights);
    ++executions;
    if (outcome.produced_result()) break;
  }
  return {net.revocation().pinpointed_key_count(), executions,
          net.revocation().is_sensor_revoked(attacker)};
}

}  // namespace

int main() {
  const std::size_t n_trials = vmat::bench::trials(30);
  std::printf(
      "TXT-THETA | threshold revocation: individually pinpointed keys "
      "saved by announcing the ring seed at theta\n\n");

  vmat::bench::BenchReport report("ablation_theta");
  report.config("pool", static_cast<std::int64_t>(kPool));
  report.config("ring", static_cast<std::int64_t>(kRing));
  report.config("trials", static_cast<std::int64_t>(n_trials));

  {
    vmat::TablePrinter table({"f", "theta* (zero mis-revocation)",
                              "keys saved per malicious ring",
                              "saving vs r=250"});
    for (const std::uint32_t f : {1u, 5u, 10u, 20u}) {
      auto& group = report.group("theta_star f=" + std::to_string(f));
      const auto t = theta_star(1000, f, n_trials, 0xabc0 + f, group);
      group.metric("theta_star", t);
      table.add_row(
          {std::to_string(f), std::to_string(t),
           std::to_string(kRing - t),
           vmat::TablePrinter::fmt(100.0 * (kRing - t) / kRing, 1) + "%"});
    }
    std::printf("analytic view (u=%u, r=%u, n=1000, %zu trials):\n", kPool,
                kRing, n_trials);
    table.print();
    std::printf("\n");
  }

  {
    // Campaigns are independent protocol-in-the-loop runs — fan the four
    // theta configurations out over the trial engine (the campaign itself
    // is deterministic from its fixed seed; the engine rng is unused).
    const std::uint32_t thetas[] = {0u, 6u, 10u, 16u};
    std::vector<CampaignCost> costs(std::size(thetas));
    auto& group = report.group("campaign");
    vmat::bench::timed_trials(group, std::size(thetas), 0,
                              [&](std::size_t i, vmat::Rng&) {
                                costs[i] = run_campaign(thetas[i], 3);
                              });
    vmat::TablePrinter table({"theta", "executions to kill attacker",
                              "individually pinpointed keys",
                              "attacker fully revoked"});
    for (std::size_t i = 0; i < std::size(thetas); ++i) {
      const auto& c = costs[i];
      table.add_row({thetas[i] == 0 ? "off" : std::to_string(thetas[i]),
                     std::to_string(c.executions),
                     std::to_string(c.pinpointed),
                     c.attacker_dead ? "yes" : "no (keys exhausted instead)"});
    }
    std::printf(
        "campaign view (junk-injecting attacker, sparse rings r=40/u=800, "
        "ring overlap ~2):\n");
    table.print();
  }
  report.write();

  std::printf(
      "\nShape checks vs paper: theta* stays around 7..30 — an order of "
      "magnitude below r=250 — so over 90%%\nof a malicious ring never needs "
      "an individual pinpointing walk; in-protocol, threshold revocation\n"
      "kills the attacker after ~theta executions instead of one per "
      "exposed key.\n");
  return 0;
}
