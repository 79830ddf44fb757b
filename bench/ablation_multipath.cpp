// ABL-MULTI — ablation for Section IV-D: single-path (TAG-style) vs
// multi-path (synopsis-diffusion-style ring) aggregation under silent
// droppers.
//
// With multiple parents per sensor, the minimum usually routes around a
// dropper, so far fewer executions need the (expensive) pinpointing path
// at all. We measure the fraction of first executions disrupted across
// random dropper placements, and the average pinpointing rounds paid per
// query.
//
// Not eligible for snapshot-fork / epoch reuse: every trial draws a fresh
// dropper placement, and the malicious set must be fixed at formation time
// for a shared snapshot (the fork contract) — each placement genuinely
// needs its own tree.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "attack/strategies.h"
#include "campaign/strategy.h"
#include "core/coordinator.h"
#include "trial_runner.h"
#include "util/stats.h"

namespace {

using vmat::campaign::NamedAttack;

vmat::NetworkSpec bench_keys(std::uint64_t seed) {
  vmat::NetworkSpec cfg;
  cfg.keys.pool_size = 400;
  cfg.keys.ring_size = 120;
  cfg.keys.seed = seed;
  return cfg;
}

struct Row {
  int disrupted{0};
  int trials{0};
  double pinpoint_rounds{0.0};
};

Row run(bool multipath, std::uint32_t f, std::size_t trials,
        vmat::bench::TrialGroup& group) {
  // Per-trial slots, reduced serially below. Each trial keeps the seed
  // scheme 100 + t, so placements match the historical tables exactly.
  std::vector<std::uint8_t> disrupted(trials, 0);
  std::vector<int> rounds(trials, 0);

  vmat::bench::timed_trials(
      group, trials, 0, [&](std::size_t t, vmat::Rng&) {
        const std::uint64_t seed = 100 + static_cast<std::uint64_t>(t);
        const auto topo = vmat::Topology::grid(6, 6);
        const auto malicious = vmat::choose_malicious(topo, f, seed);
        vmat::Network net(topo, bench_keys(seed));
        vmat::Adversary adv(&net, malicious,
                            vmat::campaign::named_genome(NamedAttack::kSilent)
                                .strategy());
        vmat::CoordinatorSpec cfg;
        cfg.depth_bound = topo.depth(malicious);
        cfg.multipath = multipath;
        cfg.seed = seed;
        vmat::VmatCoordinator coordinator(&net, &adv, cfg);

        std::vector<vmat::Reading> readings(36);
        for (std::uint32_t id = 0; id < 36; ++id)
          readings[id] = 100 + static_cast<vmat::Reading>(id);
        // Put the minimum at the deepest honest sensor so it has the
        // longest gauntlet to run.
        const auto depth = topo.bfs_depth(malicious);
        std::uint32_t deepest = 1;
        for (std::uint32_t id = 1; id < 36; ++id)
          if (!malicious.contains(vmat::NodeId{id}) &&
              depth[id] > depth[deepest])
            deepest = id;
        readings[deepest] = 1;

        const auto out = coordinator.run_min(readings);
        if (!out.produced_result()) {
          disrupted[t] = 1;
          rounds[t] = out.pinpoint_cost.flooding_rounds;
        }
      });

  Row row;
  row.trials = static_cast<int>(trials);
  for (std::size_t t = 0; t < trials; ++t) {
    row.disrupted += disrupted[t];
    row.pinpoint_rounds += rounds[t];
  }
  row.pinpoint_rounds /= static_cast<double>(trials);
  return row;
}

}  // namespace

int main() {
  const std::size_t n_trials = vmat::bench::trials(40);
  std::printf(
      "ABL-MULTI | Section IV-D: single-path vs multi-path aggregation "
      "under silent droppers (grid 6x6, min at\nthe deepest honest sensor, "
      "%zu random placements per row)\n\n",
      n_trials);

  vmat::bench::BenchReport report("ablation_multipath");
  report.config("trials", static_cast<std::int64_t>(n_trials));

  vmat::TablePrinter table({"f droppers", "mode", "first execution disrupted",
                            "avg pinpoint rounds/query"});
  for (const std::uint32_t f : {1u, 2u, 4u}) {
    for (const bool multipath : {false, true}) {
      auto& group =
          report.group(std::string(multipath ? "multi" : "single") +
                       "-path f=" + std::to_string(f));
      const Row row = run(multipath, f, n_trials, group);
      group.metric("disrupted", row.disrupted);
      group.metric("avg_pinpoint_rounds", row.pinpoint_rounds);
      table.add_row({std::to_string(f),
                     multipath ? "multi-path" : "single-path",
                     std::to_string(row.disrupted) + "/" +
                         std::to_string(row.trials),
                     vmat::TablePrinter::fmt(row.pinpoint_rounds, 1)});
    }
  }
  table.print();
  report.write();

  std::printf(
      "\nShape checks vs paper: ring aggregation routes the minimum around "
      "droppers, so multi-path rows show\nfar fewer disrupted executions "
      "and a near-zero expected pinpointing bill.\n");
  return 0;
}
