// THM7 — round-complexity table (Theorems 2, 6, 7 and the Section I
// comparison against the set-sampling approach [29]):
//
//  * VMAT data path: O(1) flooding rounds regardless of n (measured: 6).
//  * VMAT pinpointing: O(L log n) rounds, only paid when attacked.
//  * Set sampling [29]: Ω(log n) rounds on *every* query, attack or not.
//
// The pinpointing rows use a "gauntlet" topology that forces the dropped
// minimum through a malicious node sitting `L` hops deep, so the veto walk
// has to track the full trail.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "attack/strategies.h"
#include "campaign/strategy.h"
#include "baseline/sampling.h"
#include "core/coordinator.h"
#include "util/stats.h"

namespace {

using vmat::campaign::NamedAttack;

/// Chain 0-1-...-depth with the malicious node in the middle, plus a
/// parallel honest detour of the same length connected to the far end.
struct Gauntlet {
  vmat::Topology topo;
  vmat::NodeId malicious;
  std::uint32_t vetoer;
};

Gauntlet make_gauntlet(std::uint32_t depth) {
  // Nodes: 0 (BS); chain 1..depth; detour depth+1..2*depth (same length).
  std::vector<vmat::Edge> edges;
  for (std::uint32_t i = 0; i < depth; ++i)
    edges.push_back({vmat::NodeId{i}, vmat::NodeId{i + 1}});
  edges.push_back({vmat::NodeId{0}, vmat::NodeId{depth + 1}});
  for (std::uint32_t i = depth + 1; i < 2 * depth; ++i)
    edges.push_back({vmat::NodeId{i}, vmat::NodeId{i + 1}});
  // Join the far ends.
  edges.push_back({vmat::NodeId{2 * depth}, vmat::NodeId{depth}});
  return {vmat::Topology(2 * depth + 1, edges), vmat::NodeId{depth / 2},
          depth};
}

vmat::NetworkSpec bench_keys(std::uint64_t seed) {
  vmat::NetworkSpec cfg;
  cfg.keys.pool_size = 400;
  cfg.keys.ring_size = 120;
  cfg.keys.seed = seed;
  return cfg;
}

}  // namespace

int main() {
  std::printf(
      "THM7 | flooding-round complexity: VMAT O(1) data path, O(L log n) "
      "pinpointing, sampling Omega(log n)\n\n");

  {
    vmat::TablePrinter table({"n", "L", "VMAT data rounds (clean query)",
                              "sampling rounds per query"});
    for (const std::uint32_t side : {4u, 8u, 16u, 24u}) {
      const std::uint32_t n = side * side;
      vmat::Network net(vmat::Topology::grid(side, side), bench_keys(3));
      vmat::VmatCoordinator coordinator(&net, nullptr, vmat::CoordinatorSpec{});
      std::vector<vmat::Reading> readings(n, 100);
      const auto out = coordinator.run_min(readings);
      const auto sampling = vmat::run_set_sampling_count(
          std::vector<std::uint8_t>(n, 1), {});
      table.add_row({std::to_string(n),
                     std::to_string(coordinator.effective_depth_bound()),
                     std::to_string(out.data_rounds),
                     std::to_string(sampling.flooding_rounds)});
    }
    std::printf("clean queries (no attack):\n");
    table.print();
    std::printf("\n");
  }

  {
    vmat::TablePrinter table({"L (trail depth)", "n", "pinpoint rounds",
                              "predicate tests", "rounds / (L log2 n)"});
    for (const std::uint32_t depth : {4u, 8u, 16u, 32u}) {
      Gauntlet g = make_gauntlet(depth);
      vmat::Network net(std::move(g.topo), bench_keys(depth));
      vmat::Adversary adv(
          &net, {g.malicious},
          vmat::campaign::named_genome(NamedAttack::kSilent).strategy());
      vmat::CoordinatorSpec cfg;
      cfg.depth_bound =
          net.topology().depth(std::unordered_set<vmat::NodeId>{g.malicious});
      vmat::VmatCoordinator coordinator(&net, &adv, cfg);
      std::vector<vmat::Reading> readings(net.node_count(), 1000);
      readings[g.vetoer] = 1;  // minimum sits behind the malicious node
      const auto out = coordinator.run_min(readings);
      const double l_log_n =
          static_cast<double>(cfg.depth_bound) *
          std::log2(static_cast<double>(net.node_count()));
      const char* kind =
          out.kind == vmat::OutcomeKind::kRevocation ? "" : " (no attack!)";
      table.add_row(
          {std::to_string(depth) + kind, std::to_string(net.node_count()),
           std::to_string(out.pinpoint_cost.flooding_rounds),
           std::to_string(out.pinpoint_cost.predicate_tests),
           vmat::TablePrinter::fmt(out.pinpoint_cost.flooding_rounds / l_log_n,
                                   2)});
    }
    std::printf(
        "attacked queries (silent dropper %s deep): pinpointing cost\n",
        "L/2 hops");
    table.print();
  }

  std::printf(
      "\nShape checks vs paper: data rounds constant in n; pinpoint rounds "
      "track L log n (last column ~constant);\nsampling pays log n on every "
      "query even with no adversary.\n");
  return 0;
}
