// Battlefield monitoring (the paper's motivating deployment): periodic
// MIN queries over acoustic sensors while an adversary compromises relays
// mid-campaign and starts dropping readings. Shows the Theorem 7 loop in
// action: a few disrupted rounds each revoke adversary key material, and
// the system returns to correct answers without human intervention.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "vmat.h"

using vmat::campaign::NamedAttack;

int main() {
  const auto topology =
      vmat::Topology::random_geometric(/*n=*/150, /*radius=*/0.17, /*seed=*/5);

  vmat::NetworkSpec netcfg;
  netcfg.keys.pool_size = 2000;
  netcfg.keys.ring_size = 100;  // mean pairwise overlap r²/u = 5
  netcfg.keys.seed = 11;
  netcfg.revocation_threshold = 25;
  vmat::Network net(topology, netcfg);

  // The adversary captures the relays between the base station and a
  // deep sensor (the worst case: every shortest path from that sensor
  // crosses a captured relay).
  const auto depth = topology.bfs_depth();
  std::unordered_set<vmat::NodeId> captured;
  std::uint32_t watched_sensor = 0;
  {
    std::vector<std::uint32_t> order(topology.node_count());
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return depth[a] > depth[b];
              });
    for (std::uint32_t candidate : order) {
      if (depth[candidate] < 2) break;
      std::unordered_set<vmat::NodeId> cut;
      for (vmat::NodeId v : topology.neighbors(vmat::NodeId{candidate}))
        if (depth[v.value] == depth[candidate] - 1) cut.insert(v);
      if (!cut.empty() && cut.size() <= 3 && topology.connected(cut)) {
        captured = std::move(cut);
        watched_sensor = candidate;
        break;
      }
    }
  }
  std::printf("compromised relays:");
  for (vmat::NodeId m : captured) std::printf(" %u", m.value);
  std::printf("  (cutting off sensor %u at depth %d)\n\n", watched_sensor,
              depth[watched_sensor]);

  vmat::Adversary adversary(
      &net, captured,
      vmat::campaign::named_genome(NamedAttack::kDrop, vmat::LiePolicy::kRandom)
          .strategy());

  vmat::CoordinatorSpec cfg;
  cfg.depth_bound = topology.depth(captured);
  vmat::VmatCoordinator coordinator(&net, &adversary, cfg);

  // "Distance to the nearest detected vehicle" readings; the cut-off
  // sensor is the one that actually sees the vehicle.
  std::vector<vmat::Reading> distance_m(net.node_count());
  for (std::uint32_t id = 0; id < net.node_count(); ++id)
    distance_m[id] = 400 + static_cast<vmat::Reading>((id * 37) % 500);
  distance_m[watched_sensor] = 120;

  std::printf("%-6s %-12s %-40s\n", "round", "answer", "note");
  int produced = 0;
  for (int round = 1; round <= 60 && produced < 5; ++round) {
    const auto out = coordinator.run_min(distance_m);
    if (out.produced_result()) {
      ++produced;
      std::printf("%-6d %-12lld correct minimum (the watched sensor's 120 m)\n",
                  round, static_cast<long long>(out.minima[0]));
    } else {
      std::printf("%-6d %-12s revoked %zu key(s), %zu sensor(s): %s\n", round,
                  "-", out.revoked_keys.size(), out.revoked_sensors.size(),
                  out.reason.c_str());
    }
  }

  std::printf("\nadversary status after the campaign:\n");
  for (vmat::NodeId m : captured)
    std::printf("  sensor %u: %s, %u of its ring keys revoked\n", m.value,
                net.revocation().is_sensor_revoked(m) ? "fully revoked"
                                                      : "still keyed",
                net.revocation().revoked_count(m));
  std::printf("honest sensors revoked: ");
  std::size_t honest_revoked = 0;
  for (vmat::NodeId s : net.revocation().revoked_sensors_in_order())
    if (!captured.contains(s)) ++honest_revoked;
  std::printf("%zu\n", honest_revoked);
  return 0;
}
