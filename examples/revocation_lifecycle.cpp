// Revocation lifecycle: watch the θ-threshold mechanism (Section VI-C)
// close in on a junk-injecting attacker. Each disrupted execution
// pinpoints one of its edge keys; when θ of them are revoked the base
// station announces the ring seed and every remaining key dies at once —
// the "revoke keys before they are used to attack" effect.
#include <cstdio>
#include <memory>

#include "vmat.h"

int main() {
  const auto topology =
      vmat::Topology::random_geometric(/*n=*/50, /*radius=*/0.38, /*seed=*/3);

  // Sparse rings (mean pairwise overlap r^2/u = 2), the regime where θ is
  // meaningful.
  vmat::NetworkSpec netcfg;
  netcfg.keys.pool_size = 800;
  netcfg.keys.ring_size = 40;
  netcfg.keys.seed = 3;
  netcfg.revocation_threshold = 8;
  vmat::Network net(topology, netcfg);

  // The attacker: the best-connected sensor.
  vmat::NodeId attacker{1};
  for (std::uint32_t id = 2; id < topology.node_count(); ++id)
    if (topology.degree(vmat::NodeId{id}) > topology.degree(attacker))
      attacker = vmat::NodeId{id};
  std::printf("attacker: sensor %u (degree %zu), ring of %u keys, theta=%u\n\n",
              attacker.value, topology.degree(attacker),
              netcfg.keys.ring_size, netcfg.revocation_threshold);

  // Junk minima under the attacker's own name (no framing).
  vmat::campaign::Genome junk =
      vmat::campaign::named_genome(vmat::campaign::NamedAttack::kJunk);
  junk.policy.frame_honest_origin = false;
  vmat::Adversary adversary(&net, {attacker}, junk.strategy());
  vmat::CoordinatorSpec cfg;
  cfg.depth_bound =
      topology.depth(std::unordered_set<vmat::NodeId>{attacker}) + 2;
  vmat::VmatCoordinator coordinator(&net, &adversary, cfg);

  std::vector<vmat::Reading> readings(net.node_count());
  for (std::uint32_t id = 0; id < net.node_count(); ++id)
    readings[id] = 100 + static_cast<vmat::Reading>(id);

  for (int execution = 1; execution <= 60; ++execution) {
    const auto out = coordinator.run_min(readings);
    if (out.produced_result()) {
      std::printf("execution %2d: result %lld — attacker silenced\n",
                  execution, static_cast<long long>(out.minima[0]));
      break;
    }
    std::printf("execution %2d: %-28s pinpointed=%zu theta-count=%u%s\n",
                execution,
                out.trigger == vmat::Trigger::kJunkAggregation
                    ? "junk pinned to attacker;"
                    : "disruption pinned;",
                net.revocation().pinpointed_key_count(),
                net.revocation().revoked_count(attacker),
                out.revoked_sensors.empty() ? ""
                                            : "  << RING SEED ANNOUNCED");
    if (!out.revoked_sensors.empty()) {
      std::printf(
          "\nthreshold crossed: all %u of the attacker's keys are now dead "
          "(only %zu ever needed a pinpointing walk)\n",
          netcfg.keys.ring_size, net.revocation().pinpointed_key_count());
    }
  }

  std::printf("\nfinal state: attacker %s; %zu keys revoked in total\n",
              net.revocation().is_sensor_revoked(attacker)
                  ? "fully revoked"
                  : "out of usable keys",
              net.revocation().revoked_key_count());
  return 0;
}
