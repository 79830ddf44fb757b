// Choking-attack forensics: an adversary floods spurious vetoes to choke
// the one-time veto flood (the attack that defeats symmetric-key-only
// prior work, Section I). VMAT's junk-triggered pinpointing walks the SOF
// audit trail with keyed predicate tests and revokes the injector's edge
// key — this example prints the walk's verdict and cost.
#include <cstdio>
#include <memory>

#include "vmat.h"

using vmat::campaign::NamedAttack;

int main() {
  const auto topology = vmat::Topology::grid(7, 7);

  // Sparse rings (mean pairwise overlap 3), so the θ threshold is
  // reachable within a short forensics campaign.
  vmat::NetworkSpec netcfg;
  netcfg.keys.pool_size = 1200;
  netcfg.keys.ring_size = 60;
  netcfg.keys.seed = 3;
  netcfg.revocation_threshold = 8;
  vmat::Network net(topology, netcfg);

  const auto malicious = vmat::choose_malicious(topology, 1, 21);
  vmat::Adversary adversary(
      &net, malicious,
      vmat::campaign::named_genome(NamedAttack::kChoke).strategy());

  vmat::CoordinatorSpec cfg;
  cfg.depth_bound = topology.depth(malicious);
  vmat::VmatCoordinator coordinator(&net, &adversary, cfg);

  std::vector<vmat::Reading> readings(net.node_count());
  for (std::uint32_t id = 0; id < net.node_count(); ++id)
    readings[id] = 200 + static_cast<vmat::Reading>(id);
  readings[48] = 42;  // the reading the chokers try to suppress

  std::printf("malicious sensors:");
  for (vmat::NodeId m : malicious) std::printf(" %u", m.value);
  std::printf("; honest minimum is 42 at sensor 48\n\n");

  for (int execution = 1; execution <= 30; ++execution) {
    const auto out = coordinator.run_min(readings);
    if (out.produced_result()) {
      std::printf(
          "execution %d: answered %lld after %d data rounds — adversary "
          "neutralized\n",
          execution, static_cast<long long>(out.minima[0]), out.data_rounds);
      break;
    }
    const char* trigger =
        out.trigger == vmat::Trigger::kJunkConfirmation ? "spurious veto"
        : out.trigger == vmat::Trigger::kVeto           ? "legitimate veto"
        : out.trigger == vmat::Trigger::kJunkAggregation
            ? "spurious minimum"
            : "self-incrimination";
    std::printf(
        "execution %d: %s -> %s; revoked %zu key(s) using %d keyed "
        "predicate tests (%d rounds)\n",
        execution, trigger, out.reason.c_str(), out.revoked_keys.size(),
        out.pinpoint_cost.predicate_tests,
        out.pinpoint_cost.flooding_rounds);
  }

  std::printf("\ntotal edge keys revoked: %zu — every one held by the "
              "adversary\n",
              net.revocation().revoked_key_count());
  return 0;
}
