// Quickstart: describe a deployment with one SimulationSpec, then serve a
// secure COUNT together with a small mixed batch through the epoch-batched
// Engine. No adversary — the minimal happy path of the public API.
#include <cstdio>

#include "vmat.h"

int main() {
  // 1. One spec describes the whole deployment: 300 sensors placed
  //    uniformly at random (base station = node 0), Eschenauer-Gligor key
  //    predistribution with dense rings, revocation threshold θ, and
  //    enough synopsis instances for a (15%, 10%)-approximation.
  vmat::SimulationSpec spec;
  spec.nodes(300)
      .key_pool(/*pool_size=*/2000, /*ring_size=*/260)
      .revocation_threshold(30)
      .accuracy(/*epsilon=*/0.15, /*delta=*/0.1)
      .seed(2024);
  if (const auto errors = spec.validate(); !errors.empty()) {
    for (const auto& e : errors) std::printf("spec: %s\n", e.message.c_str());
    return 2;
  }

  vmat::Network net(spec);
  vmat::VmatCoordinator coordinator(&net, /*adversary=*/nullptr, spec);

  std::printf("network: %u sensors, depth L=%d, %u synopsis instances\n",
              net.node_count(), coordinator.effective_depth_bound(),
              spec.effective_instances());

  // 2. Ask: how many sensors currently read a temperature above 40?
  //    (Simulated: sensors 1..120 do.) And, in the same batch, the average
  //    and minimum battery voltage.
  std::vector<std::uint8_t> above_40(net.node_count(), 0);
  for (std::uint32_t id = 1; id <= 120; ++id) above_40[id] = 1;
  std::vector<std::int64_t> battery_mv(net.node_count(), 0);
  for (std::uint32_t id = 1; id < net.node_count(); ++id)
    battery_mv[id] = 2900 + static_cast<std::int64_t>(id % 200);

  std::vector<vmat::EngineQuery> batch(3);
  batch[0].kind = vmat::EngineQueryKind::kCount;
  batch[0].predicate = above_40;
  batch[1].kind = vmat::EngineQueryKind::kAverage;
  batch[1].readings = battery_mv;
  batch[2].kind = vmat::EngineQueryKind::kMin;
  batch[2].raw = battery_mv;  // exact MIN runs on the raw readings

  // 3. Serve the batch: its queries share ONE authenticated tree
  //    formation, and each still gets its own nonce — the security
  //    argument is per query. A lone query is a batch of one.
  vmat::Engine engine(&coordinator);
  const auto results = engine.run_batch(std::move(batch));
  if (results[0].answered())
    std::printf("COUNT(temperature > 40) ~= %.1f (true value: 120)\n",
                *results[0].estimate);
  for (const auto& r : results) {
    if (r.answered())
      std::printf("query #%llu %-7s ~= %.1f (epoch %llu, %d execution(s))\n",
                  static_cast<unsigned long long>(r.id), vmat::to_string(r.kind),
                  *r.estimate, static_cast<unsigned long long>(r.epoch_id),
                  r.executions);
    else
      std::printf("query #%llu %-7s failed: %s\n",
                  static_cast<unsigned long long>(r.id), vmat::to_string(r.kind),
                  r.error ? r.error->to_string().c_str() : "unknown");
  }
  std::printf("epochs formed for the batch: %llu\n",
              static_cast<unsigned long long>(engine.stats().epochs_formed));

  // 4. An adversary that disrupts an execution pays for it: each
  //    disruption revokes key material it holds (Theorem 7), and the query
  //    is retried within its EngineQuery::max_executions budget. The ledger
  //    below names what was revoked — nothing, without an adversary.
  std::printf("%s", vmat::describe_revocations(net).c_str());
  return 0;
}
