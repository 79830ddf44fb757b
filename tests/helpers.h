// Shared fixtures/helpers for the protocol-level tests.
#pragma once

#include <memory>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "attack/adversary.h"
#include "attack/strategies.h"
#include "campaign/strategy.h"
#include "core/coordinator.h"
#include "engine/engine.h"
#include "sim/network.h"
#include "util/parallel.h"

namespace vmat::testing {

/// Dense key setup: every physical edge has a shared key with overwhelming
/// probability (r^2/u = 36), so the secure topology equals the physical
/// one and tests can reason about connectivity directly.
inline NetworkSpec dense_keys(std::uint32_t theta = 0,
                                std::uint64_t seed = 2024) {
  NetworkSpec cfg;
  cfg.keys.pool_size = 400;
  cfg.keys.ring_size = 120;
  cfg.keys.seed = seed;
  cfg.revocation_threshold = theta;
  return cfg;
}

/// Readings 100 + id, so the honest minimum is held by the smallest
/// participating sensor id and every reading is unique.
inline std::vector<Reading> default_readings(std::uint32_t n) {
  std::vector<Reading> readings(n);
  for (std::uint32_t i = 0; i < n; ++i)
    readings[i] = 100 + static_cast<Reading>(i);
  return readings;
}

/// Override intra-execution threads for one scope, restoring the default.
class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t threads) {
    set_intra_execution_threads(threads);
  }
  ~ScopedThreads() { set_intra_execution_threads(0); }
};

/// The one-instance value table of `readings`, as given (no Byzantine
/// own_reading substitution, unlike run_min).
inline ValueTable one_instance(const std::vector<Reading>& readings) {
  ValueTable values(static_cast<std::uint32_t>(readings.size()), 1, 0);
  values.data = readings;
  return values;
}

/// Re-run one MIN query until it produces a result, revoking adversary
/// material along the way — the Theorem 7 loop. Every attempt is a full
/// execute() over one_instance(readings). Throws after `max_executions`
/// attempts.
inline std::vector<ExecutionOutcome> until_result(
    VmatCoordinator& coordinator, const std::vector<Reading>& readings,
    int max_executions = 1000) {
  const ValueTable values = one_instance(readings);
  const ValueTable weights(values.node_count, 1, 0);
  std::vector<ExecutionOutcome> history;
  for (int i = 0; i < max_executions; ++i) {
    history.push_back(coordinator.execute(values, weights));
    if (history.back().produced_result()) return history;
  }
  throw std::runtime_error(
      "until_result: no result after max_executions — an execution failed "
      "to revoke adversary material (Theorem 7 violation)");
}

/// A COUNT over `predicate` that may take up to `max_executions`
/// executions (the Theorem 7 retry budget) before it fails.
inline EngineQuery count_query(std::vector<std::uint8_t> predicate,
                               int max_executions) {
  EngineQuery q;
  q.kind = EngineQueryKind::kCount;
  q.predicate = std::move(predicate);
  q.max_executions = max_executions;
  return q;
}

/// The correctness bound of Section III: the smallest reading among
/// *honest* non-revoked sensors. Malicious sensors may legitimately
/// under-report or hide their own readings, so a returned result must be
/// <= this value, with equality whenever the adversary does not
/// self-report anything smaller.
inline Reading true_min(const Network& net,
                        const std::vector<Reading>& readings,
                        const std::unordered_set<NodeId>& malicious = {}) {
  Reading best = kInfinity;
  for (std::uint32_t id = 1; id < net.node_count(); ++id) {
    if (malicious.contains(NodeId{id})) continue;
    if (!net.revocation().is_sensor_revoked(NodeId{id}))
      best = std::min(best, readings[id]);
  }
  return best;
}

/// True iff every revoked key is held by at least one malicious sensor and
/// every fully revoked sensor is malicious — the Lemma 4/5 soundness
/// condition (ignoring θ-cascades, which tests disable with θ = 0).
inline bool revocations_sound(const Network& net,
                              const std::unordered_set<NodeId>& malicious) {
  for (const auto& event : net.revocation().events()) {
    bool held = false;
    for (NodeId m : malicious)
      held = held || net.keys().node_holds(m, event.key);
    if (!held) return false;
  }
  for (NodeId s : net.revocation().revoked_sensors_in_order())
    if (!malicious.contains(s)) return false;
  return true;
}

}  // namespace vmat::testing
