// ENGINE — serving-layer bench: 64 COUNT queries at n=400, epoch-batched
// through vmat::Engine versus 64 sequential VmatCoordinator::execute()
// calls (each of which pays a full announcement + tree formation).
//
// Reports, per repeat: wall-clock for both paths, fabric bytes for both
// paths, and the speedup / byte ratio. Also replays the batch through
// explicit ThreadPool(1) / ThreadPool(4) / ThreadPool(hw) engines and
// asserts the 64 estimates are bit-identical — the engine's determinism
// contract, checked on every bench run.
//
// Timing discipline: repeats run strictly serially on a dedicated
// ThreadPool(1) trial pool; the engine under test gets its own pool so the
// measured grid builds still parallelize. The table reports the minimum
// over repeats (noise-robust for wall-clock).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/coordinator.h"
#include "core/synopsis.h"
#include "engine/engine.h"
#include "sim/network.h"
#include "trial_runner.h"
#include "util/stats.h"

namespace {

vmat::NetworkSpec bench_keys(std::uint64_t seed) {
  vmat::NetworkSpec cfg;
  cfg.keys.pool_size = 1000;
  cfg.keys.ring_size = 180;
  cfg.keys.seed = seed;
  return cfg;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// The 64 COUNT predicates: query q asks how many sensors have id % 64 >= q
/// — population sizes sweep n-1 down to ~n/64 so the batch is not one
/// predicate repeated.
std::vector<std::vector<std::uint8_t>> make_predicates(std::uint32_t n,
                                                       std::size_t queries) {
  std::vector<std::vector<std::uint8_t>> predicates(queries);
  for (std::size_t q = 0; q < queries; ++q) {
    predicates[q].assign(n, 0);
    for (std::uint32_t id = 1; id < n; ++id)
      predicates[q][id] = id % queries >= q ? 1 : 0;
  }
  return predicates;
}

/// One standalone COUNT: a fresh SynopsisCodec over a full
/// VmatCoordinator::execute() (announcement + tree formation + query
/// phases). Adds the execution's fabric bytes to `bytes`; returns the
/// estimate, or -1 when the execution was disrupted.
double sequential_count(vmat::VmatCoordinator& coordinator,
                        const std::vector<std::uint8_t>& predicate,
                        std::uint64_t& bytes) {
  const std::uint32_t instances = coordinator.config().instances;
  const auto n = static_cast<std::uint32_t>(predicate.size());
  const vmat::SynopsisCodec codec(coordinator.fresh_nonce());
  vmat::ValueTable values(n, instances, vmat::kInfinity);
  vmat::ValueTable weights(n, instances, 0);
  for (std::uint32_t id = 1; id < n; ++id) {
    if (predicate[id] == 0) continue;
    codec.fill_values(vmat::NodeId{id}, 1, values.row(id));
    std::ranges::fill(weights.row(id), 1);
  }
  const vmat::ExecutionOutcome out = coordinator.execute(
      values, weights,
      [&codec](const vmat::AggMessage& m) { return codec.consistent(m); });
  bytes += out.fabric_bytes;
  return out.produced_result() ? vmat::estimate_sum(out.minima) : -1.0;
}

}  // namespace

int main() {
  const bool smoke = vmat::bench::smoke();
  const std::size_t repeats = vmat::bench::trials(3);
  const std::uint32_t n = smoke ? 100 : 400;
  const std::size_t queries = smoke ? 8 : 64;
  // Lean estimator point (epsilon ~ 1/sqrt(10) ~ 0.32, the repo's usual
  // test tolerance): at higher instance counts the per-instance payload
  // work — identical in both paths — swamps the formation amortization the
  // bench is measuring.
  const std::uint32_t instances = 10;

  std::printf(
      "ENGINE | %zu-query COUNT batch at n=%u: epoch-batched serving vs "
      "sequential executions (min over %zu repeats)\n\n",
      queries, n, repeats);

  vmat::bench::BenchReport report("engine");
  report.config("n", static_cast<std::int64_t>(n));
  report.config("queries", static_cast<std::int64_t>(queries));
  report.config("instances", static_cast<std::int64_t>(instances));
  report.config("repeats", static_cast<std::int64_t>(repeats));

  const double radius = 1.8 / std::sqrt(static_cast<double>(n));
  const auto topo = vmat::Topology::random_geometric(n, radius, 7);
  const auto predicates = make_predicates(n, queries);

  vmat::CoordinatorSpec cfg;
  cfg.instances = instances;

  auto make_batch = [&] {
    std::vector<vmat::EngineQuery> batch(queries);
    for (std::size_t q = 0; q < queries; ++q) {
      batch[q].kind = vmat::EngineQueryKind::kCount;
      batch[q].predicate = predicates[q];
    }
    return batch;
  };
  vmat::EngineConfig engine_cfg;
  engine_cfg.max_in_flight = static_cast<std::uint32_t>(queries);
  engine_cfg.max_instances_per_execution =
      static_cast<std::uint32_t>(queries) * instances;

  // Repeats measure the same deterministic work; run them serially.
  vmat::ThreadPool serial(1);

  // --- sequential baseline: one execution (announcement + tree formation
  // + query phases) per query ---
  std::vector<double> seq_ms(repeats, 0.0);
  std::uint64_t seq_bytes = 0;
  std::vector<double> seq_estimates;
  auto& seq_group = report.group("sequential");
  vmat::bench::timed_trials(
      seq_group, repeats, 0,
      [&](std::size_t t, vmat::Rng&) {
        vmat::Network net(topo, bench_keys(n));
        vmat::VmatCoordinator coordinator(&net, nullptr, cfg);
        std::uint64_t bytes = 0;
        std::vector<double> estimates;
        estimates.reserve(queries);
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t q = 0; q < queries; ++q)
          estimates.push_back(
              sequential_count(coordinator, predicates[q], bytes));
        seq_ms[t] = ms_since(start);
        seq_bytes = bytes;
        seq_estimates = std::move(estimates);
      },
      &serial);
  const double seq_best = vmat::percentile_nearest_rank(seq_ms, 0);
  seq_group.metric("wall_ms_min", seq_best);
  seq_group.metric("fabric_kb", seq_bytes / vmat::kBytesPerKb);

  // --- epoch-batched serving: one epoch, one wide execution ---
  std::vector<double> batch_ms(repeats, 0.0);
  std::uint64_t batch_bytes = 0;
  std::uint64_t epochs_formed = 0;
  std::uint64_t executions = 0;
  std::vector<double> batch_estimates;
  vmat::ThreadPool engine_pool;  // parallel grid builds are part of the SUT
  auto& batch_group = report.group("epoch-batched");
  vmat::bench::timed_trials(
      batch_group, repeats, 0,
      [&](std::size_t t, vmat::Rng&) {
        vmat::Network net(topo, bench_keys(n));
        vmat::VmatCoordinator coordinator(&net, nullptr, cfg);
        vmat::Engine engine(&coordinator, engine_cfg, &engine_pool);
        const auto start = std::chrono::steady_clock::now();
        const auto results = engine.run_batch(make_batch());
        batch_ms[t] = ms_since(start);
        batch_bytes = engine.stats().fabric_bytes;
        epochs_formed = engine.stats().epochs_formed;
        executions = engine.stats().executions;
        std::vector<double> estimates;
        estimates.reserve(results.size());
        for (const auto& r : results)
          estimates.push_back(r.estimate.value_or(-1.0));
        batch_estimates = std::move(estimates);
      },
      &serial);
  const double batch_best = vmat::percentile_nearest_rank(batch_ms, 0);
  batch_group.metric("wall_ms_min", batch_best);
  batch_group.metric("fabric_kb", batch_bytes / vmat::kBytesPerKb);
  batch_group.metric("epochs", static_cast<double>(epochs_formed));
  batch_group.metric("executions", static_cast<double>(executions));

  // --- determinism: replay through explicit pool widths, compare bits ---
  bool identical = true;
  std::vector<double> reference;
  const std::size_t widths[] = {1, 4, vmat::default_thread_count()};
  for (const std::size_t threads : widths) {
    vmat::ThreadPool pool(threads);
    vmat::Network net(topo, bench_keys(n));
    vmat::VmatCoordinator coordinator(&net, nullptr, cfg);
    vmat::Engine engine(&coordinator, engine_cfg, &pool);
    const auto results = engine.run_batch(make_batch());
    std::vector<double> estimates;
    estimates.reserve(results.size());
    for (const auto& r : results)
      estimates.push_back(r.estimate.value_or(-1.0));
    if (reference.empty())
      reference = std::move(estimates);
    else
      identical = identical && estimates == reference;
  }
  // The batch must also answer exactly what the sequential path answers
  // per-query up to estimator variance; both must at least have answered.
  bool all_answered = batch_estimates.size() == queries;
  for (double e : batch_estimates) all_answered = all_answered && e >= 0.0;
  for (double e : seq_estimates) all_answered = all_answered && e >= 0.0;

  const double speedup = batch_best > 0.0 ? seq_best / batch_best : 0.0;
  const double byte_ratio =
      batch_bytes > 0 ? static_cast<double>(seq_bytes) /
                            static_cast<double>(batch_bytes)
                      : 0.0;
  report.result("speedup_wall", speedup);
  report.result("byte_ratio", byte_ratio);
  report.result("bit_identical", identical ? 1.0 : 0.0);
  report.result("all_answered", all_answered ? 1.0 : 0.0);

  vmat::TablePrinter table({"path", "wall ms (min)", "fabric KB", "epochs",
                            "executions"});
  table.add_row({"sequential", vmat::TablePrinter::fmt(seq_best, 1),
                 vmat::TablePrinter::fmt(seq_bytes / vmat::kBytesPerKb, 1),
                 std::to_string(queries), std::to_string(queries)});
  table.add_row({"epoch-batched", vmat::TablePrinter::fmt(batch_best, 1),
                 vmat::TablePrinter::fmt(batch_bytes / vmat::kBytesPerKb, 1),
                 std::to_string(epochs_formed), std::to_string(executions)});
  table.print();
  std::printf(
      "\nspeedup %.2fx | bytes %.2fx fewer | bit-identical across "
      "VMAT_THREADS {1,4,%zu}: %s\n",
      speedup, byte_ratio, vmat::default_thread_count(),
      identical ? "yes" : "NO");
  report.write();

  // The acceptance gate: >=3x wall-clock, strictly fewer bytes, identical
  // bits. Fail loudly (non-zero exit) so CI smoke catches regressions.
  if (!identical || !all_answered || batch_bytes >= seq_bytes) return 1;
  if (!smoke && speedup < 3.0) return 1;
  return 0;
}
