// SCALE — infrastructure bench: wall-clock cost of full VMAT executions as
// the network grows, clean and attacked, plus per-execution message
// volume. Not a paper figure; it documents that the simulator comfortably
// hosts the paper's parameter ranges.
//
// Timing discipline: each (size, mode) cell runs bench::trials(3) repeats
// through the trial engine on a dedicated serial pool — wall-clock numbers
// must not contend with each other — and the table reports the minimum,
// the usual noise-robust choice for repeat timings.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "attack/strategies.h"
#include "campaign/strategy.h"
#include "core/coordinator.h"
#include "sim/fabric.h"
#include "trial_runner.h"
#include "util/stats.h"

namespace {

using vmat::campaign::NamedAttack;

/// Pre-PR serial reference for the acceptance gate: clean n=4000 execution
/// wall time of the per-node serial slot loop with per-Envelope heap
/// payloads, measured at the commit preceding the arena/level-parallel
/// work on the reference box (RelWithDebInfo, min of 3). Override with
/// VMAT_BENCH_PREPR_MS when re-baselining on different hardware.
constexpr double kPrePrSerialN4000Ms = 47.63;

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

/// Min-of-3 clean execution wall time at `n` under a forced
/// intra-execution thread count.
double gate_exec_ms(const vmat::Topology& topo, std::uint32_t n,
                    std::size_t exec_threads) {
  vmat::set_intra_execution_threads(exec_threads);
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    vmat::Network net(topo, bench_keys(n));
    vmat::VmatCoordinator coordinator(&net, nullptr, vmat::CoordinatorSpec{});
    std::vector<vmat::Reading> readings(n, 500);
    const auto start = std::chrono::steady_clock::now();
    const auto out = coordinator.run_min(readings);
    best = std::min(best, ms_since(start));
    if (out.kind != vmat::OutcomeKind::kResult) std::abort();
  }
  vmat::set_intra_execution_threads(0);
  return best;
}

/// VMAT_BENCH_ACCEPT=1: the PR's acceptance gate. Clean n=4000 must run
/// >= 1.2x faster single-threaded than the pre-PR serial path (arena +
/// MacBatch alone), and >= 3x faster with all cores when the machine has
/// at least 4 of them. Non-zero exit on a miss.
int run_acceptance_gate() {
  constexpr std::uint32_t n = 4000;
  double pre_pr_ms = kPrePrSerialN4000Ms;
  if (const char* env = std::getenv("VMAT_BENCH_PREPR_MS"))
    pre_pr_ms = std::atof(env);
  std::printf("SCALE acceptance gate | clean n=%u vs pre-PR serial %.2f ms\n",
              n, pre_pr_ms);
  const double radius = 1.8 / std::sqrt(static_cast<double>(n));
  const auto topo = vmat::Topology::random_geometric(n, radius, 7);

  bool ok = true;
  const double single_ms = gate_exec_ms(topo, n, 1);
  const double single_speedup = pre_pr_ms / single_ms;
  const bool single_ok = single_speedup >= 1.2;
  std::printf("  single-thread: %.2f ms, %.2fx vs pre-PR (need >= 1.20x)  %s\n",
              single_ms, single_speedup, single_ok ? "PASS" : "FAIL");
  ok = ok && single_ok;

  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (hw >= 4) {
    const double multi_ms = gate_exec_ms(topo, n, hw);
    const double multi_speedup = pre_pr_ms / multi_ms;
    const bool multi_ok = multi_speedup >= 3.0;
    std::printf(
        "  %zu threads:    %.2f ms, %.2fx vs pre-PR (need >= 3.00x)  %s\n",
        hw, multi_ms, multi_speedup, multi_ok ? "PASS" : "FAIL");
    ok = ok && multi_ok;
  } else {
    std::printf("  multi-thread:  SKIP (%zu core%s < 4)\n", hw,
                hw == 1 ? "" : "s");
  }
  std::printf("SCALE acceptance gate: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main() {
  if (const char* env = std::getenv("VMAT_BENCH_ACCEPT");
      env != nullptr && *env != '\0' && std::string(env) != "0")
    return run_acceptance_gate();

  const std::size_t n_trials = vmat::bench::trials(3);
  std::printf(
      "SCALE | full-execution wall time and traffic vs network size "
      "(min over %zu repeats)\n\n",
      n_trials);

  // Attacked cells run at every n up to 8000; the 10^5 row is a clean-only
  // large-n cell, printed with an explicit "—" in the attacked columns.
  constexpr std::uint32_t max_attacked_size = 8000u;
  std::vector<std::uint32_t> sizes = {50u,   100u,  200u,    400u,
                                      800u,  4000u, 8000u, 100000u};
  if (vmat::bench::smoke()) sizes = {50u, 100u};

  vmat::bench::BenchReport report("bench_scale");
  report.config("repeats", static_cast<std::int64_t>(n_trials));
  report.config("sizes", static_cast<std::int64_t>(sizes.size()));

  // Repeats of one cell measure the same deterministic execution, so they
  // must run strictly serially for the timings to mean anything.
  vmat::ThreadPool serial(1);

  vmat::TablePrinter table({"n", "L", "clean exec ms", "clean KB",
                            "attacked exec ms", "pinpoint tests"});
  for (const std::uint32_t n : sizes) {
    const double radius = vmat::Topology::connected_radius(n);
    const auto topo = vmat::Topology::random_geometric(n, radius, 7);
    // The big cells keep only the CSR adjacency (see bench_memory): the
    // nested lists would dominate the topology's footprint at n >= 10^5.
    if (n >= 50000) topo.shed_adjacency();

    // Guarantee the attack bites: find a deep node whose entire depth-1
    // neighborhood can go malicious without partitioning the honest
    // subgraph, and plant the minimum reading there. Only needed for the
    // attacked cell, which the big sizes skip.
    std::unordered_set<vmat::NodeId> malicious;
    std::uint32_t victim = 0;
    if (n <= max_attacked_size) {
      const auto depth = topo.bfs_depth();
      std::vector<std::uint32_t> by_depth(n);
      for (std::uint32_t i = 0; i < n; ++i) by_depth[i] = i;
      std::sort(by_depth.begin(), by_depth.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  return depth[a] > depth[b];
                });
      for (std::uint32_t candidate : by_depth) {
        if (depth[candidate] < 2) break;
        std::unordered_set<vmat::NodeId> cut;
        for (vmat::NodeId v : topo.neighbors(vmat::NodeId{candidate}))
          if (depth[v.value] == depth[candidate] - 1) cut.insert(v);
        if (!cut.empty() && topo.connected(cut)) {
          malicious = std::move(cut);
          victim = candidate;
          break;
        }
      }
    }

    // Clean runs. trial_ms includes network setup; the table's "exec ms"
    // column keeps the historical meaning (run_min only), measured inside
    // each trial.
    std::uint64_t clean_bytes = 0;
    vmat::Level depth_bound = 0;
    vmat::ExecutionMetrics clean_metrics;
    std::vector<double> clean_exec(n_trials, 0.0);
    auto& clean_group = report.group("clean n=" + std::to_string(n));
    vmat::bench::timed_trials(
        clean_group, n_trials, 0,
        [&](std::size_t t, vmat::Rng&) {
          vmat::Network net(topo, bench_keys(n));
          vmat::VmatCoordinator coordinator(&net, nullptr, vmat::CoordinatorSpec{});
          std::vector<vmat::Reading> readings(n, 500);
          const auto start = std::chrono::steady_clock::now();
          const auto out = coordinator.run_min(readings);
          clean_exec[t] = ms_since(start);
          clean_bytes = out.fabric_bytes;
          clean_metrics = out.metrics;
          depth_bound = coordinator.effective_depth_bound();
        },
        &serial);
    const double clean_ms = vmat::percentile_nearest_rank(clean_exec, 0);
    clean_group.metric("exec_ms_min", clean_ms);
    clean_group.metric("fabric_kb", clean_bytes / vmat::kBytesPerKb);
    vmat::bench::add_phase_metrics(clean_group, clean_metrics);

    // Attacked runs: the victim's whole parent set silently drops its
    // minimum, forcing a veto and a pinpointing walk. Above the attacked
    // ceiling the cells are deliberately absent, not zero.
    std::string attacked_ms_cell = "\xe2\x80\x94";  // — em dash
    std::string tests_cell = "\xe2\x80\x94";
    if (n <= max_attacked_size) {
      int tests = 0;
      vmat::ExecutionMetrics attacked_metrics;
      std::vector<double> attacked_exec(n_trials, 0.0);
      auto& attacked_group = report.group("attacked n=" + std::to_string(n));
      vmat::bench::timed_trials(
          attacked_group, n_trials, 0,
          [&](std::size_t t, vmat::Rng&) {
            vmat::Network net(topo, bench_keys(n));
            vmat::Adversary adv(
                &net, malicious,
                vmat::campaign::named_genome(NamedAttack::kSilent).strategy());
            vmat::CoordinatorSpec cfg;
            cfg.depth_bound = topo.depth(malicious);
            vmat::VmatCoordinator coordinator(&net, &adv, cfg);
            std::vector<vmat::Reading> readings(n, 500);
            for (std::uint32_t id = 1; id < n; ++id)
              readings[id] = 500 + static_cast<vmat::Reading>(id);
            readings[victim] = 1;
            const auto start = std::chrono::steady_clock::now();
            const auto out = coordinator.run_min(readings);
            attacked_exec[t] = ms_since(start);
            tests = out.pinpoint_cost.predicate_tests;
            attacked_metrics = out.metrics;
          },
          &serial);
      const double attacked_ms = vmat::percentile_nearest_rank(attacked_exec, 0);
      attacked_group.metric("exec_ms_min", attacked_ms);
      attacked_group.metric("pinpoint_tests", tests);
      vmat::bench::add_phase_metrics(attacked_group, attacked_metrics);
      attacked_ms_cell = vmat::TablePrinter::fmt(attacked_ms, 1);
      tests_cell = std::to_string(tests);
    }

    table.add_row({std::to_string(n), std::to_string(depth_bound),
                   vmat::TablePrinter::fmt(clean_ms, 1),
                   vmat::TablePrinter::fmt(clean_bytes / vmat::kBytesPerKb, 1),
                   attacked_ms_cell, tests_cell});
  }
  table.print();
  std::printf("\n\"%s\" = attacked cell not run (attacked cells stop at "
              "n=%u).\n",
              "\xe2\x80\x94", max_attacked_size);
  report.write();
  return 0;
}
