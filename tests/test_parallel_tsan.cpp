// ThreadPool stress test for the sanitizer matrix (label: tsan).
//
// Built and run in every configuration, but written for
// -DVMAT_SANITIZE=thread: it hammers the pool with overlapping
// submit/drain cycles, concurrent pools, and shared()-pool traffic so TSan
// sees every lock-ordering and signalling path, and it re-asserts the
// determinism contract — bit-identical per-trial results for
// VMAT_THREADS ∈ {1, 4, hardware_concurrency} — under that load.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "helpers.h"
#include "trace/trace.h"
#include "util/parallel.h"

namespace vmat {
namespace {

using campaign::named_genome;
using campaign::NamedAttack;

constexpr std::size_t kTrials = 96;

/// A trial body with enough RNG traffic to interleave threads for real.
std::uint64_t trial_value(Rng& rng) {
  std::uint64_t acc = 0;
  for (int i = 0; i < 64; ++i) acc = acc * 0x9e3779b97f4a7c15ULL + rng();
  return acc;
}

std::vector<std::uint64_t> run_trials(std::size_t threads,
                                      std::uint64_t base_seed) {
  ThreadPool pool(threads);
  std::vector<std::uint64_t> out(kTrials, 0);
  parallel_for_trials(
      kTrials, base_seed,
      [&out](std::size_t trial, Rng& rng) { out[trial] = trial_value(rng); },
      &pool);
  return out;
}

TEST(ParallelTsan, BitIdenticalAcrossThreadCounts) {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const auto serial = run_trials(1, 42);
  const auto four = run_trials(4, 42);
  const auto wide = run_trials(hw, 42);
  EXPECT_EQ(serial, four);
  EXPECT_EQ(serial, wide);
}

TEST(ParallelTsan, OverlappingSubmitDrainCycles) {
  // Back-to-back batches of varying width on one pool: each for_each
  // drains fully before the next submits, so worker wake-up from a live
  // pool (not a fresh one) is exercised every round.
  ThreadPool pool(4);
  std::vector<std::atomic<std::uint32_t>> hits(257);
  for (auto& h : hits) h.store(0);
  std::uint64_t expected = 0;
  for (std::uint32_t round = 0; round < 64; ++round) {
    const std::size_t n = (round * 37) % hits.size() + 1;
    expected += n;
    pool.for_each(n, [&hits](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
  }
  std::uint64_t total = 0;
  for (auto& h : hits) total += h.load();
  EXPECT_EQ(total, expected);
}

TEST(ParallelTsan, ConcurrentPoolsDoNotInterfere) {
  // Several driver threads, each owning a private pool and running its own
  // trial batches, while the main thread drives ThreadPool::shared() — the
  // shape a parallel bench suite has.
  constexpr int kDrivers = 3;
  std::vector<std::vector<std::uint64_t>> results(kDrivers);
  std::vector<std::thread> drivers;
  drivers.reserve(kDrivers);
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&results, d] {
      for (int rep = 0; rep < 4; ++rep)
        results[d] = run_trials(2 + d, 1000 + d);
    });
  }
  std::vector<std::uint64_t> shared_out(kTrials, 0);
  for (int rep = 0; rep < 4; ++rep) {
    parallel_for_trials(kTrials, 7, [&shared_out](std::size_t t, Rng& rng) {
      shared_out[t] = trial_value(rng);
    });
  }
  for (auto& t : drivers) t.join();
  // Every driver saw its own deterministic stream, unaffected by the
  // concurrent pools.
  for (int d = 0; d < kDrivers; ++d)
    EXPECT_EQ(results[d], run_trials(1, 1000 + d)) << "driver " << d;
  EXPECT_EQ(shared_out, run_trials(1, 7));
}

/// One full traced execution under a forced intra-execution thread count.
/// 100 nodes so plan_shards() actually shards (n >= 64).
struct ExecRun {
  ExecutionOutcome outcome;
  std::vector<TraceEvent> events;
};

ExecRun run_execution(std::size_t exec_threads) {
  set_intra_execution_threads(exec_threads);
  Network net(Topology::grid(10, 10), testing::dense_keys());
  VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
  FlightRecorder recorder;
  coordinator.set_recorder(&recorder);
  ExecRun run;
  run.outcome = coordinator.run_min(
      testing::default_readings(net.node_count()));
  run.events = recorder.events();
  set_intra_execution_threads(0);
  return run;
}

TEST(ParallelTsan, LevelParallelExecutionBitIdentical) {
  // The acceptance criterion of the level-parallel drivers: estimates, the
  // full flight-recorder event stream, and fabric byte totals are
  // bit-identical for VMAT_THREADS ∈ {1, 4, hardware_concurrency}.
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const ExecRun serial = run_execution(1);
  const ExecRun four = run_execution(4);
  const ExecRun wide = run_execution(hw);
  ASSERT_EQ(serial.outcome.kind, OutcomeKind::kResult);
  for (const ExecRun* run : {&four, &wide}) {
    EXPECT_EQ(run->outcome.kind, serial.outcome.kind);
    EXPECT_EQ(run->outcome.minima, serial.outcome.minima);
    EXPECT_EQ(run->outcome.data_rounds, serial.outcome.data_rounds);
    EXPECT_EQ(run->outcome.fabric_bytes, serial.outcome.fabric_bytes);
    EXPECT_EQ(run->outcome.metrics, serial.outcome.metrics);
    EXPECT_EQ(run->events, serial.events);
  }
}

TEST(ParallelTsan, LevelParallelAdversarialRunStaysSoundAndIdentical) {
  // Same determinism contract with an adversary in the loop: the strategy
  // hook stages frames serially at the top of each slot, before the honest
  // shards buffer and replay, so pinpointing and revocation histories must
  // match bit-for-bit too.
  auto run_attacked = [](std::size_t exec_threads) {
    set_intra_execution_threads(exec_threads);
    const auto topo = Topology::grid(10, 10);
    Network net(topo, testing::dense_keys());
    const auto malicious = choose_malicious(topo, 2, 13);
    Adversary adv(&net, malicious,
                  named_genome(NamedAttack::kSilent).strategy());
    CoordinatorSpec cfg;
    cfg.depth_bound = topo.depth(malicious);
    VmatCoordinator coordinator(&net, &adv, cfg);
    FlightRecorder recorder;
    coordinator.set_recorder(&recorder);
    const auto readings = testing::default_readings(net.node_count());
    const auto history = testing::until_result(coordinator, readings, 400);
    set_intra_execution_threads(0);
    struct Result {
      Reading minimum;
      std::size_t executions;
      std::vector<TraceEvent> events;
      std::uint64_t bytes;
    } out;
    EXPECT_TRUE(history.back().produced_result());
    out.minimum = history.back().minima[0];
    out.executions = history.size();
    out.events = recorder.events();
    out.bytes = 0;
    for (const auto& h : history) out.bytes += h.fabric_bytes;
    return std::make_tuple(out.minimum, out.executions, out.bytes, out.events);
  };
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const auto serial = run_attacked(1);
  EXPECT_EQ(run_attacked(4), serial);
  EXPECT_EQ(run_attacked(hw), serial);
}

TEST(ParallelTsan, ActiveSetDriversAndShardedBroadcastAtThousandSensors) {
  // n = 1,024, so every slot shards four ways: tree formation's adopter
  // lists, aggregation's level buckets, confirmation's forwarder lists
  // (the choke genome's spurious vetoes flood), the RX passes over
  // end_slot()'s receivers, and the sharded authenticated broadcast. The
  // outcome and the full event stream must not depend on the thread count.
  auto run = [](std::size_t exec_threads, bool choke) {
    set_intra_execution_threads(exec_threads);
    const auto topo = Topology::grid(32, 32);
    Network net(topo, testing::dense_keys());
    std::unique_ptr<Adversary> adversary;
    CoordinatorSpec cfg;
    if (choke) {
      const auto malicious = choose_malicious(topo, 3, 5);
      adversary = std::make_unique<Adversary>(
          &net, malicious, named_genome(NamedAttack::kChoke).strategy());
      cfg.depth_bound = topo.depth(malicious) + 2;
    }
    VmatCoordinator coordinator(&net, adversary.get(), cfg);
    FlightRecorder recorder;
    coordinator.set_recorder(&recorder);
    const auto outcome =
        coordinator.run_min(testing::default_readings(net.node_count()));
    set_intra_execution_threads(0);
    return std::make_tuple(outcome.kind, outcome.minima, outcome.fabric_bytes,
                           outcome.revoked_keys, recorder.events());
  };
  for (const bool choke : {false, true}) {
    const auto serial = run(1, choke);
    EXPECT_EQ(std::get<0>(serial), choke ? OutcomeKind::kRevocation
                                         : OutcomeKind::kResult);
    EXPECT_EQ(run(4, choke), serial) << (choke ? "choke" : "clean");
  }
}

TEST(ParallelTsan, ExceptionUnderLoadLeavesPoolReusable) {
  ThreadPool pool(4);
  for (int round = 0; round < 16; ++round) {
    EXPECT_THROW(pool.for_each(64,
                               [](std::size_t i) {
                                 if (i % 17 == 3)
                                   throw std::runtime_error("boom");
                               }),
                 std::runtime_error);
    std::atomic<int> done{0};
    pool.for_each(64, [&done](std::size_t) {
      done.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(done.load(), 64);
  }
}

}  // namespace
}  // namespace vmat
