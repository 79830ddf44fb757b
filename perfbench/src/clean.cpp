#include <algorithm>
#include <limits>
#include <memory>

#include "core/coordinator.h"
#include "harness.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "util/parallel.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::uint32_t kNodes = 50000;
/// ~75 ops per 30 s run leave 15 beyond p80.
constexpr double kTailPercentile = 80.0;
/// Counts are averaged over this many ops at the start of the traced
/// half, which every run reaches, so they repeat exactly between runs.
constexpr std::uint64_t kCountedOps = 4;
/// The base station's own reading: above every sensor's, so the true
/// minimum is the sensors' minimum whether or not node 0 contributes.
constexpr vmat::Reading kBaseStationReading =
    std::numeric_limits<std::int32_t>::max();

struct Seeds {
  std::uint64_t topology, keys, nonces, readings;
};

struct SetupTimes {
  std::vector<double> topology_ms, network_ms, warm_ms;
};

std::unique_ptr<vmat::Network> build(const Seeds& seeds, SetupTimes& times) {
  const Clock::time_point t0 = Clock::now();
  vmat::Topology topology = vmat::Topology::random_geometric(
      kNodes, vmat::Topology::connected_radius(kNodes), seeds.topology);
  topology.shed_adjacency();
  const Clock::time_point t1 = Clock::now();
  vmat::NetworkSpec spec;
  spec.keys.pool_size = 1000;
  spec.keys.ring_size = 180;
  spec.keys.seed = seeds.keys;
  auto net = std::make_unique<vmat::Network>(std::move(topology), spec);
  const Clock::time_point t2 = Clock::now();
  net->warm_crypto_caches();
  const Clock::time_point t3 = Clock::now();
  times.topology_ms.push_back(ms_between(t0, t1));
  times.network_ms.push_back(ms_between(t1, t2));
  times.warm_ms.push_back(ms_between(t2, t3));
  return net;
}

struct Half {
  TimedOps ops;
  Counted counted;  ///< traced half: after the first kCountedOps ops
};

/// One warm-up op then `seconds` of timed ops on a fresh coordinator, so
/// both halves of a traced run see the same op sequence.
Half run_half(vmat::Network& net, const Seeds& seeds, double seconds,
              PhaseClock* clock, RunResult& result) {
  vmat::CoordinatorSpec config;
  config.seed = seeds.nonces;
  vmat::VmatCoordinator coordinator(&net, nullptr, config);
  if (clock != nullptr) coordinator.set_recorder(clock);
  std::vector<vmat::Reading> readings(net.node_count());

  // Op j runs over readings drawn from stream j; j = 0 is the warm-up.
  auto op = [&](std::uint64_t j) {
    SeedStream draw(seeds.readings, j);
    readings[0] = kBaseStationReading;
    vmat::Reading true_min = kBaseStationReading;
    for (std::size_t id = 1; id < readings.size(); ++id) {
      readings[id] = 1 + static_cast<vmat::Reading>(draw.below(1000000000));
      true_min = std::min(true_min, readings[id]);
    }
    const Clock::time_point start = Clock::now();
    const vmat::ExecutionOutcome out = coordinator.run_min(readings);
    const double ms = ms_between(start, Clock::now());
    result.op(out.produced_result() && out.minima.size() == 1 &&
              out.minima[0] == true_min);
    return ms;
  };

  (void)op(0);
  if (clock != nullptr) clock->reset_totals();
  Half half;
  half.ops = time_ops(seconds, [&](std::uint64_t i) {
    const double ms = op(i + 1);
    if (clock != nullptr && i + 1 <= kCountedOps)
      half.counted.read(*clock, static_cast<double>(i + 1));
    return ms;
  });
  return half;
}

}  // namespace

RunResult run_clean(const Options& options) {
  SeedStream stream(options.seed, 0xc1ea);
  Seeds seeds{};
  seeds.topology = first_try_connected_seed(
      kNodes, vmat::Topology::connected_radius(kNodes), stream);
  seeds.keys = stream.next();
  seeds.nonces = stream.next();
  seeds.readings = stream.next();
  note("clean-50k: nodes=" + std::to_string(kNodes) + " exec_threads=" +
       std::to_string(vmat::intra_execution_threads()));

  RunResult result;
  std::vector<double> setup_s;
  SetupTimes times;
  const std::unique_ptr<vmat::Network> net = timed_setups(
      [&] { return build(seeds, times); }, setup_s, 3, 0.0, 3);

  if (!options.trace) {
    const Half half = run_half(*net, seeds, options.seconds, nullptr, result);
    add_end_to_end(result, setup_s, half.ops, kTailPercentile);
    return result;
  }

  const Half plain =
      run_half(*net, seeds, options.seconds / 2, nullptr, result);
  PhaseClock clock(/*keep_events=*/false);
  const Half traced =
      run_half(*net, seeds, options.seconds / 2, &clock, result);
  add_traced(result, clock, static_cast<double>(traced.ops.op_ms.size()),
             mean(traced.ops.op_ms), traced.counted, plain.ops.ops_per_s(),
             traced.ops.ops_per_s());
  result.set("sim.topology_ms", median(times.topology_ms), "ms");
  result.set("sim.network_ms", median(times.network_ms), "ms");
  result.set("sim.warm_crypto_ms", median(times.warm_ms), "ms");
  return result;
}

}  // namespace perfbench
