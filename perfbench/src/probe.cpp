#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "campaign/runner.h"
#include "harness.h"
#include "spec/simulation_spec.h"
#include "trace/checker.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::uint32_t kNodes = 1000;
constexpr std::uint32_t kCompromised = 4;
/// Distinct genomes the timed probes cycle through; each is replayed once
/// untimed first, and every later replay must reproduce that digest.
constexpr std::size_t kEntries = 8;
/// ~285 probes per 30 s run leave 28 beyond p90.
constexpr double kTailPercentile = 90.0;
/// BFS depth of the shallowest compromised sensor. The probe's walk runs
/// from the base station down to that sensor, so its predicate-test count
/// grows with this depth (~17 tests per level); pinning it makes every
/// seed's probe walk the same distance.
constexpr vmat::Level kShallowestDepth = 5;

const vmat::campaign::AttackPolicy kChokeVeto{
    .agg = vmat::campaign::AggAction::kSilentDrop,
    .conf = vmat::campaign::ConfAction::kChokeVeto,
    .lie = vmat::LiePolicy::kDenyAll,
};

vmat::SimulationSpec deployment(std::uint64_t seed) {
  vmat::SimulationSpec spec;
  spec.nodes(kNodes)
      .topology(vmat::TopologyKind::kGeometric)
      .seed(seed)
      .key_pool(800, 60)
      .revocation_threshold(8);
  return spec;
}

bool probe_ok(const vmat::campaign::ProbeOutcome& po,
              std::uint64_t expected_digest) {
  return po.ruined && po.adversary_keys_revoked > 0 &&
         po.honest_sensors_revoked == 0 && po.violations == 0 &&
         po.entry.digest == expected_digest;
}

struct Half {
  TimedOps ops;
  std::vector<double> check_ms;
  Counted counted;  ///< traced half: after one cycle of the entries
};

/// `seconds` of probes cycling through `entries`; with a clock attached,
/// also times the trace check each probe ran, outside op latency.
Half run_half(vmat::campaign::CampaignRunner& runner,
              const std::vector<vmat::campaign::CampaignEntry>& entries,
              const std::vector<std::uint64_t>& digests, double seconds,
              PhaseClock* clock, RunResult& result) {
  vmat::FlightRecorder plain;
  vmat::FlightRecorder& recorder =
      clock != nullptr ? static_cast<vmat::FlightRecorder&>(*clock) : plain;
  if (clock != nullptr) clock->reset_totals();
  Half half;
  half.ops = time_ops(seconds, [&](std::uint64_t i) {
    const std::size_t k = i % entries.size();
    const Clock::time_point start = Clock::now();
    const vmat::campaign::ProbeOutcome po = runner.replay(entries[k], recorder);
    const double ms = ms_between(start, Clock::now());
    result.op(probe_ok(po, digests[k]));
    if (clock != nullptr) {
      const Clock::time_point check_start = Clock::now();
      const vmat::CheckReport report = vmat::check_trace(recorder);
      half.check_ms.push_back(ms_between(check_start, Clock::now()));
      if (!report.ok()) result.checks_ok = false;
      if (i < entries.size())
        half.counted.read(*clock, static_cast<double>(i + 1));
    }
    return ms;
  });
  return half;
}

/// Per-call cost of Predistribution::node_holds across every sensor for
/// one pool key — the inner loop of each pinpoint predicate test.
double node_holds_ns(const vmat::Network& net, std::uint64_t draw) {
  const vmat::Predistribution& keys = net.keys();
  const vmat::KeyIndex key{
      static_cast<std::uint32_t>(draw % keys.config().pool_size)};
  std::vector<double> samples;
  std::uint64_t holders = 0;
  for (int rep = 0; rep < 15; ++rep) {
    const Clock::time_point start = Clock::now();
    for (std::uint32_t id = 0; id < net.node_count(); ++id)
      holders += keys.node_holds(vmat::NodeId{id}, key) ? 1 : 0;
    samples.push_back(ms_between(start, Clock::now()) * 1e6 /
                      net.node_count());
  }
  note("keys.node_holds: key=" + std::to_string(key.value) +
       " holders=" + std::to_string(holders / 15));
  return median(samples);
}

/// snapshot.capture_ms: snapshot_after_formation() time minus the time
/// the same announcement + tree-formation prefix takes inside run_min (from
/// the call to the close of its tree-formation span). snapshot.restore_ms:
/// rearm_epoch() after prepare_epoch(). Measured on a twin of probe-1k's
/// deployment with no adversary: every genome forms the tree honestly.
/// nullopt when an execution or a rearm fails.
std::optional<std::pair<double, double>> snapshot_times(
    vmat::Network& net, vmat::SimulationSpec spec) {
  vmat::VmatCoordinator coordinator(&net, nullptr, spec.instances(1));
  PhaseClock clock(/*keep_events=*/false);
  coordinator.set_recorder(&clock);
  const std::vector<vmat::Reading> readings(net.node_count(), 500);
  std::vector<double> whole_ms, prefix_ms;
  for (int rep = 0; rep < 31; ++rep) {
    Clock::time_point start = Clock::now();
    (void)coordinator.snapshot_after_formation();
    whole_ms.push_back(ms_between(start, Clock::now()));
    start = Clock::now();
    if (!coordinator.run_min(readings).produced_result()) return std::nullopt;
    prefix_ms.push_back(
        ms_between(start, clock.closed_at(vmat::TracePhase::kTreeFormation)));
  }
  coordinator.set_recorder(nullptr);

  (void)coordinator.prepare_epoch();
  std::vector<double> restore_ms;
  for (int rep = 0; rep < 31; ++rep) {
    const Clock::time_point start = Clock::now();
    const bool rearmed = coordinator.rearm_epoch();
    restore_ms.push_back(ms_between(start, Clock::now()));
    if (!rearmed) return std::nullopt;
  }
  return std::pair{median(whole_ms) - median(prefix_ms), median(restore_ms)};
}

/// BFS depth of the shallowest sensor in `sensors`.
vmat::Level shallowest(const vmat::Network& net,
                       const std::unordered_set<vmat::NodeId>& sensors) {
  const std::vector<vmat::Level> depth = net.topology().bfs_depth();
  vmat::Level level = std::numeric_limits<vmat::Level>::max();
  for (const vmat::NodeId s : sensors) level = std::min(level, depth[s.value]);
  return level;
}

/// The first seed-drawn placement of kCompromised sensors whose shallowest
/// member sits at kShallowestDepth, placed the way the campaign places it
/// (AttackSpec and CampaignRunner share one placement routine).
std::optional<std::uint64_t> pick_placement(vmat::Network& net,
                                            vmat::SimulationSpec spec,
                                            SeedStream& stream) {
  for (int attempt = 0; attempt < 10000; ++attempt) {
    const std::uint64_t seed = stream.next();
    spec.attack().compromised(kCompromised).placement_seed(seed);
    const vmat::Expected<std::unique_ptr<vmat::Adversary>> adversary =
        spec.build_adversary(net);
    if (adversary &&
        shallowest(net, adversary.value()->malicious()) == kShallowestDepth)
      return seed;
  }
  return std::nullopt;
}

}  // namespace

RunResult run_probe(const Options& options) {
  SeedStream stream(options.seed, 0x960be);
  const std::uint64_t deploy_seed = first_try_connected_seed(
      kNodes, deployment(0).radius_factor() / std::sqrt(kNodes), stream);
  RunResult result;

  vmat::campaign::CampaignConfig config;
  config.spec = deployment(deploy_seed);
  config.compromised = kCompromised;
  config.probes = 1;
  config.seed = deploy_seed;
  // A twin of the runner's deployment (same spec and seed, so the same
  // topology and keys) picks the placement here and later times
  // node_holds, snapshot capture and restore.
  vmat::Network twin(config.spec);
  const std::optional<std::uint64_t> placement =
      pick_placement(twin, config.spec, stream);
  if (!placement.has_value())
    throw std::runtime_error("no placement at the pinned depth");
  config.placement_seed = *placement;

  std::vector<vmat::campaign::CampaignEntry> entries(kEntries);
  for (vmat::campaign::CampaignEntry& entry : entries) {
    entry.seed = 1 + stream.below(1u << 30);
    entry.policy = kChokeVeto;
    entry.when = vmat::campaign::AttackPredicate::always();
  }

  std::vector<double> setup_s;
  const auto runner = timed_setups(
      [&] {
        return std::make_unique<vmat::campaign::CampaignRunner>(config);
      },
      setup_s, 5, 1.0, 25);

  if (shallowest(twin, runner->malicious()) != kShallowestDepth)
    result.checks_ok = false;

  // Warm-up: one untimed replay per genome records the digest every timed
  // replay of it must reproduce.
  std::vector<std::uint64_t> digests;
  for (const vmat::campaign::CampaignEntry& entry : entries) {
    const vmat::campaign::ProbeOutcome po = runner->replay(entry);
    digests.push_back(po.entry.digest);
    result.op(probe_ok(po, po.entry.digest));
  }

  if (!options.trace) {
    const Half half =
        run_half(*runner, entries, digests, options.seconds, nullptr, result);
    add_end_to_end(result, setup_s, half.ops, kTailPercentile);
    return result;
  }

  const Half plain = run_half(*runner, entries, digests, options.seconds / 2,
                              nullptr, result);
  PhaseClock clock(/*keep_events=*/true);
  const Half traced = run_half(*runner, entries, digests,
                               options.seconds / 2, &clock, result);
  add_traced(result, clock, static_cast<double>(traced.ops.op_ms.size()),
             mean(traced.ops.op_ms), traced.counted, plain.ops.ops_per_s(),
             traced.ops.ops_per_s());
  result.set("trace.check_ms", mean(traced.check_ms), "ms");
  result.set("keys.node_holds_ns", node_holds_ns(twin, stream.next()), "ns");
  const auto snapshot = snapshot_times(twin, config.spec);
  if (snapshot.has_value()) {
    result.set("snapshot.capture_ms", snapshot->first, "ms");
    result.set("snapshot.restore_ms", snapshot->second, "ms");
  } else {
    result.checks_ok = false;
  }
  return result;
}

}  // namespace perfbench
