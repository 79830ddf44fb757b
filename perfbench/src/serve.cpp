#include <algorithm>
#include <memory>
#include <optional>

#include "closed_loop.h"
#include "harness.h"
#include "serve/daemon.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::uint32_t kCallers = 64;
/// Tens of thousands of queries per run: p99 has hundreds beyond it.
constexpr double kTailPercentile = 99.0;
/// Exact counts are read when this many timed queries have completed,
/// a point every run reaches with the same daemon state.
constexpr std::uint64_t kCountedQueries = 2000;
/// A drain that needs more ticks than this has lost a query.
constexpr int kMaxDrainTicks = 100000;

/// Eight clean tenants. No tenant hosts an adversary: with the daemon's
/// ChokeVeto tenant (f=2, theta=1), theta=1 revocations also revoke the
/// honest sensors that hold a pinpointed key, and on 3 of the 5 seeds tried
/// that tenant then answered every later MIN/MAX with kUnavailable ("no
/// reading arrived"). A workload whose ops fail cannot be a benchmark, so
/// the disrupted path is measured by probe-1k instead (see NOTES.md).
vmat::serve::ServeOptions serve_options(std::uint64_t seed) {
  vmat::serve::ServeOptions o;
  o.tenants = 8;
  o.nodes = 36;
  o.topology = vmat::TopologyKind::kGrid;
  o.instances = 16;
  o.adversary_tenants = 0;
  o.seed = seed;
  return o;
}

struct Half {
  TimedOps ops;
  double tick_ms{0.0};
  double codec_us{0.0};
  // Read once kCountedQueries timed queries completed.
  std::optional<vmat::serve::StatsResponse> stats;
  Counted counted;
  std::vector<double> counted_query_ticks;
};

/// One warm-up query, then `seconds` of the closed loop, then a drain of
/// every outstanding query (its latencies count).
Half run_half(vmat::serve::Daemon& daemon, std::uint64_t order_seed,
              double seconds, PhaseClock* clock, RunResult& result) {
  const std::uint32_t tenants = daemon.options().tenants;
  for (std::uint32_t t = 0; t < tenants && clock != nullptr; ++t)
    daemon.set_recorder(t, clock);
  ClosedLoop loop(daemon, kCallers, order_seed);
  loop.step(1);
  for (int i = 0; i < kMaxDrainTicks && loop.outstanding() > 0; ++i)
    loop.step(0);
  loop.clear_samples();
  if (clock != nullptr) clock->reset_totals();

  Half half;
  const std::uint64_t base = loop.completed();
  // Counts are read once, when kCountedQueries timed queries completed
  // (or at the end of a run too short to get there).
  auto count_once = [&](bool at_end) {
    const std::uint64_t done = loop.completed() - base;
    if (half.stats.has_value() || (!at_end && done < kCountedQueries))
      return;
    half.stats = loop.stats();
    if (!half.stats.has_value()) result.checks_ok = false;
    const std::vector<double>& ticks = loop.query_ticks();
    half.counted_query_ticks.assign(
        ticks.begin(), ticks.begin() + static_cast<std::ptrdiff_t>(std::min(
                                           ticks.size(), kCountedQueries)));
    if (clock != nullptr)
      half.counted.read(*clock, static_cast<double>(done));
  };

  const Clock::time_point start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  while (Clock::now() < deadline) {
    loop.step(kCallers);
    count_once(false);
  }
  for (int i = 0; i < kMaxDrainTicks && loop.outstanding() > 0; ++i) {
    loop.step(0);
    count_once(false);
  }
  count_once(true);
  half.ops.wall_s = ms_between(start, Clock::now()) / 1000.0;
  half.ops.op_ms = loop.latency_ms();
  half.tick_ms = loop.tick_ms_mean();
  half.codec_us = loop.codec_us_mean();

  result.attempted += loop.submitted();
  result.failed += loop.failed() + loop.outstanding();
  for (std::uint32_t t = 0; t < tenants && clock != nullptr; ++t)
    daemon.set_recorder(t, nullptr);
  return half;
}

void add_engine_counts(RunResult& result,
                       const vmat::serve::StatsResponse& stats) {
  vmat::serve::TenantStats sum;
  for (const vmat::serve::TenantStats& t : stats.tenants) {
    sum.answered += t.answered;
    sum.failed += t.failed;
    sum.rounds += t.rounds;
    sum.executions += t.executions;
    sum.disrupted_executions += t.disrupted_executions;
    sum.epochs_formed += t.epochs_formed;
    sum.epochs_rearmed += t.epochs_rearmed;
  }
  const double settled = static_cast<double>(sum.answered + sum.failed);
  const double per_1000 = settled > 0.0 ? 1000.0 / settled : 0.0;
  result.set("engine.rounds", static_cast<double>(sum.rounds) * per_1000,
             "count");
  result.set("engine.executions",
             static_cast<double>(sum.executions) * per_1000, "count");
  result.set("engine.disrupted_executions",
             static_cast<double>(sum.disrupted_executions) * per_1000,
             "count");
  result.set("engine.epochs_formed",
             static_cast<double>(sum.epochs_formed) * per_1000, "count");
  result.set("engine.epochs_rearmed",
             static_cast<double>(sum.epochs_rearmed) * per_1000, "count");
  if (sum.executions > 0)
    result.set("engine.queries_per_execution",
               settled / static_cast<double>(sum.executions), "count");
}

}  // namespace

RunResult run_serve(const Options& options) {
  SeedStream stream(options.seed, 0x5e7e);
  const vmat::serve::ServeOptions serve =
      serve_options(1 + stream.below(1u << 30));
  const std::uint64_t order_seed = stream.next();

  RunResult result;
  std::vector<double> setup_s;
  std::unique_ptr<vmat::serve::Daemon> daemon = timed_setups(
      [&] { return std::make_unique<vmat::serve::Daemon>(serve); }, setup_s,
      5, 1.0, 25);

  if (!options.trace) {
    const Half half =
        run_half(*daemon, order_seed, options.seconds, nullptr, result);
    add_end_to_end(result, setup_s, half.ops, kTailPercentile);
    return result;
  }

  const Half plain =
      run_half(*daemon, order_seed, options.seconds / 2, nullptr, result);
  // A fresh daemon, so the traced half replays the same request/tick
  // sequence from the same state.
  daemon = std::make_unique<vmat::serve::Daemon>(serve);
  PhaseClock clock(/*keep_events=*/false);
  const Half traced =
      run_half(*daemon, order_seed, options.seconds / 2, &clock, result);
  // An op's traced time is the traced wall span per completed query.
  const double ops = static_cast<double>(traced.ops.op_ms.size());
  add_traced(result, clock, ops, traced.ops.wall_s * 1000.0 / ops,
             traced.counted, plain.ops.ops_per_s(), traced.ops.ops_per_s());
  if (traced.stats.has_value()) add_engine_counts(result, *traced.stats);
  result.set("serve.tick_ms", traced.tick_ms, "ms");
  result.set("serve.codec_us", traced.codec_us, "us");
  result.set("serve.query_ticks_p50",
             percentile(traced.counted_query_ticks, 50.0), "count");
  result.set("serve.query_ticks_p99",
             percentile(traced.counted_query_ticks, 99.0), "count");
  return result;
}

}  // namespace perfbench
