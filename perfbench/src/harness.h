// Shared measurement loops and per-layer helpers for the three workloads.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "phase_clock.h"
#include "report.h"
#include "stats.h"
#include "trace/trace.h"

namespace perfbench {

/// Build the deployment with `make` at least `min_reps` times, and again
/// while less than `min_total_s` has been spent (up to `max_reps`),
/// appending each build's seconds to `setup_s`. Every earlier build is
/// destroyed before the next starts, so peak memory holds one deployment.
/// Returns the last build.
template <class Make>
auto timed_setups(Make&& make, std::vector<double>& setup_s, int min_reps,
                  double min_total_s, int max_reps) {
  decltype(make()) last{};
  double total = 0.0;
  for (int rep = 0; rep < max_reps && (rep < min_reps || total < min_total_s);
       ++rep) {
    last = {};
    const Clock::time_point start = Clock::now();
    last = make();
    const double s = ms_between(start, Clock::now()) / 1000.0;
    setup_s.push_back(s);
    total += s;
  }
  return last;
}

/// Call op(0), op(1), ... until `seconds` have passed (at least one op).
/// Each call returns the milliseconds of its own timed section, so input
/// generation and output checks stay out of op latency; wall_s spans the
/// whole loop.
template <class Op>
TimedOps time_ops(double seconds, Op&& op) {
  TimedOps out;
  const Clock::time_point start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point now = start;
  for (std::uint64_t i = 0; i == 0 || now < deadline; ++i) {
    out.op_ms.push_back(op(i));
    now = Clock::now();
  }
  out.wall_s = ms_between(start, now) / 1000.0;
  return out;
}

/// Per-op phase spans from `clock` over `ops` ops whose mean traced time
/// is `op_ms`: <phase>.ms, op.ms and op.self_ms (op.ms minus every span).
void add_phase_spans(RunResult& result, const PhaseClock& clock, double ops,
                     double op_ms);

/// The clock's exact counts after a fixed number of traced ops, a point
/// every run of a seed reaches in the same program state.
struct Counted {
  vmat::ExecutionMetrics metrics;
  std::uint64_t events{0};
  std::uint64_t slot_ticks{0};
  double ops{0.0};

  void read(const PhaseClock& clock, double ops_done) {
    metrics = clock.metered();
    events = clock.events();
    slot_ticks = clock.slot_ticks();
    ops = ops_done;
  }
};

/// The per-layer metrics every traced run reports: phase spans per op
/// (`op_ms` is the traced op time), the exact counts per counted op
/// (<phase>.frames / .mac_computes / .mac_verifies / .bytes_kb,
/// broadcast.auth_broadcasts, pinpoint.predicate_tests / .flooding_rounds,
/// sim.slot_ticks, sim.delivery_ratio, crypto.mac_fail_ratio,
/// trace.events), crypto.mac_ns, and trace.overhead_pct from the two
/// halves' ops/s.
void add_traced(RunResult& result, const PhaseClock& clock, double ops,
                double op_ms, const Counted& counted, double plain_ops_per_s,
                double traced_ops_per_s);

/// The first seed drawn from `stream` whose first random_geometric
/// placement of `nodes` at `radius` is connected. Topology::random_geometric
/// redraws a disconnected placement, and a redraw repeats the whole build,
/// so an unpinned seed would make set-up time depend on seed luck.
[[nodiscard]] std::uint64_t first_try_connected_seed(std::uint32_t nodes,
                                                     double radius,
                                                     SeedStream& stream);

}  // namespace perfbench
