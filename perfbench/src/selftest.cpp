// Self-tests for the benchmark's own code: the percentile helper, the
// phase clock's span accounting, and the closed loop's wire-id
// bookkeeping. Exits 0 when every check passes.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <unordered_set>

#include "closed_loop.h"
#include "core/coordinator.h"
#include "harness.h"
#include "serve/daemon.h"
#include "spec/simulation_spec.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentile() {
  using perfbench::percentile;
  check(percentile({}, 50) == 0.0, "percentile of nothing is 0");
  check(percentile({7}, 99) == 7.0, "percentile of one value");
  check(near(percentile({4, 1, 3, 2}, 50), 2.5), "p50 of 1..4 is 2.5");
  check(near(percentile({4, 1, 3, 2}, 25), 1.75), "p25 of 1..4 is 1.75");
  check(near(percentile({10, 20, 30, 40, 50}, 99), 49.6),
        "p99 of 10..50 is 49.6");
  check(near(percentile({10, 20, 30, 40, 50}, 0), 10) &&
            near(percentile({10, 20, 30, 40, 50}, 100), 50),
        "p0 / p100 are the extremes");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  check(near(percentile(hundred, 99), 99.01), "p99 of 1..100 is 99.01");
  check(near(perfbench::median({3, 1, 2}), 2.0), "median of 3 values");
}

/// One run_min on a 49-sensor grid with the clock attached; returns the
/// per-layer metrics add_phase_spans derives from it.
perfbench::RunResult clocked_run(bool attacked, bool& disrupted) {
  vmat::SimulationSpec spec;
  spec.nodes(49).topology(vmat::TopologyKind::kGrid).seed(3).key_pool(200,
                                                                      40);
  if (attacked)
    spec.attack().compromised(2).placement_seed(5).policy(
        {.agg = vmat::campaign::AggAction::kSilentDrop,
         .conf = vmat::campaign::ConfAction::kChokeVeto});
  vmat::Network net(spec);
  std::unique_ptr<vmat::Adversary> adversary;
  if (attacked) adversary = std::move(spec.build_adversary(net).value());
  vmat::VmatCoordinator coordinator(&net, adversary.get(), spec);
  perfbench::PhaseClock clock(/*keep_events=*/false);
  coordinator.set_recorder(&clock);
  std::vector<vmat::Reading> readings(net.node_count(), 500);
  const auto start = perfbench::Clock::now();
  const vmat::ExecutionOutcome out = coordinator.run_min(readings);
  const double op_ms = perfbench::ms_between(start, perfbench::Clock::now());
  disrupted = !out.produced_result();
  perfbench::RunResult result;
  perfbench::add_phase_spans(result, clock, 1.0, op_ms);
  perfbench::complete_per_layer(result);
  return result;
}

double metric(const perfbench::RunResult& result, const std::string& name) {
  for (const perfbench::Metric& m : result.metrics)
    if (m.name == name) return m.value;
  return NAN;
}

void test_phase_clock() {
  for (const bool attacked : {false, true}) {
    bool disrupted = false;
    const perfbench::RunResult r = clocked_run(attacked, disrupted);
    const std::string tag = attacked ? "attacked: " : "clean: ";
    double spans = 0.0;
    for (const char* phase : {"broadcast", "tree_formation", "aggregation",
                              "confirmation", "pinpoint"})
      spans += metric(r, std::string(phase) + ".ms");
    check(disrupted == attacked, tag + "execution disrupted iff attacked");
    check(std::fabs(spans + metric(r, "op.self_ms") - metric(r, "op.ms")) <
              1e-9,
          tag + "spans + op.self_ms == op.ms");
    check(metric(r, "op.self_ms") >= 0.0, tag + "spans fit inside the op");
    check(metric(r, "tree_formation.ms") > 0.0 &&
              metric(r, "aggregation.ms") > 0.0,
          tag + "formation and aggregation spans recorded");
    check((metric(r, "pinpoint.ms") > 0.0) == attacked,
          tag + "pinpoint span non-zero only when disrupted");
  }
}

std::vector<std::uint64_t> drive(std::uint64_t seed, bool& clean) {
  vmat::serve::ServeOptions options;
  options.tenants = 2;
  options.nodes = 16;
  options.instances = 4;
  vmat::serve::Daemon daemon(options);
  perfbench::ClosedLoop loop(daemon, 8, seed);
  for (int i = 0; i < 30; ++i) loop.step(8);
  for (int i = 0; i < 10000 && loop.outstanding() > 0; ++i) loop.step(0);
  clean = loop.failed() == 0 && loop.outstanding() == 0 &&
          loop.completed() == loop.submitted() &&
          loop.latency_ms().size() == loop.completed();
  return loop.collected();
}

void test_closed_loop() {
  bool clean = false;
  const std::vector<std::uint64_t> ids = drive(11, clean);
  check(clean, "closed loop: every submitted query answered, none failed");
  const std::unordered_set<std::uint64_t> unique(ids.begin(), ids.end());
  check(!ids.empty() && unique.size() == ids.size(),
        "closed loop: every wire id collected exactly once (" +
            std::to_string(ids.size()) + " ids)");
  bool again_clean = false;
  check(drive(11, again_clean) == ids && again_clean,
        "closed loop: same seed, same completion sequence");
}

}  // namespace

int main() {
  test_percentile();
  test_phase_clock();
  test_closed_loop();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
