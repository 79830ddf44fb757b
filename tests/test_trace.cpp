// Flight-recorder tests: disabled tracing stays inert, recordings are
// bit-identical across thread counts, ExecutionOutcome costs reconcile
// with the trace totals, the trace-invariant checker catches seeded
// violations, and the JSON export round-trips through
// tools/check_trace.py (which must agree with the C++ checker).
//
// VMAT_PYTHON and VMAT_SOURCE_DIR are injected by tests/CMakeLists.txt
// when a python3 interpreter is available.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/coordinator.h"
#include "helpers.h"
#include "trace/checker.h"
#include "trace/trace.h"

#ifdef VMAT_PYTHON
#include <sys/wait.h>

#include <cstdio>
#endif

namespace vmat {
namespace {

using campaign::named_genome;
using campaign::NamedAttack;
using testing::default_readings;
using testing::dense_keys;

// --- Tracer handle semantics ---

TEST(Tracer, DefaultHandleIsInert) {
  Tracer tracer;
  EXPECT_FALSE(tracer.metering());
  EXPECT_FALSE(tracer.recording());
  EXPECT_EQ(tracer.metrics(), nullptr);
  // Every emit must be a no-op, not a crash.
  tracer.begin_execution();
  tracer.begin_phase(TracePhase::kAggregation);
  tracer.frame_sent(NodeId{1}, NodeId{2}, KeyIndex{3}, 40);
  tracer.mac_verify(NodeId{1}, kNoKey, true);
  tracer.arrival_accepted(NodeId{1}, 2, 500);
  tracer.predicate_test(NodeId{1}, kNoKey, true);
  tracer.end_execution(true, 0);
}

TEST(Tracer, MeteringWithoutSinkCollectsCountersOnly) {
  TraceState state;  // no sink attached
  Tracer tracer{&state};
  EXPECT_TRUE(tracer.metering());
  EXPECT_FALSE(tracer.recording());
  tracer.begin_execution();
  tracer.begin_phase(TracePhase::kAggregation);
  tracer.frame_sent(NodeId{1}, NodeId{2}, KeyIndex{3}, 40);
  tracer.mac_verify(NodeId{1}, kNoKey, false);
  tracer.end_execution(true, 0);
  const PhaseCounters agg = state.metrics.at(TracePhase::kAggregation);
  EXPECT_EQ(agg.frames_sent, 1u);
  EXPECT_EQ(agg.bytes_sent, 40u);
  EXPECT_EQ(agg.mac_verifies, 1u);
  EXPECT_EQ(agg.mac_failures, 1u);
}

// --- Recording full executions ---

struct CleanRun {
  ExecutionOutcome outcome;
  std::uint64_t fabric_bytes_delta{0};
};

CleanRun run_clean(FlightRecorder* recorder) {
  Network net(Topology::grid(5, 5), dense_keys());
  VmatCoordinator coordinator(&net, nullptr, CoordinatorSpec{});
  if (recorder != nullptr) coordinator.set_recorder(recorder);
  const std::uint64_t before = net.fabric().total_bytes();
  CleanRun run;
  run.outcome = coordinator.run_min(default_readings(net.node_count()));
  run.fabric_bytes_delta = net.fabric().total_bytes() - before;
  return run;
}

TEST(FlightRecorder, DetachedRecorderSeesNoEvents) {
  FlightRecorder recorder;
  (void)run_clean(nullptr);  // no recorder attached anywhere
  EXPECT_TRUE(recorder.events().empty());
  EXPECT_EQ(recorder.execution_count(), 0u);
}

TEST(FlightRecorder, MetricsAreMeteredEvenWithoutRecorder) {
  const CleanRun run = run_clean(nullptr);
  const PhaseCounters totals = run.outcome.metrics.totals();
  EXPECT_GT(totals.frames_sent, 0u);
  EXPECT_GT(totals.mac_verifies, 0u);
  EXPECT_EQ(totals.predicate_tests, 0u);
  EXPECT_EQ(totals.auth_broadcasts, 3u);  // announce, query, minima
}

TEST(FlightRecorder, CleanExecutionStreamIsWellFormed) {
  FlightRecorder recorder;
  const CleanRun run = run_clean(&recorder);
  ASSERT_TRUE(run.outcome.produced_result());
  ASSERT_EQ(recorder.execution_count(), 1u);
  ASSERT_FALSE(recorder.events().empty());
  EXPECT_EQ(recorder.events().front().kind, TraceEventKind::kExecutionBegin);
  EXPECT_EQ(recorder.events().back().kind, TraceEventKind::kOutcome);
  EXPECT_TRUE(recorder.events().back().ok);
  ASSERT_EQ(recorder.execution_metrics().size(), 1u);
  EXPECT_EQ(recorder.execution_metrics()[0], run.outcome.metrics);

  const CheckReport check = check_trace(recorder);
  EXPECT_TRUE(check.ok()) << check.to_string();
}

TEST(FlightRecorder, OutcomeCostsReconcileWithTraceTotals) {
  // One frame-size definition end-to-end: the fabric's byte ledger, the
  // outcome's fabric_bytes, and the per-phase trace totals must agree.
  FlightRecorder recorder;
  const CleanRun run = run_clean(&recorder);
  const PhaseCounters totals = run.outcome.metrics.totals();
  EXPECT_EQ(run.outcome.fabric_bytes, totals.bytes_sent);
  EXPECT_EQ(run.outcome.fabric_bytes, run.fabric_bytes_delta);
  // The recorded stream's per-event byte sum tells the same story.
  std::uint64_t event_bytes = 0;
  for (const TraceEvent& e : recorder.events())
    if (e.kind == TraceEventKind::kSend) event_bytes += e.bytes;
  EXPECT_EQ(event_bytes, totals.bytes_sent);
}

ExecutionOutcome run_attacked(FlightRecorder* recorder) {
  const Topology topo = Topology::grid(5, 5);
  const auto malicious = choose_malicious(topo, 3, 14);
  Network net(topo, dense_keys());
  Adversary adv(&net, malicious,
                named_genome(NamedAttack::kChoke).strategy());
  CoordinatorSpec cfg;
  cfg.depth_bound = topo.depth(malicious);
  VmatCoordinator coordinator(&net, &adv, cfg);
  if (recorder != nullptr) coordinator.set_recorder(recorder);
  return coordinator.run_min(default_readings(net.node_count()));
}

TEST(FlightRecorder, RevocationExecutionRecordsPinpointingAndPasses) {
  FlightRecorder recorder;
  const auto out = run_attacked(&recorder);
  ASSERT_FALSE(out.produced_result());
  bool saw_revocation = false, saw_predicate_test = false;
  for (const TraceEvent& e : recorder.events()) {
    saw_revocation = saw_revocation ||
                     e.kind == TraceEventKind::kKeyRevoked ||
                     e.kind == TraceEventKind::kSensorRevoked;
    saw_predicate_test =
        saw_predicate_test || e.kind == TraceEventKind::kPredicateTest;
  }
  EXPECT_TRUE(saw_revocation);
  EXPECT_TRUE(saw_predicate_test);
  EXPECT_FALSE(recorder.events().back().ok);
  EXPECT_GT(out.metrics.at(TracePhase::kPinpoint).predicate_tests, 0u);

  const CheckReport check = check_trace(recorder);
  EXPECT_TRUE(check.ok()) << check.to_string();
}

TEST(FlightRecorder, StreamIsBitIdenticalAcrossThreadCounts) {
  // The determinism contract: events carry no timestamps or addresses, so
  // a recording is a pure function of (topology, keys, seed) — VMAT_THREADS
  // must not leak into it.
  FlightRecorder one, four;
  ASSERT_EQ(setenv("VMAT_THREADS", "1", 1), 0);
  (void)run_attacked(&one);
  ASSERT_EQ(setenv("VMAT_THREADS", "4", 1), 0);
  (void)run_attacked(&four);
  unsetenv("VMAT_THREADS");
  ASSERT_EQ(one.events().size(), four.events().size());
  EXPECT_TRUE(one.events() == four.events());
  EXPECT_EQ(one.to_json(), four.to_json());
}

// --- Checker catches seeded violations ---

TraceContext small_context() {
  TraceContext ctx;
  ctx.nodes = 9;
  ctx.depth_bound = 3;
  ctx.ring_size = 4;
  ctx.slotted_sof = true;
  return ctx;
}

TEST(TraceChecker, FlagsAcceptWithoutVerifiedMac) {
  const std::vector<TraceEvent> events{
      {.kind = TraceEventKind::kExecutionBegin},
      {.kind = TraceEventKind::kMacVerify,
       .phase = TracePhase::kAggregation,
       .a = NodeId{4},
       .ok = true},
      {.kind = TraceEventKind::kArrivalAccepted,
       .phase = TracePhase::kAggregation,
       .a = NodeId{4}},
      // Accepted, but the preceding event verifies a different origin.
      {.kind = TraceEventKind::kArrivalAccepted,
       .phase = TracePhase::kAggregation,
       .a = NodeId{5}},
      {.kind = TraceEventKind::kOutcome, .ok = true},
  };
  const auto report = check_trace(small_context(), events, {});
  ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
  EXPECT_EQ(report.violations[0].property, "mac-before-accept");
}

TEST(TraceChecker, FlagsOverlongPinpointWalk) {
  std::vector<TraceEvent> events{{.kind = TraceEventKind::kExecutionBegin}};
  // L = 3, slotted: a walk may take at most L + 2 = 5 steps.
  for (int step = 0; step < 6; ++step)
    events.push_back({.kind = TraceEventKind::kPinpointStep,
                      .phase = TracePhase::kPinpoint,
                      .value = step});
  events.push_back({.kind = TraceEventKind::kKeyRevoked, .key = KeyIndex{7}});
  events.push_back({.kind = TraceEventKind::kOutcome, .ok = false});
  const auto report = check_trace(small_context(), events, {});
  ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
  EXPECT_EQ(report.violations[0].property, "lemma1-trail");
}

TEST(TraceChecker, FlagsConfirmationEventBeyondLemma1Bound) {
  const std::vector<TraceEvent> events{
      {.kind = TraceEventKind::kExecutionBegin},
      // Interval 5 > L = 3: an audit trail longer than Lemma 1 allows.
      {.kind = TraceEventKind::kVeto,
       .phase = TracePhase::kConfirmation,
       .slot = 5,
       .a = NodeId{7},
       .b = NodeId{7},
       .ok = true},
      {.kind = TraceEventKind::kSensorRevoked, .a = NodeId{7}},
      {.kind = TraceEventKind::kOutcome, .ok = false},
  };
  const auto report = check_trace(small_context(), events, {});
  ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
  EXPECT_EQ(report.violations[0].property, "lemma1-trail");
}

TEST(TraceChecker, FlagsTheorem7ViolationBothWays) {
  const std::vector<TraceEvent> result_and_revocation{
      {.kind = TraceEventKind::kExecutionBegin},
      {.kind = TraceEventKind::kKeyRevoked, .key = KeyIndex{7}},
      {.kind = TraceEventKind::kOutcome, .ok = true},
  };
  auto report = check_trace(small_context(), result_and_revocation, {});
  ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
  EXPECT_EQ(report.violations[0].property, "theorem7-disjunction");

  const std::vector<TraceEvent> neither{
      {.kind = TraceEventKind::kExecutionBegin},
      {.kind = TraceEventKind::kOutcome, .ok = false},
  };
  report = check_trace(small_context(), neither, {});
  ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
  EXPECT_EQ(report.violations[0].property, "theorem7-disjunction");
}

TEST(TraceChecker, FlagsTruncatedExecution) {
  const std::vector<TraceEvent> events{
      {.kind = TraceEventKind::kExecutionBegin},
      {.kind = TraceEventKind::kPhaseBegin, .phase = TracePhase::kBroadcast},
  };
  const auto report = check_trace(small_context(), events, {});
  ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
  EXPECT_EQ(report.violations[0].property, "truncated-execution");
}

TEST(TraceChecker, FlagsCleanExecutionExceedingRoundEnvelope) {
  const std::vector<TraceEvent> events{
      {.kind = TraceEventKind::kExecutionBegin},
      {.kind = TraceEventKind::kOutcome, .ok = true},
  };
  ExecutionMetrics metrics;
  metrics.at(TracePhase::kPinpoint).predicate_tests = 1;
  const std::vector<ExecutionMetrics> snapshots{metrics};
  const auto report = check_trace(small_context(), events, snapshots);
  ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
  EXPECT_EQ(report.violations[0].property, "round-envelope");
}

// --- JSON export + tools/check_trace.py agreement ---

#ifdef VMAT_PYTHON

struct ToolResult {
  int exit_code;
  std::string output;

  [[nodiscard]] bool mentions(const std::string& needle) const {
    return output.find(needle) != std::string::npos;
  }
};

ToolResult run_check_trace(const std::string& args) {
  const std::string cmd = std::string(VMAT_PYTHON) + " " + VMAT_SOURCE_DIR +
                          "/tools/check_trace.py " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "failed to launch: " << cmd;
  std::string output;
  char buf[512];
  while (pipe != nullptr && std::fgets(buf, sizeof buf, pipe) != nullptr)
    output += buf;
  const int status = pipe != nullptr ? pclose(pipe) : -1;
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return ToolResult{code, output};
}

TEST(CheckTracePy, AcceptsARealRecording) {
  FlightRecorder recorder;
  (void)run_attacked(&recorder);
  const std::string path = ::testing::TempDir() + "vmat_attacked_trace.json";
  ASSERT_TRUE(recorder.write_json(path));
  const auto r = run_check_trace(path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.mentions("all invariants hold")) << r.output;
}

TEST(CheckTracePy, FlagsUnverifiedAcceptFixture) {
  const auto r = run_check_trace(std::string(VMAT_SOURCE_DIR) +
                                 "/tools/fixtures/traces/"
                                 "bad_unverified_accept.json");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.mentions("[mac-before-accept]")) << r.output;
  EXPECT_TRUE(r.mentions("1 violation(s)")) << r.output;
}

TEST(CheckTracePy, FlagsOverlongTrailFixture) {
  const auto r = run_check_trace(std::string(VMAT_SOURCE_DIR) +
                                 "/tools/fixtures/traces/"
                                 "bad_overlong_trail.json");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(r.mentions("[lemma1-trail]")) << r.output;
  EXPECT_TRUE(r.mentions("2 violation(s)")) << r.output;
}

#endif  // VMAT_PYTHON

}  // namespace
}  // namespace vmat
