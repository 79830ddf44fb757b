#include "harness.h"

#include <array>
#include <exception>
#include <string>

#include "crypto/mac_batch.h"
#include "sim/fabric.h"
#include "sim/topology.h"
#include "util/ids.h"

namespace perfbench {

namespace {

void add_phase_counts(RunResult& result, const vmat::ExecutionMetrics& sum,
                      double ops) {
  for (std::size_t p = 1; p < vmat::kTracePhaseCount; ++p) {
    const vmat::PhaseCounters& c = sum.phase[p];
    const std::string prefix = phase_prefix(p);
    result.set(prefix + ".frames", static_cast<double>(c.frames_sent) / ops,
               "count");
    result.set(prefix + ".mac_computes",
               static_cast<double>(c.mac_computes) / ops, "count");
    result.set(prefix + ".mac_verifies",
               static_cast<double>(c.mac_verifies) / ops, "count");
    result.set(prefix + ".bytes_kb",
               static_cast<double>(c.bytes_sent) / vmat::kBytesPerKb / ops,
               "kB");
  }
  const vmat::PhaseCounters& broadcast =
      sum.at(vmat::TracePhase::kBroadcast);
  result.set("broadcast.auth_broadcasts",
             static_cast<double>(broadcast.auth_broadcasts) / ops, "count");
  const vmat::PhaseCounters& pinpoint = sum.at(vmat::TracePhase::kPinpoint);
  result.set("pinpoint.predicate_tests",
             static_cast<double>(pinpoint.predicate_tests) / ops, "count");
  result.set("pinpoint.flooding_rounds",
             static_cast<double>(pinpoint.flooding_rounds) / ops, "count");
  const vmat::PhaseCounters totals = sum.totals();
  if (totals.frames_sent > 0)
    result.set("sim.delivery_ratio",
               static_cast<double>(totals.frames_delivered) /
                   static_cast<double>(totals.frames_sent),
               "ratio");
  if (totals.mac_verifies > 0)
    result.set("crypto.mac_fail_ratio",
               static_cast<double>(totals.mac_failures) /
                   static_cast<double>(totals.mac_verifies),
               "ratio");
}

}  // namespace

void add_phase_spans(RunResult& result, const PhaseClock& clock, double ops,
                     double op_ms) {
  if (ops <= 0.0) return;
  for (std::size_t p = 1; p < vmat::kTracePhaseCount; ++p)
    result.set(std::string(phase_prefix(p)) + ".ms",
               clock.span_ms(static_cast<vmat::TracePhase>(p)) / ops, "ms");
  result.set("op.ms", op_ms, "ms");
  result.set("op.self_ms", op_ms - clock.spans_ms() / ops, "ms");
}

namespace {

const char* kernel_name(vmat::MacBatch::Impl impl) {
  switch (impl) {
    case vmat::MacBatch::Impl::kAuto: return "auto";
    case vmat::MacBatch::Impl::kScalar: return "scalar";
    case vmat::MacBatch::Impl::kShaNiX2: return "sha-ni-x2";
    case vmat::MacBatch::Impl::kAvx2X8: return "avx2-x8";
  }
  return "?";
}

/// ns per MAC of MacBatch::compute over a fixed 64-lane batch; notes the
/// kernel name.
double mac_batch_ns() {
  // 64 lanes of 48-byte messages (an aggregation frame's size class) under
  // 8 keys: the shape receive_valid() hands the kernel for a busy inbox.
  constexpr std::size_t kLanes = 64;
  constexpr std::size_t kIters = 200;
  std::vector<vmat::MacContext> keys;
  for (std::uint64_t k = 0; k < 8; ++k)
    keys.emplace_back(vmat::derive_key("perfbench", 0x5eed, k));
  std::vector<std::array<std::uint8_t, 48>> messages(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i)
    for (std::size_t b = 0; b < 48; ++b)
      messages[i][b] = static_cast<std::uint8_t>(i * 31 + b);
  vmat::MacBatch batch;
  for (std::size_t i = 0; i < kLanes; ++i)
    (void)batch.add(keys[i % keys.size()], messages[i]);
  batch.compute();

  std::vector<double> samples;
  std::uint8_t sink = 0;
  for (int rep = 0; rep < 21; ++rep) {
    const Clock::time_point start = Clock::now();
    for (std::size_t it = 0; it < kIters; ++it) {
      batch.compute();
      sink ^= batch.macs()[it % kLanes].bytes[0];
    }
    samples.push_back(ms_between(start, Clock::now()) * 1e6 /
                      static_cast<double>(kIters * kLanes));
  }
  note(std::string("crypto.mac_kernel=") +
       kernel_name(vmat::MacBatch::active_impl()) +
       " sink=" + std::to_string(sink));
  return median(samples);
}

}  // namespace

std::uint64_t first_try_connected_seed(std::uint32_t nodes, double radius,
                                       SeedStream& stream) {
  for (;;) {
    const std::uint64_t seed = stream.next();
    try {
      (void)vmat::Topology::random_geometric(nodes, radius, seed,
                                             /*max_attempts=*/1);
      return seed;
    } catch (const std::exception&) {
      // Disconnected on the first draw; try the next seed.
    }
  }
}

void add_traced(RunResult& result, const PhaseClock& clock, double ops,
                double op_ms, const Counted& counted, double plain_ops_per_s,
                double traced_ops_per_s) {
  add_phase_spans(result, clock, ops, op_ms);
  if (counted.ops > 0.0) {
    add_phase_counts(result, counted.metrics, counted.ops);
    result.set("sim.slot_ticks",
               static_cast<double>(counted.slot_ticks) / counted.ops, "count");
    result.set("trace.events",
               static_cast<double>(counted.events) / counted.ops, "count");
  }
  result.set("crypto.mac_ns", mac_batch_ns(), "ns");
  result.set("trace.overhead_pct",
             plain_ops_per_s > 0.0
                 ? (plain_ops_per_s - traced_ops_per_s) / plain_ops_per_s * 100.0
                 : 0.0,
             "%");
}

}  // namespace perfbench
