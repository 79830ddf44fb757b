#include "report.h"

#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "trace/trace.h"

namespace perfbench {

void RunResult::set(std::string name, double value, std::string unit) {
  for (Metric& m : metrics) {
    if (m.name != name) continue;
    m.value = value;
    m.unit = std::move(unit);
    return;
  }
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void add_end_to_end(RunResult& result, const std::vector<double>& setup_s,
                    const TimedOps& ops, double tail_percentile) {
  result.set("setup_s", median(setup_s), "s");
  result.set("ops_per_s", ops.ops_per_s(), "1/s");
  result.set("op_p50_ms", percentile(ops.op_ms, 50.0), "ms");
  result.set("op_tail_ms", percentile(ops.op_ms, tail_percentile), "ms");
  result.set("peak_rss_mb", peak_rss_mb(), "MB");
}

const char* phase_prefix(std::size_t phase) {
  static constexpr const char* kNames[vmat::kTracePhaseCount] = {
      "none",        "broadcast",    "tree_formation",
      "aggregation", "confirmation", "pinpoint"};
  return kNames[phase];
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"sim.topology_ms", "ms"},
      {"sim.network_ms", "ms"},
      {"sim.warm_crypto_ms", "ms"},
      {"sim.slot_ticks", "count"},
      {"sim.delivery_ratio", "ratio"},
      {"broadcast.ms", "ms"},
      {"broadcast.auth_broadcasts", "count"},
      {"broadcast.mac_verifies", "count"},
      {"broadcast.bytes_kb", "kB"},
      {"tree_formation.ms", "ms"},
      {"tree_formation.frames", "count"},
      {"tree_formation.mac_verifies", "count"},
      {"tree_formation.bytes_kb", "kB"},
      {"aggregation.ms", "ms"},
      {"aggregation.frames", "count"},
      {"aggregation.mac_computes", "count"},
      {"aggregation.mac_verifies", "count"},
      {"aggregation.bytes_kb", "kB"},
      {"confirmation.ms", "ms"},
      {"confirmation.frames", "count"},
      {"confirmation.mac_verifies", "count"},
      {"confirmation.bytes_kb", "kB"},
      {"pinpoint.ms", "ms"},
      {"pinpoint.predicate_tests", "count"},
      {"pinpoint.flooding_rounds", "count"},
      {"pinpoint.bytes_kb", "kB"},
      {"crypto.mac_ns", "ns"},
      {"crypto.mac_fail_ratio", "ratio"},
      {"keys.node_holds_ns", "ns"},
      {"snapshot.capture_ms", "ms"},
      {"snapshot.restore_ms", "ms"},
      {"trace.events", "count"},
      {"trace.check_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"engine.rounds", "count"},
      {"engine.executions", "count"},
      {"engine.disrupted_executions", "count"},
      {"engine.epochs_formed", "count"},
      {"engine.epochs_rearmed", "count"},
      {"engine.queries_per_execution", "count"},
      {"serve.tick_ms", "ms"},
      {"serve.codec_us", "us"},
      {"serve.query_ticks_p50", "count"},
      {"serve.query_ticks_p99", "count"},
      {"op.ms", "ms"},
      {"op.self_ms", "ms"},
  };
  return kMetrics;
}

void complete_per_layer(RunResult& result) {
  std::unordered_map<std::string, double> have;
  for (const Metric& m : result.metrics) have.emplace(m.name, m.value);
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it = have.find(name);
    ordered.push_back({name, it == have.end() ? 0.0 : it->second, unit});
  }
  result.metrics = std::move(ordered);
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string to_json(const RunResult& result) {
  bool finite = true;
  for (const Metric& m : result.metrics) finite = finite && std::isfinite(m.value);
  std::string out = "{\"correct\": ";
  out += result.correct() && finite ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

void note(const std::string& text) {
  std::printf("# %s\n", text.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
