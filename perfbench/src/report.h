// Run options, the result record every workload returns, and the one-line
// JSON result.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
};

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  /// False when a failure was detected that is not an op (a set-up check).
  bool checks_ok{true};
  std::vector<Metric> metrics;

  [[nodiscard]] bool correct() const noexcept {
    return checks_ok && failed == 0 && attempted > 0;
  }
  /// Record one op's verdict.
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void set(std::string name, double value, std::string unit);
};

/// The timed ops of one run.
struct TimedOps {
  std::vector<double> op_ms;
  double wall_s{0.0};  ///< first op start to last op end

  [[nodiscard]] double ops_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(op_ms.size()) / wall_s : 0.0;
  }
};

/// The end-to-end metrics of an untraced run, from its set-up samples
/// and its timed ops. op_tail_ms is the `tail_percentile`-th percentile,
/// which each workload fixes so that a run has at least ten ops beyond it.
void add_end_to_end(RunResult& result, const std::vector<double>& setup_s,
                    const TimedOps& ops, double tail_percentile);

/// Every per-layer metric name with its unit, in BENCHMARK.json order.
/// A traced run reports each of them; a layer a workload does not
/// exercise reads 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

/// Fills every per_layer_metrics() entry that `result` lacks with 0 and
/// orders the list like per_layer_metrics().
void complete_per_layer(RunResult& result);

/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// The final JSON line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string to_json(const RunResult& result);

/// Print an informational "# key=value" line (everything but the last
/// stdout line is for humans).
void note(const std::string& text);

/// Per-phase metric prefix ("tree_formation", ...) for a phase.
[[nodiscard]] const char* phase_prefix(std::size_t phase);

}  // namespace perfbench
