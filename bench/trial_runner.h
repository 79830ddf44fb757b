// Shared Monte-Carlo harness for the figure/table benches.
//
// Wraps util/parallel.h with the bench-side conveniences every harness
// needs: smoke-mode gating (VMAT_BENCH_SMOKE=1 shrinks trial counts so
// ctest can execute every bench), per-trial wall-clock capture, and a
// machine-readable BENCH_<name>.json report written next to the human
// tables (config, per-trial timings, aggregate stats).
//
// Determinism: trial work runs through vmat::parallel_for_trials, so the
// statistical results are bit-identical for any VMAT_THREADS. Only the
// timing columns (and the timings in the JSON) vary run to run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "attack/adversary.h"
#include "core/coordinator.h"
#include "sim/network.h"
#include "sim/snapshot.h"
#include "trace/trace.h"
#include "util/parallel.h"

namespace vmat::bench {

/// True when VMAT_BENCH_SMOKE is set (non-empty, not "0"): benches should
/// shrink to a tiny configuration that merely exercises every code path.
[[nodiscard]] bool smoke();

/// Trial count to run: VMAT_BENCH_TRIALS if set, else 2 in smoke mode,
/// else `full`.
[[nodiscard]] std::size_t trials(std::size_t full);

/// Minimal streaming JSON writer — enough structure for the BENCH_*.json
/// reports without a dependency.
class JsonWriter {
 public:
  JsonWriter();

  JsonWriter& begin_object();            // anonymous (root or array element)
  JsonWriter& begin_object(const std::string& key);
  JsonWriter& end_object();
  JsonWriter& begin_array(const std::string& key);
  JsonWriter& end_array();

  JsonWriter& field(const std::string& key, const std::string& value);
  JsonWriter& field(const std::string& key, const char* value);
  JsonWriter& field(const std::string& key, double value);
  JsonWriter& field(const std::string& key, std::int64_t value);
  JsonWriter& field(const std::string& key, std::uint64_t value);
  JsonWriter& field(const std::string& key, bool value);
  JsonWriter& element(double value);     // array element

  [[nodiscard]] const std::string& str() const noexcept { return out_; }

 private:
  void comma();
  void key(const std::string& k);
  static std::string escaped(const std::string& s);

  std::string out_;
  std::vector<bool> first_in_scope_;
};

/// One named group of timed trials inside a report (e.g. "n=1000 f=5").
struct TrialGroup {
  std::string label;
  std::vector<double> trial_ms;                       // indexed by trial
  std::vector<std::pair<std::string, double>> metrics;  // aggregate results

  void metric(std::string key, double value) {
    metrics.emplace_back(std::move(key), value);
  }
};

/// Collects a bench's config, trial groups, and aggregate results, then
/// writes BENCH_<name>.json into the working directory.
class BenchReport {
 public:
  explicit BenchReport(std::string name);

  void config(std::string key, std::string value);
  void config(std::string key, std::int64_t value);
  void config(std::string key, double value);

  /// Append a new trial group and return it (stable until the next call).
  TrialGroup& group(std::string label);

  /// Top-level aggregate result.
  void result(std::string key, double value);

  /// Write BENCH_<name>.json and print a one-line pointer to stdout.
  void write() const;

 private:
  enum class ConfigKind { kString, kInt, kDouble };
  struct ConfigEntry {
    std::string key;
    ConfigKind kind;
    std::string s;
    std::int64_t i{0};
    double d{0.0};
  };

  std::string name_;
  std::vector<ConfigEntry> config_;
  std::vector<TrialGroup> groups_;
  std::vector<std::pair<std::string, double>> results_;
};

/// Run `n` timed trials through the shared pool (or `pool` if given — a
/// ThreadPool(1) makes sense for wall-clock benches whose per-trial timings
/// must not contend): fn(trial, rng) with the engine's deterministic
/// per-trial seeding. Per-trial wall times land in group.trial_ms.
/// Statistical outputs must go into per-trial slots owned by the caller and
/// be reduced after this returns.
void timed_trials(TrialGroup& group, std::size_t n, std::uint64_t base_seed,
                  const std::function<void(std::size_t, Rng&)>& fn,
                  ThreadPool* pool = nullptr);

/// One self-contained deployment a fork trial runs on: the coordinator
/// mutates its network during an execution, so concurrent trials need
/// disjoint deployments. Factories build them; forked_timed_trials()
/// recycles them through a free list.
struct ForkDeployment {
  std::unique_ptr<Network> net;
  std::unique_ptr<Adversary> adversary;  ///< may be null (no attack)
  std::unique_ptr<VmatCoordinator> coordinator;
};

/// Builds one ForkDeployment. Must be deterministic (same seed, same
/// malicious set every call): the shared snapshot is captured from one
/// factory product and restored into the others, and the fingerprint check
/// rejects any drift.
using ForkFactory = std::function<std::unique_ptr<ForkDeployment>()>;

/// One fork trial body: finish the execution from `snapshot`
/// (resume_min on fork.coordinator). Strategies may diverge per trial via
/// set_adversary(), but the malicious *set* is fixed by the factory.
using ForkTrialFn = std::function<void(
    std::size_t trial, Rng& rng, ForkDeployment& fork, const Snapshot& snapshot)>;

/// Fork-fan-out twin of timed_trials(): capture the post-formation prefix
/// ONCE from a factory-built deployment, then run `n` timed trials that
/// each resume from that shared snapshot on a recycled deployment (a new
/// factory product only when every built one is busy). Timings cover fn
/// only (construction and capture are untimed).
void forked_timed_trials(TrialGroup& group, std::size_t n,
                         std::uint64_t base_seed, const ForkFactory& factory,
                         const ForkTrialFn& fn, ThreadPool* pool = nullptr);

/// Flatten a flight-recorder metrics snapshot into per-phase group metrics
/// ("<phase>.bytes_kb", "<phase>.frames", "<phase>.mac_verifies",
/// "<phase>.predicate_tests" for phases with activity, plus totals) so
/// every BENCH_*.json carries the typed per-phase cost breakdown.
void add_phase_metrics(TrialGroup& group, const ExecutionMetrics& metrics);

}  // namespace vmat::bench
