#include "trial_runner.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>

#include "crypto/mac_batch.h"
#include "sim/fabric.h"
#include "util/stats.h"

namespace vmat::bench {

bool smoke() {
  const char* env = std::getenv("VMAT_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

std::size_t trials(std::size_t full) {
  if (const char* env = std::getenv("VMAT_BENCH_TRIALS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v >= 1) return static_cast<std::size_t>(v);
  }
  if (smoke()) return full < 2 ? full : 2;
  return full;
}

// --- JsonWriter ---

JsonWriter::JsonWriter() { first_in_scope_.push_back(true); }

void JsonWriter::comma() {
  if (!first_in_scope_.back()) out_ += ',';
  first_in_scope_.back() = false;
}

void JsonWriter::key(const std::string& k) {
  comma();
  out_ += '"';
  out_ += escaped(k);
  out_ += "\":";
}

std::string JsonWriter::escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::begin_object(const std::string& k) {
  key(k);
  out_ += '{';
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  first_in_scope_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array(const std::string& k) {
  key(k);
  out_ += '[';
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  first_in_scope_.pop_back();
  return *this;
}

namespace {

std::string number(double v) {
  // JSON has no inf/nan literal: a %.6g "inf" (e.g. the ±inf identity
  // extrema of an empty RunningStats serialized into a report) would make
  // the whole file unparseable and take the perf gate down with it. Every
  // non-finite value becomes null at this choke point.
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

JsonWriter& JsonWriter::field(const std::string& k, const std::string& v) {
  key(k);
  out_ += '"';
  out_ += escaped(v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& k, const char* v) {
  return field(k, std::string(v));
}

JsonWriter& JsonWriter::field(const std::string& k, double v) {
  key(k);
  out_ += number(v);
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& k, std::int64_t v) {
  key(k);
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& k, std::uint64_t v) {
  key(k);
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& k, bool v) {
  key(k);
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::element(double v) {
  comma();
  out_ += number(v);
  return *this;
}

// --- BenchReport ---

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {}

void BenchReport::config(std::string key, std::string value) {
  config_.push_back({std::move(key), ConfigKind::kString, std::move(value), 0, 0.0});
}

void BenchReport::config(std::string key, std::int64_t value) {
  config_.push_back({std::move(key), ConfigKind::kInt, {}, value, 0.0});
}

void BenchReport::config(std::string key, double value) {
  config_.push_back({std::move(key), ConfigKind::kDouble, {}, 0, value});
}

TrialGroup& BenchReport::group(std::string label) {
  groups_.push_back(TrialGroup{std::move(label), {}, {}});
  return groups_.back();
}

void BenchReport::result(std::string key, double value) {
  results_.emplace_back(std::move(key), value);
}

namespace {

/// `git rev-parse HEAD`, or "unknown" outside a work tree / without git.
std::string git_sha() {
  std::string sha = "unknown";
  if (FILE* pipe = popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof buf, pipe) != nullptr) {
      std::string line(buf);
      while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
        line.pop_back();
      if (!line.empty()) sha = line;
    }
    pclose(pipe);
  }
  return sha;
}

const char* mac_kernel_name(MacBatch::Impl impl) {
  switch (impl) {
    case MacBatch::Impl::kAuto: return "auto";
    case MacBatch::Impl::kScalar: return "scalar";
    case MacBatch::Impl::kShaNiX2: return "sha-ni-x2";
    case MacBatch::Impl::kAvx2X8: return "avx2-x8";
  }
  return "?";
}

}  // namespace

void BenchReport::write() const {
  JsonWriter w;
  w.begin_object();
  w.field("bench", name_);
  w.field("smoke", smoke());
  w.field("threads", static_cast<std::uint64_t>(default_thread_count()));

  // Run provenance: enough to reproduce (or discount) a perf comparison.
  w.begin_object("meta");
  w.field("git_sha", git_sha());
  const char* threads_env = std::getenv("VMAT_THREADS");
  w.field("vmat_threads", threads_env != nullptr ? threads_env : "");
  w.field("exec_threads",
          static_cast<std::uint64_t>(intra_execution_threads()));
  w.field("mac_kernel", mac_kernel_name(MacBatch::active_impl()));
  w.end_object();

  w.begin_object("config");
  for (const auto& c : config_) {
    switch (c.kind) {
      case ConfigKind::kString: w.field(c.key, c.s); break;
      case ConfigKind::kInt: w.field(c.key, c.i); break;
      case ConfigKind::kDouble: w.field(c.key, c.d); break;
    }
  }
  w.end_object();

  double total_ms = 0.0;
  w.begin_array("trial_groups");
  for (const auto& g : groups_) {
    w.begin_object();
    w.field("label", g.label);
    w.field("trials", static_cast<std::uint64_t>(g.trial_ms.size()));
    if (!g.trial_ms.empty()) {
      w.field("mean_ms", mean(g.trial_ms));
      w.field("min_ms", percentile_nearest_rank(g.trial_ms, 0));
      w.field("p95_ms", percentile_nearest_rank(g.trial_ms, 95));
      w.field("max_ms", percentile_nearest_rank(g.trial_ms, 100));
      w.begin_array("trial_ms");
      for (const double t : g.trial_ms) {
        w.element(t);
        total_ms += t;
      }
      w.end_array();
    }
    for (const auto& [k, v] : g.metrics) w.field(k, v);
    w.end_object();
  }
  w.end_array();

  w.begin_object("results");
  for (const auto& [k, v] : results_) w.field(k, v);
  w.end_object();

  w.field("total_trial_ms", total_ms);
  w.end_object();

  const std::string path = "BENCH_" + name_ + ".json";
  std::ofstream out(path);
  out << w.str() << '\n';
  std::printf("[json] wrote %s\n", path.c_str());
}

void add_phase_metrics(TrialGroup& group, const ExecutionMetrics& metrics) {
  auto emit = [&group](const std::string& prefix, const PhaseCounters& c) {
    group.metric(prefix + ".bytes_kb",
                 static_cast<double>(c.bytes_sent) / kBytesPerKb);
    group.metric(prefix + ".frames", static_cast<double>(c.frames_sent));
    group.metric(prefix + ".mac_verifies",
                 static_cast<double>(c.mac_verifies));
    group.metric(prefix + ".predicate_tests",
                 static_cast<double>(c.predicate_tests));
  };
  for (std::size_t p = 0; p < kTracePhaseCount; ++p) {
    const auto phase = static_cast<TracePhase>(p);
    const PhaseCounters& c = metrics.at(phase);
    if (c == PhaseCounters{}) continue;  // idle phases would just be noise
    emit(to_string(phase), c);
  }
  emit("totals", metrics.totals());
}

void timed_trials(TrialGroup& group, std::size_t n, std::uint64_t base_seed,
                  const std::function<void(std::size_t, Rng&)>& fn,
                  ThreadPool* pool) {
  group.trial_ms.assign(n, 0.0);
  parallel_for_trials(
      n, base_seed,
      [&group, &fn](std::size_t trial, Rng& rng) {
        const auto start = std::chrono::steady_clock::now();
        fn(trial, rng);
        group.trial_ms[trial] =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
      },
      pool);
}

void forked_timed_trials(TrialGroup& group, std::size_t n,
                         std::uint64_t base_seed, const ForkFactory& factory,
                         const ForkTrialFn& fn, ThreadPool* pool) {
  group.trial_ms.assign(n, 0.0);
  // Capture the shared prefix once; the capture deployment then joins the
  // free list and serves forks like any other.
  std::mutex idle_mutex;
  std::vector<std::unique_ptr<ForkDeployment>> idle;
  idle.push_back(factory());
  const Snapshot shared = idle.back()->coordinator->snapshot_after_formation();
  parallel_for_trials(
      n, base_seed,
      [&group, &factory, &fn, &idle_mutex, &idle, &shared](std::size_t trial,
                                                           Rng& rng) {
        std::unique_ptr<ForkDeployment> fork;
        {
          const std::lock_guard<std::mutex> lock(idle_mutex);
          if (!idle.empty()) {
            fork = std::move(idle.back());
            idle.pop_back();
          }
        }
        if (fork == nullptr) fork = factory();
        const auto start = std::chrono::steady_clock::now();
        fn(trial, rng, *fork, shared);
        group.trial_ms[trial] =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        const std::lock_guard<std::mutex> lock(idle_mutex);
        idle.push_back(std::move(fork));
      },
      pool);
}

}  // namespace vmat::bench
