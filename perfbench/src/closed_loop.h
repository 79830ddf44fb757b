// ClosedLoop — a fixed set of callers driving one serve::Daemon in process,
// through the wire codec (Daemon::handle_payload) and Daemon::tick().
//
// Each caller has at most one query outstanding and submits its next one
// only after its reply arrived, so a slower daemon receives less load. One
// step() submits for every idle caller, runs one tick(), and POLLs once.
// Nothing in a step reads the clock to decide what to do, so the
// request/tick sequence — and every count derived from it — is the same on
// every machine; only the latencies depend on machine speed.
//
// Request order: a seeded shuffle of the fixed mix in blocks of
// tenants x 6 kinds (COUNT, SUM, AVERAGE, MIN, MAX, quantile), so every
// block holds each (tenant, kind) pair exactly once.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "serve/daemon.h"
#include "serve/protocol.h"
#include "stats.h"

namespace perfbench {

class ClosedLoop {
 public:
  ClosedLoop(vmat::serve::Daemon& daemon, std::uint32_t callers,
             std::uint64_t seed);

  /// Submit a request for each idle caller whose index is below
  /// `submitting` (0 while draining), tick once, then POLL every settled
  /// result.
  void step(std::uint32_t submitting);
  /// Queries submitted and not yet returned by a POLL.
  [[nodiscard]] std::size_t outstanding() const noexcept {
    return by_wire_id_.size();
  }
  /// Forget latency, tick and codec samples (after a warm-up); the
  /// submitted / completed / failed counts remain.
  void clear_samples();

  /// STATS through the codec (nullopt if the daemon refused it).
  [[nodiscard]] std::optional<vmat::serve::StatsResponse> stats();

  [[nodiscard]] std::uint64_t submitted() const noexcept { return submitted_; }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  /// Rejected submits, unanswered queries, MIN/MAX answers that differ
  /// from the tenant's first, and POLL results for no outstanding query.
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  /// Wire ids in the order their results arrived.
  [[nodiscard]] const std::vector<std::uint64_t>& collected() const noexcept {
    return collected_;
  }
  /// Per query, in completion order: SUBMIT to the POLL that returned it.
  [[nodiscard]] const std::vector<double>& latency_ms() const noexcept {
    return latency_ms_;
  }
  /// Per query, in completion order: ticks between SUBMIT and that POLL.
  [[nodiscard]] const std::vector<double>& query_ticks() const noexcept {
    return query_ticks_;
  }
  /// Mean Daemon::tick() time since clear_samples().
  [[nodiscard]] double tick_ms_mean() const noexcept {
    return timed_ticks_ > 0 ? tick_ms_ / static_cast<double>(timed_ticks_)
                            : 0.0;
  }
  /// Mean Daemon::handle_payload() time since clear_samples().
  [[nodiscard]] double codec_us_mean() const noexcept {
    return codec_calls_ > 0 ? codec_us_ / static_cast<double>(codec_calls_)
                            : 0.0;
  }

 private:
  struct Pending {
    std::uint32_t caller{0};
    std::uint32_t tenant{0};
    vmat::EngineQueryKind kind{vmat::EngineQueryKind::kCount};
    Clock::time_point submitted_at{};
    std::uint64_t submitted_tick{0};
  };

  [[nodiscard]] vmat::serve::SubmitRequest next_request();
  [[nodiscard]] std::optional<vmat::serve::Response> call(
      const vmat::Bytes& request);
  void settle(const vmat::serve::ResultRecord& record, Clock::time_point now);

  vmat::serve::Daemon& daemon_;
  std::vector<bool> busy_;
  SeedStream order_;
  std::vector<vmat::serve::SubmitRequest> block_;
  std::size_t block_pos_{0};
  std::uint64_t quantiles_{0};
  std::unordered_map<std::uint64_t, Pending> by_wire_id_;
  /// First MIN / MAX answer per tenant.
  std::vector<std::optional<double>> first_min_, first_max_;

  std::uint64_t submitted_{0};
  std::uint64_t completed_{0};
  std::uint64_t failed_{0};
  std::vector<std::uint64_t> collected_;
  std::vector<double> latency_ms_;
  std::vector<double> query_ticks_;
  std::uint64_t ticks_{0};
  std::uint64_t timed_ticks_{0};
  double tick_ms_{0.0};
  double codec_us_{0.0};
  std::uint64_t codec_calls_{0};
};

}  // namespace perfbench
