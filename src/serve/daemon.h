// vmatd — the multi-tenant serving daemon.
//
// One Daemon multiplexes N independent deployments ("tenants": network +
// adversary + coordinator + epoch-batched Engine) over the shared thread
// fabric and speaks the src/serve/protocol.h frame protocol over a pair of
// file descriptors (stdin/stdout, or both ends of a Unix socket).
//
// Scheduling is cooperative and single-threaded at the tenant level (the
// intra-execution parallelism lives inside each Engine round): one tick()
// steps every tenant with open queries by ONE serving round, then
// prepares at most one idle stale tenant ahead of demand — epoch
// pipelining. A tenant whose epoch was invalidated (revocation, rekey)
// gets its tree re-armed from the prepare_epoch() snapshot — or re-formed
// — while OTHER tenants' rounds are serving, so the next burst of queries
// lands on a warm epoch instead of paying formation latency in-band.
//
// Determinism: tick() and handle_request() take no wall-clock input, the
// per-tenant engines draw nonces serially, and the prepare-ahead cursor
// advances deterministically — the same request/tick sequence yields
// bit-identical responses for any VMAT_THREADS. The fd run() loop feeds
// them in arrival order; only arrival order (not time) affects results.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "attack/adversary.h"
#include "core/coordinator.h"
#include "engine/engine.h"
#include "serve/protocol.h"
#include "sim/network.h"
#include "spec/simulation_spec.h"
#include "util/parallel.h"

namespace vmat::serve {

struct ServeOptions {
  std::uint32_t tenants{8};
  /// Per-tenant deployment shape (grid sides are derived from nodes).
  std::uint32_t nodes{36};
  TopologyKind topology{TopologyKind::kGrid};
  std::uint32_t instances{24};
  /// The first `adversary_tenants` tenants host a choke-veto adversary
  /// compromising `f` nodes each — the disrupted-tenant fraction knob.
  std::uint32_t adversary_tenants{0};
  std::uint32_t f{2};
  /// Revocation threshold (theta). 1 by default so a persistently
  /// disrupting adversary is neutralized after a couple of executions and
  /// the tenant resumes answering; 0 (key-only revocation) can take
  /// hundreds of executions to starve a choke-veto adversary out.
  std::uint32_t theta{1};
  std::uint64_t seed{1};
  /// Per-tenant engine tuning (admission window, queue depth, deadlines).
  EngineConfig engine;
};

class Daemon {
 public:
  /// Builds every tenant deployment up front (tenant t seeds its network
  /// with seed + t, so tenants are independent but reproducible). `pool`
  /// runs intra-round parallelism; nullptr = ThreadPool::shared().
  explicit Daemon(ServeOptions options, ThreadPool* pool = nullptr);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Dispatch one decoded request; returns the encoded response payload.
  /// SUBMIT enqueues (readings materialized from the tenant's sensor
  /// state), POLL collects settled results, STATS snapshots counters,
  /// SHUTDOWN drains every tenant and latches shutting_down().
  [[nodiscard]] Bytes handle_request(const Request& request);

  /// decode_request() + handle_request(); malformed payloads become an
  /// error response, never an exception.
  [[nodiscard]] Bytes handle_payload(std::span<const std::uint8_t> payload);

  /// One cooperative scheduling pass: step every tenant with open queries
  /// by one serving round, collect settled results, then prepare at most
  /// one idle stale tenant's epoch ahead of demand (the pipelining slot).
  void tick();

  /// Serve the frame protocol: read requests from `in_fd`, write responses
  /// to `out_fd`, and burn idle time (no readable input) on tick() while
  /// open queries remain. Returns 0 on SHUTDOWN or clean EOF (in-flight
  /// queries drained either way), 1 on a framing/socket error.
  int run(int in_fd, int out_fd);

  /// Attach a flight recorder to one tenant's coordinator: every epoch
  /// formation and serving execution for that tenant records its slices
  /// (tools/check_trace.py-compatible). nullptr detaches.
  void set_recorder(std::uint32_t tenant, FlightRecorder* recorder);

  [[nodiscard]] bool shutting_down() const noexcept { return shutting_down_; }
  [[nodiscard]] std::size_t open_total() const;
  [[nodiscard]] std::size_t results_ready() const noexcept {
    return ready_.size();
  }
  [[nodiscard]] const ServeOptions& options() const noexcept {
    return options_;
  }

 private:
  struct Tenant {
    std::unique_ptr<Network> net;
    std::unique_ptr<Adversary> adversary;
    std::unique_ptr<VmatCoordinator> coordinator;
    std::unique_ptr<Engine> engine;
    std::vector<Reading> readings;  ///< per-node sensor state, entry 0 unused
    bool disrupted{false};
    std::uint64_t submitted{0};
  };

  [[nodiscard]] Bytes handle_submit(const SubmitRequest& request);
  [[nodiscard]] std::vector<ResultRecord> pop_ready(std::uint32_t max);
  [[nodiscard]] StatsResponse stats_snapshot();
  void drain_all();
  /// Move a tenant engine's settled results into the ready queue.
  void collect(std::uint32_t tenant);

  ServeOptions options_;
  ThreadPool* pool_;
  std::vector<Tenant> tenants_;
  std::deque<ResultRecord> ready_;  ///< settled, awaiting POLL/SHUTDOWN
  std::uint64_t ticks_{0};
  std::uint32_t prepare_cursor_{0};  ///< rotating pipelining slot
  bool shutting_down_{false};
};

}  // namespace vmat::serve
