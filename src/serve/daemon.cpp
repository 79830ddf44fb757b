#include "serve/daemon.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "attack/strategies.h"
#include "campaign/strategy.h"

namespace vmat::serve {

namespace {

/// Wire request id: tenant (1-based, high half) | engine query id (low
/// half). Deterministic — no lookup table to keep in sync with the engine.
std::uint64_t wire_id(std::uint32_t tenant, std::uint64_t engine_id) {
  return (static_cast<std::uint64_t>(tenant) + 1) << 32 |
         (engine_id & 0xffffffffull);
}

bool input_ready(int fd) {
  pollfd p{};
  p.fd = fd;
  p.events = POLLIN;
  while (true) {
    const int n = ::poll(&p, 1, 0);
    if (n < 0 && errno == EINTR) continue;
    return n > 0;
  }
}

}  // namespace

Daemon::Daemon(ServeOptions options, ThreadPool* pool)
    : options_(std::move(options)), pool_(pool) {
  if (options_.tenants == 0)
    throw std::invalid_argument("Daemon: tenants must be positive");
  tenants_.reserve(options_.tenants);
  for (std::uint32_t t = 0; t < options_.tenants; ++t) {
    Tenant tenant;
    tenant.disrupted = t < options_.adversary_tenants && options_.f > 0;

    std::uint32_t nodes = options_.nodes;
    if (options_.topology == TopologyKind::kGrid) {
      const auto side =
          static_cast<std::uint32_t>(std::sqrt(static_cast<double>(nodes)));
      nodes = side * side;
    }
    SimulationSpec spec;
    spec.nodes(nodes)
        .topology(options_.topology)
        .seed(options_.seed + t)
        .key_pool(1000, 180)
        .revocation_threshold(options_.theta)
        .instances(options_.instances);
    const auto errors = spec.validate();
    if (!errors.empty())
      throw std::invalid_argument("Daemon: invalid tenant spec: " +
                                  errors.front().to_string());
    tenant.net = std::make_unique<Network>(spec);

    std::unordered_set<NodeId> malicious;
    if (tenant.disrupted)
      malicious = choose_malicious(tenant.net->topology(), options_.f,
                                   options_.seed + 17 + t);
    std::unique_ptr<AdversaryStrategy> strategy;
    if (tenant.disrupted)
      strategy =
          campaign::named_genome(campaign::NamedAttack::kChoke).strategy();
    else
      strategy = std::make_unique<NullStrategy>();
    tenant.adversary = std::make_unique<Adversary>(tenant.net.get(), malicious,
                                                   std::move(strategy));
    spec.depth_bound(tenant.net->topology().depth(malicious));
    tenant.coordinator = std::make_unique<VmatCoordinator>(
        tenant.net.get(), tenant.adversary.get(), spec);
    tenant.engine = std::make_unique<Engine>(tenant.coordinator.get(),
                                             options_.engine, pool_);

    // Per-tenant sensor state: distinct per node AND per tenant, so
    // cross-tenant leakage shows up as a wrong number, not a coincidence.
    tenant.readings.assign(tenant.net->node_count(), 0);
    for (std::uint32_t id = 0; id < tenant.net->node_count(); ++id)
      tenant.readings[id] =
          1000 + static_cast<Reading>((id * 131 + t * 37) % 777);

    tenants_.push_back(std::move(tenant));
  }
}

Daemon::~Daemon() = default;

void Daemon::set_recorder(std::uint32_t tenant, FlightRecorder* recorder) {
  if (tenant < tenants_.size())
    tenants_[tenant].coordinator->set_recorder(recorder);
}

std::size_t Daemon::open_total() const {
  std::size_t open = 0;
  for (const Tenant& t : tenants_) open += t.engine->open_queries();
  return open;
}

namespace {

ResultRecord to_record(std::uint32_t tenant, const EngineResult& r) {
  ResultRecord rec;
  rec.request_id = wire_id(tenant, r.id);
  rec.tenant = tenant;
  rec.kind = r.kind;
  rec.answered = r.answered();
  if (rec.answered)
    rec.estimate = *r.estimate;
  else
    rec.error = r.error.has_value() ? r.error->code : ErrorCode::kUnavailable;
  rec.executions = static_cast<std::uint32_t>(r.executions);
  rec.epoch_id = r.epoch_id;
  return rec;
}

}  // namespace

void Daemon::collect(std::uint32_t tenant) {
  Tenant& t = tenants_[tenant];
  for (const EngineResult& r : t.engine->take_ready())
    ready_.push_back(to_record(tenant, r));
}

Bytes Daemon::handle_submit(const SubmitRequest& request) {
  if (shutting_down_)
    return encode_error(Op::kSubmit,
                        Error{ErrorCode::kUnavailable, "daemon shutting down"});
  if (request.tenant >= tenants_.size())
    return encode_error(
        Op::kSubmit, Error{ErrorCode::kInvalidArgument, "tenant out of range"});
  Tenant& t = tenants_[request.tenant];
  const std::uint32_t n = t.net->node_count();

  EngineQuery q;
  q.kind = request.kind;
  q.instances = request.instances;
  q.max_executions = static_cast<int>(request.max_executions);
  switch (request.kind) {
    case EngineQueryKind::kCount:
      q.predicate.assign(n, 0);
      for (std::uint32_t id = 1; id < n; ++id)
        q.predicate[id] = t.readings[id] >= request.threshold ? 1 : 0;
      break;
    case EngineQueryKind::kSum:
    case EngineQueryKind::kAverage:
    case EngineQueryKind::kQuantile:
      q.readings.assign(n, 0);
      for (std::uint32_t id = 1; id < n; ++id)
        q.readings[id] = t.readings[id];
      q.q = request.q;
      q.domain_max = request.domain_max;
      break;
    case EngineQueryKind::kMin:
    case EngineQueryKind::kMax:
      q.raw = t.readings;
      break;
  }

  const Expected<std::uint64_t> id = t.engine->submit(std::move(q));
  if (!id) return encode_error(Op::kSubmit, id.error());
  t.submitted += 1;
  return encode_submit_ok(wire_id(request.tenant, *id));
}

std::vector<ResultRecord> Daemon::pop_ready(std::uint32_t max) {
  std::vector<ResultRecord> out;
  const std::size_t take =
      max == 0 ? ready_.size() : std::min<std::size_t>(max, ready_.size());
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    out.push_back(ready_.front());
    ready_.pop_front();
  }
  return out;
}

StatsResponse Daemon::stats_snapshot() {
  StatsResponse out;
  out.ticks = ticks_;
  out.results_ready = ready_.size();
  out.tenants.reserve(tenants_.size());
  for (std::uint32_t i = 0; i < tenants_.size(); ++i) {
    const Tenant& t = tenants_[i];
    const EngineStats& s = t.engine->stats();
    TenantStats ts;
    ts.tenant = i;
    ts.disrupted = t.disrupted;
    ts.open = static_cast<std::uint32_t>(t.engine->open_queries());
    ts.submitted = t.submitted;
    ts.answered = s.queries_answered;
    ts.failed = s.queries_failed;
    ts.rounds = s.rounds;
    ts.executions = s.executions;
    ts.disrupted_executions = s.disrupted_executions;
    ts.epochs_formed = s.epochs_formed;
    ts.epochs_rearmed = s.epochs_rearmed;
    ts.fabric_bytes = s.fabric_bytes;
    out.tenants.push_back(ts);
  }
  return out;
}

void Daemon::drain_all() {
  for (std::uint32_t i = 0; i < tenants_.size(); ++i) {
    Tenant& t = tenants_[i];
    if (t.engine->queued() == 0) continue;
    for (const EngineResult& r : t.engine->drain())
      ready_.push_back(to_record(i, r));
  }
}

Bytes Daemon::handle_request(const Request& request) {
  switch (request.op) {
    case Op::kSubmit:
      return handle_submit(request.submit);
    case Op::kPoll: {
      for (std::uint32_t i = 0; i < tenants_.size(); ++i) collect(i);
      const std::vector<ResultRecord> out = pop_ready(request.poll_max);
      return encode_results(Op::kPoll, out);
    }
    case Op::kStats:
      return encode_stats_ok(stats_snapshot());
    case Op::kShutdown: {
      drain_all();
      shutting_down_ = true;
      const std::vector<ResultRecord> out = pop_ready(0);
      return encode_results(Op::kShutdown, out);
    }
  }
  return encode_error(request.op,
                      Error{ErrorCode::kInvalidArgument, "unhandled opcode"});
}

Bytes Daemon::handle_payload(std::span<const std::uint8_t> payload) {
  const Expected<Request> request = decode_request(payload);
  if (!request) {
    // Best-effort opcode echo so the client can pair the error with its
    // request even when the payload was malformed past the first byte.
    Op op = Op::kPoll;
    if (!payload.empty() && payload.front() >= 1 && payload.front() <= 4)
      op = static_cast<Op>(payload.front());
    return encode_error(op, request.error());
  }
  return handle_request(*request);
}

void Daemon::tick() {
  ticks_ += 1;
  for (std::uint32_t i = 0; i < tenants_.size(); ++i) {
    Tenant& t = tenants_[i];
    if (t.engine->open_queries() == 0) continue;
    t.engine->step();
    collect(i);
  }
  // Pipelining slot: while the rounds above were serving, at most one idle
  // tenant whose epoch went stale gets its tree re-armed (or re-formed)
  // ahead of demand. The rotating cursor keeps the slot fair and the
  // schedule deterministic.
  const auto count = static_cast<std::uint32_t>(tenants_.size());
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t idx = (prepare_cursor_ + i) % count;
    Tenant& t = tenants_[idx];
    if (t.engine->open_queries() != 0 || t.coordinator->epoch_ready())
      continue;
    t.engine->prepare();
    prepare_cursor_ = (idx + 1) % count;
    break;
  }
}

int Daemon::run(int in_fd, int out_fd) {
  // Human-facing status goes to stdout only when stdout is NOT the
  // protocol channel (Unix-socket mode); otherwise it would corrupt the
  // frame stream.
  const bool log = out_fd != STDOUT_FILENO;
  if (log)
    std::printf("vmatd: serving %u tenant(s) (%u disrupted), %u node(s) "
                "each\n",
                static_cast<unsigned>(tenants_.size()),
                options_.adversary_tenants, options_.nodes);

  Bytes payload;
  while (!shutting_down_) {
    // Burn idle time on serving rounds: while no request is readable and
    // open queries remain, step the tenants. A poll-spinning client can't
    // starve serving and a silent client can't stall it.
    while (open_total() > 0 && !input_ready(in_fd)) tick();
    const FrameStatus status = read_frame(in_fd, payload);
    if (status == FrameStatus::kEof) break;
    if (status == FrameStatus::kError) {
      std::fprintf(stderr,
                   "vmatd: malformed frame (oversized or truncated) — "
                   "closing session\n");
      return 1;
    }
    const Bytes response = handle_payload(payload);
    if (!write_frame(out_fd, response)) {
      std::fprintf(stderr, "vmatd: response write failed — closing session\n");
      return 1;
    }
    // One serving round per handled request, so even a client that keeps
    // the input readable (a tight poll loop) cannot starve serving.
    if (!shutting_down_ && open_total() > 0) tick();
  }

  if (!shutting_down_) {
    // Clean EOF without SHUTDOWN: settle in-flight queries so engine
    // budgets and stats end in a consistent state, then latch shutdown.
    drain_all();
    shutting_down_ = true;
  }
  if (log)
    std::printf("vmatd: shutdown after %llu tick(s), %zu unclaimed "
                "result(s)\n",
                static_cast<unsigned long long>(ticks_), ready_.size());
  return 0;
}

}  // namespace vmat::serve
