#include "closed_loop.h"

#include <utility>

namespace perfbench {

namespace {

constexpr int kKinds = 6;

vmat::serve::SubmitRequest mix_entry(std::uint32_t tenant, int kind) {
  vmat::serve::SubmitRequest r;
  r.tenant = tenant;
  switch (kind) {
    case 0:
      r.kind = vmat::EngineQueryKind::kCount;
      r.threshold = 1300;
      break;
    case 1: r.kind = vmat::EngineQueryKind::kSum; break;
    case 2: r.kind = vmat::EngineQueryKind::kAverage; break;
    case 3: r.kind = vmat::EngineQueryKind::kMin; break;
    case 4: r.kind = vmat::EngineQueryKind::kMax; break;
    default:
      r.kind = vmat::EngineQueryKind::kQuantile;
      r.domain_max = 2048;
      break;
  }
  return r;
}

}  // namespace

ClosedLoop::ClosedLoop(vmat::serve::Daemon& daemon, std::uint32_t callers,
                       std::uint64_t seed)
    : daemon_(daemon),
      busy_(callers, false),
      order_(seed, 0x0dde5),
      first_min_(daemon.options().tenants),
      first_max_(daemon.options().tenants) {}

vmat::serve::SubmitRequest ClosedLoop::next_request() {
  if (block_pos_ == block_.size()) {
    block_.clear();
    for (std::uint32_t t = 0; t < daemon_.options().tenants; ++t)
      for (int kind = 0; kind < kKinds; ++kind)
        block_.push_back(mix_entry(t, kind));
    for (std::size_t i = block_.size() - 1; i > 0; --i)
      std::swap(block_[i], block_[order_.below(i + 1)]);
    block_pos_ = 0;
  }
  vmat::serve::SubmitRequest r = block_[block_pos_++];
  if (r.kind == vmat::EngineQueryKind::kQuantile)
    r.q = 0.25 + 0.25 * static_cast<double>(quantiles_++ % 3);
  return r;
}

std::optional<vmat::serve::Response> ClosedLoop::call(
    const vmat::Bytes& request) {
  const Clock::time_point start = Clock::now();
  const vmat::Bytes reply = daemon_.handle_payload(request);
  codec_us_ += ms_between(start, Clock::now()) * 1000.0;
  ++codec_calls_;
  vmat::Expected<vmat::serve::Response> decoded =
      vmat::serve::decode_response(reply);
  if (!decoded || decoded.value().error.has_value()) return std::nullopt;
  return std::move(decoded.value());
}

void ClosedLoop::step(std::uint32_t submitting) {
  for (std::uint32_t c = 0; c < submitting && c < busy_.size(); ++c) {
    if (busy_[c]) continue;
    const vmat::serve::SubmitRequest request = next_request();
    const Clock::time_point at = Clock::now();
    const auto reply = call(vmat::serve::encode_submit(request));
    ++submitted_;
    if (!reply.has_value() ||
        !by_wire_id_
             .emplace(reply->request_id,
                      Pending{c, request.tenant, request.kind, at, ticks_})
             .second) {
      ++failed_;
      continue;
    }
    busy_[c] = true;
  }

  const Clock::time_point tick_start = Clock::now();
  daemon_.tick();
  tick_ms_ += ms_between(tick_start, Clock::now());
  ++ticks_;
  ++timed_ticks_;

  const auto reply = call(vmat::serve::encode_poll(0));
  const Clock::time_point now = Clock::now();
  if (!reply.has_value()) {
    ++failed_;
    return;
  }
  for (const vmat::serve::ResultRecord& record : reply->results)
    settle(record, now);
}

void ClosedLoop::settle(const vmat::serve::ResultRecord& record,
                        Clock::time_point now) {
  const auto it = by_wire_id_.find(record.request_id);
  if (it == by_wire_id_.end()) {  // a duplicate or a stray id
    ++failed_;
    return;
  }
  const Pending pending = it->second;
  by_wire_id_.erase(it);
  busy_[pending.caller] = false;
  ++completed_;
  collected_.push_back(record.request_id);
  latency_ms_.push_back(ms_between(pending.submitted_at, now));
  query_ticks_.push_back(static_cast<double>(ticks_ - pending.submitted_tick));

  bool ok = record.answered && record.tenant == pending.tenant &&
            record.kind == pending.kind;
  if (ok && (pending.kind == vmat::EngineQueryKind::kMin ||
             pending.kind == vmat::EngineQueryKind::kMax)) {
    // Readings never change, so every MIN (MAX) answer of a tenant must
    // equal its first one.
    std::optional<double>& first =
        (pending.kind == vmat::EngineQueryKind::kMin ? first_min_
                                                     : first_max_)
            [pending.tenant];
    if (!first.has_value())
      first = record.estimate;
    else
      ok = *first == record.estimate;
  }
  if (!ok) ++failed_;
}

void ClosedLoop::clear_samples() {
  latency_ms_.clear();
  query_ticks_.clear();
  tick_ms_ = 0.0;
  timed_ticks_ = 0;
  codec_us_ = 0.0;
  codec_calls_ = 0;
}

std::optional<vmat::serve::StatsResponse> ClosedLoop::stats() {
  auto reply = call(vmat::serve::encode_stats());
  if (!reply.has_value()) return std::nullopt;
  return std::move(reply->stats);
}

}  // namespace perfbench
