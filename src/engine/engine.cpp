#include "engine/engine.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>

#include "core/synopsis.h"

namespace vmat {
namespace {

/// One instance block of a combined execution: the slice of the global
/// instance space [offset, offset + instances) owned by one query part.
struct Block {
  std::size_t pending_index{0};
  bool count_part{false};  ///< kAverage's COUNT block (part 1)
  bool synopsis{true};     ///< synopsis block vs exact-MIN block
  std::uint32_t offset{0};
  std::uint32_t instances{0};
  std::uint64_t nonce{0};  ///< synopsis query nonce
  std::int64_t probe{0};   ///< kQuantile: count the readings <= probe
};

/// The synopsis weight node `id` contributes to block `b` of `q`.
std::int64_t synopsis_weight(const EngineQuery& q, const Block& b,
                             std::size_t id) {
  switch (q.kind) {
    case EngineQueryKind::kCount: return q.predicate[id] ? 1 : 0;
    case EngineQueryKind::kSum: return q.readings[id];
    case EngineQueryKind::kAverage:
      return b.count_part ? (q.readings[id] > 0 ? 1 : 0) : q.readings[id];
    case EngineQueryKind::kQuantile: return q.readings[id] <= b.probe ? 1 : 0;
    case EngineQueryKind::kMin:
    case EngineQueryKind::kMax: break;
  }
  return 0;
}

void add_metrics(ExecutionMetrics& into, const ExecutionMetrics& from) {
  for (std::size_t p = 0; p < kTracePhaseCount; ++p)
    into.phase[p] += from.phase[p];
}

}  // namespace

const char* to_string(EngineQueryKind kind) noexcept {
  switch (kind) {
    case EngineQueryKind::kCount: return "count";
    case EngineQueryKind::kSum: return "sum";
    case EngineQueryKind::kAverage: return "average";
    case EngineQueryKind::kMin: return "min";
    case EngineQueryKind::kMax: return "max";
    case EngineQueryKind::kQuantile: return "quantile";
  }
  return "?";
}

Engine::Engine(VmatCoordinator* coordinator, EngineConfig config,
               ThreadPool* pool)
    : coordinator_(coordinator),
      config_(config),
      pool_(pool != nullptr ? pool : &ThreadPool::shared()) {
  if (coordinator == nullptr)
    throw std::invalid_argument("Engine: null coordinator");
  if (config_.max_in_flight == 0 || config_.queue_depth == 0 ||
      config_.max_instances_per_execution == 0 || config_.default_deadline <= 0)
    throw std::invalid_argument("Engine: degenerate EngineConfig");
  // Full window until the first disruption; slow-start kicks in after.
  stats_.window = config_.max_in_flight;
}

Expected<std::uint64_t> Engine::submit(EngineQuery query) {
  const std::size_t n = coordinator_->network().node_count();
  auto invalid = [](std::string message) -> Error {
    return {ErrorCode::kInvalidArgument, std::move(message)};
  };
  switch (query.kind) {
    case EngineQueryKind::kCount:
      if (query.predicate.size() != n)
        return invalid("count: predicate must cover all nodes");
      break;
    case EngineQueryKind::kSum:
    case EngineQueryKind::kAverage:
      if (query.readings.size() != n)
        return invalid("sum/average: readings must cover all nodes");
      for (std::int64_t r : query.readings)
        if (r < 0) return invalid("sum/average: negative reading");
      break;
    case EngineQueryKind::kMin:
    case EngineQueryKind::kMax:
      if (query.raw.size() != n)
        return invalid("min/max: readings must cover all nodes");
      break;
    case EngineQueryKind::kQuantile:
      if (query.readings.size() != n)
        return invalid("quantile: readings must cover all nodes");
      if (!(query.q > 0.0 && query.q < 1.0))
        return invalid("quantile: require 0 < q < 1");
      if (query.domain_max < 0) return invalid("quantile: negative domain");
      for (std::int64_t r : query.readings)
        if (r < 0 || r > query.domain_max)
          return invalid("quantile: reading outside domain");
      break;
  }
  if (pending_.size() >= config_.queue_depth)
    return Error{ErrorCode::kQueueFull,
                 "Engine: queue_depth reached — drain() first"};

  Pending p;
  p.id = next_id_++;
  p.deadline = query.max_executions > 0 ? query.max_executions
                                        : config_.default_deadline;
  p.result.id = p.id;
  p.result.kind = query.kind;
  p.query = std::move(query);
  pending_.push_back(std::move(p));
  return pending_.back().id;
}

void Engine::settle_failure(Pending& p, ErrorCode code, const char* detail) {
  p.done = true;
  p.result.error = Error{code, detail};
  stats_.queries_failed += 1;
}

void Engine::prepare() {
  // Re-arm the shared tree from its snapshot when the epoch went stale
  // without a revocation (an intervening one-shot execution, say);
  // otherwise form (or re-form, after a revocation) it for real.
  if (coordinator_->epoch_ready()) return;
  if (coordinator_->rearm_epoch()) {
    stats_.epochs_rearmed += 1;
    EpochRollup rollup;
    rollup.epoch_id = coordinator_->epoch().id;
    rollup.rearmed = true;  // restored, not re-flooded: zero formation cost
    epochs_.push_back(std::move(rollup));
  } else {
    const Epoch& epoch = coordinator_->prepare_epoch();
    stats_.epochs_formed += 1;
    stats_.fabric_bytes += epoch.fabric_bytes;
    EpochRollup rollup;
    rollup.epoch_id = epoch.id;
    rollup.formation_rounds = epoch.formation_rounds;
    rollup.formation_bytes = epoch.fabric_bytes;
    rollup.metrics = epoch.metrics;
    epochs_.push_back(std::move(rollup));
  }
}

bool Engine::step() {
  bool open = false;
  for (const Pending& p : pending_)
    if (!p.done) { open = true; break; }
  if (!open) return false;
  if (stats_.rounds >= config_.max_rounds) {
    // Same engine-budget discipline as drain(): a step()-driven caller (the
    // vmatd tick loop) must not spin forever on a pathological tenant.
    for (Pending& p : pending_)
      if (!p.done)
        settle_failure(p, ErrorCode::kBudgetExhausted,
                       "engine round budget exhausted");
    return false;
  }
  run_round();
  for (const Pending& p : pending_)
    if (!p.done) return true;
  return false;
}

std::vector<EngineResult> Engine::take_ready() {
  std::vector<EngineResult> ready;
  std::size_t keep = 0;
  for (Pending& p : pending_) {
    if (p.done) {
      ready.push_back(std::move(p.result));
      continue;
    }
    // Guard the no-gap case: self-move-assignment would gut the query's
    // payload vectors and leave an open query with no predicate/readings.
    if (&pending_[keep] != &p) pending_[keep] = std::move(p);
    ++keep;
  }
  pending_.resize(keep);
  return ready;
}

void Engine::run_round() {
  stats_.rounds += 1;
  prepare();

  const std::uint32_t nodes = coordinator_->network().node_count();
  const std::uint32_t default_instances = coordinator_->config().instances;

  // --- pack: queries in submission order, up to the admission window and
  // the execution width cap; nonces are drawn serially here, before any
  // parallel work, so packing order fully determines every PRG stream ---
  std::vector<Block> blocks;
  std::vector<std::size_t> picked;
  std::uint32_t total = 0;
  for (std::size_t qi = 0;
       qi < pending_.size() && picked.size() < stats_.window; ++qi) {
    const Pending& p = pending_[qi];
    if (p.done) continue;
    const std::uint32_t m =
        p.query.instances > 0 ? p.query.instances : default_instances;

    std::vector<Block> mine;
    Block block;
    block.pending_index = qi;
    block.instances = m;
    switch (p.query.kind) {
      case EngineQueryKind::kAverage:  // a SUM block, then a COUNT block
        mine.push_back(block);
        block.count_part = true;
        break;
      case EngineQueryKind::kQuantile:
        block.probe =
            p.phase == 0 ? p.query.domain_max : p.lo + (p.hi - p.lo) / 2;
        break;
      case EngineQueryKind::kMin:
      case EngineQueryKind::kMax:
        block.synopsis = false;
        block.instances = 1;
        break;
      case EngineQueryKind::kCount:
      case EngineQueryKind::kSum:
        break;
    }
    mine.push_back(block);

    std::uint32_t width = 0;
    for (const Block& b : mine) width += b.instances;
    if (!picked.empty() && total + width > config_.max_instances_per_execution)
      break;
    for (Block& b : mine) {
      b.offset = total;
      total += b.instances;
      if (b.synopsis) b.nonce = coordinator_->fresh_nonce();
      blocks.push_back(std::move(b));
    }
    picked.push_back(qi);
  }
  if (picked.empty()) return;

  // --- grids: per-block rows in parallel, straight into the execution's
  // tables. Blocks own disjoint columns, so the writes never overlap; each
  // PRG stream depends only on the block's serially assigned nonce —
  // bit-identical for any pool ---
  std::vector<std::optional<SynopsisCodec>> codecs(blocks.size());
  for (std::size_t bi = 0; bi < blocks.size(); ++bi)
    if (blocks[bi].synopsis) codecs[bi].emplace(blocks[bi].nonce);

  ValueTable values(nodes, total, kInfinity);
  ValueTable weights(nodes, total, 0);
  pool_->for_each(
      blocks.size(),
      [this, &blocks, &codecs, &values, &weights, nodes](std::size_t bi) {
        const Block& b = blocks[bi];
        const EngineQuery& q = pending_[b.pending_index].query;
        if (!b.synopsis) {
          const bool negate = q.kind == EngineQueryKind::kMax;
          for (std::uint32_t id = 1; id < nodes; ++id)
            values.row(id)[b.offset] = negate ? -q.raw[id] : q.raw[id];
          return;
        }
        const SynopsisCodec& codec = *codecs[bi];
        for (std::uint32_t id = 1; id < nodes; ++id) {
          const std::int64_t w = synopsis_weight(q, b, id);
          if (w <= 0) continue;
          codec.fill_values(NodeId{id}, w,
                            values.row(id).subspan(b.offset, b.instances));
          std::ranges::fill(weights.row(id).subspan(b.offset, b.instances), w);
        }
      });

  // --- combined validator: dispatch on the block owning the instance ---
  std::vector<std::uint32_t> ends(blocks.size());
  for (std::size_t bi = 0; bi < blocks.size(); ++bi)
    ends[bi] = blocks[bi].offset + blocks[bi].instances;
  auto validate = [&blocks, &codecs, &ends, total](const AggMessage& m) {
    if (m.instance >= total) return false;
    const std::size_t bi = static_cast<std::size_t>(
        std::upper_bound(ends.begin(), ends.end(), m.instance) - ends.begin());
    const Block& b = blocks[bi];
    if (!b.synopsis) return m.weight == 0;
    return m.weight > 0 &&
           codecs[bi]->value_for(m.origin, m.instance - b.offset, m.weight) ==
               m.value;
  };

  const ExecutionOutcome exec =
      coordinator_->run_query(values, weights, validate);

  stats_.executions += 1;
  stats_.fabric_bytes += exec.fabric_bytes;
  // prepare() opens a rollup only for an epoch it forms or re-arms; an
  // epoch formed outside this engine (another engine on the coordinator,
  // a direct prepare_epoch()) gets one here, with zero formation cost.
  // Every formation or re-arm takes a larger epoch id, so the serving
  // epoch's rollup, when this engine has one, is the last.
  const std::uint64_t epoch_id = coordinator_->epoch().id;
  if (epochs_.empty() || epochs_.back().epoch_id != epoch_id) {
    EpochRollup opened;
    opened.epoch_id = epoch_id;
    epochs_.push_back(std::move(opened));
  }
  EpochRollup& rollup = epochs_.back();
  rollup.executions += 1;
  rollup.fabric_bytes += exec.fabric_bytes;
  add_metrics(rollup.metrics, exec.metrics);
  for (std::size_t qi : picked) {
    pending_[qi].executions += 1;
    pending_[qi].result.executions = pending_[qi].executions;
    pending_[qi].result.epoch_id = rollup.epoch_id;
  }

  // --- settle: disrupted executions burn an attempt; clean ones answer ---
  if (!exec.produced_result()) {
    stats_.disrupted_executions += 1;
    stats_.backoff = stats_.backoff == 0
                         ? config_.backoff_base
                         : std::min(stats_.backoff * 2, config_.backoff_cap);
    stats_.window = 1;
    for (std::size_t qi : picked) {
      Pending& p = pending_[qi];
      if (p.executions >= p.deadline)
        settle_failure(p, ErrorCode::kDeadlineExceeded,
                       "execution budget exhausted before an answer");
    }
    return;
  }
  stats_.backoff = 0;
  stats_.window = std::min(stats_.window * 2, config_.max_in_flight);

  for (const Block& b : blocks) {
    Pending& p = pending_[b.pending_index];
    const auto minima =
        std::span<const Reading>(exec.minima).subspan(b.offset, b.instances);
    if (!b.synopsis) {
      // Exact MIN/MAX: instance 0 of the block carries the answer.
      if (minima[0] == kInfinity) {
        settle_failure(p, ErrorCode::kUnavailable,
                       "min/max: no reading arrived");
        continue;
      }
      const double v = static_cast<double>(minima[0]);
      p.result.estimate = p.query.kind == EngineQueryKind::kMax ? -v : v;
      p.done = true;
      stats_.queries_answered += 1;
      rollup.queries_served += 1;
      continue;
    }
    const double estimate = estimate_sum(minima);
    switch (p.query.kind) {
      case EngineQueryKind::kCount:
      case EngineQueryKind::kSum:
        p.result.estimate = estimate;
        p.done = true;
        stats_.queries_answered += 1;
        break;
      case EngineQueryKind::kAverage:
        if (!b.count_part) {
          p.sum_estimate = estimate;
        } else {
          // Both blocks rode this execution; the SUM part settled first.
          p.result.estimate =
              estimate <= 0.0 ? 0.0 : *p.sum_estimate / estimate;
          p.done = true;
          stats_.queries_answered += 1;
        }
        break;
      case EngineQueryKind::kQuantile:
        if (p.phase == 0) {
          if (estimate <= 0.0) {
            // Empty population: report the bottom of the domain.
            p.result.estimate = 0.0;
            p.done = true;
            stats_.queries_answered += 1;
            break;
          }
          p.target = p.query.q * estimate;
          p.lo = 0;
          p.hi = p.query.domain_max;
          p.phase = 1;
        } else {
          const std::int64_t mid = p.lo + (p.hi - p.lo) / 2;
          if (estimate >= p.target)
            p.hi = mid;
          else
            p.lo = mid + 1;
        }
        if (p.phase == 1 && p.lo >= p.hi) {
          p.result.estimate = static_cast<double>(p.lo);
          p.done = true;
          stats_.queries_answered += 1;
        } else if (p.executions >= p.deadline) {
          settle_failure(p, ErrorCode::kDeadlineExceeded,
                         "quantile search unfinished within budget");
        }
        break;
      case EngineQueryKind::kMin:
      case EngineQueryKind::kMax:
        break;  // handled above (exact block)
    }
    if (p.done) rollup.queries_served += 1;
  }
}

std::vector<EngineResult> Engine::drain() {
  while (step()) {
  }
  std::vector<EngineResult> results;
  results.reserve(pending_.size());
  for (Pending& p : pending_) results.push_back(std::move(p.result));
  pending_.clear();
  return results;
}

std::vector<EngineResult> Engine::run_batch(std::vector<EngineQuery> queries) {
  std::vector<EngineResult> rejected;
  for (EngineQuery& q : queries) {
    const EngineQueryKind kind = q.kind;
    Expected<std::uint64_t> id = submit(std::move(q));
    if (!id) {
      EngineResult r;
      r.kind = kind;
      r.error = id.error();
      rejected.push_back(std::move(r));
    }
  }
  std::vector<EngineResult> results = drain();
  for (EngineResult& r : rejected) results.push_back(std::move(r));
  return results;
}

}  // namespace vmat
