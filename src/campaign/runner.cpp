#include "campaign/runner.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

#include "trace/checker.h"

namespace vmat::campaign {
namespace {

/// log2-style bucket: 0, 1, 2 for 2-3, 3 for 4-7, ... so outcomes with the
/// "same shape" but slightly different counts share a coverage signature.
std::uint64_t bucket(std::uint64_t value) {
  return static_cast<std::uint64_t>(std::bit_width(value));
}

std::string joined_errors(const std::vector<Error>& errors) {
  std::string out;
  for (const Error& error : errors) {
    if (!out.empty()) out += "; ";
    out += error.to_string();
  }
  return out;
}

}  // namespace

std::uint64_t outcome_digest(const ExecutionOutcome& outcome) {
  std::uint64_t h = 0x76d3a7c4151e9dULL;
  h = snapshot_mix(h, static_cast<std::uint64_t>(outcome.kind));
  h = snapshot_mix(h, static_cast<std::uint64_t>(outcome.trigger));
  h = snapshot_mix(h, outcome.minima.size());
  for (const Reading minimum : outcome.minima)
    h = snapshot_mix(h, static_cast<std::uint64_t>(minimum));
  h = snapshot_mix(h, outcome.revoked_keys.size());
  for (const KeyIndex key : outcome.revoked_keys)
    h = snapshot_mix(h, key.value);
  h = snapshot_mix(h, outcome.revoked_sensors.size());
  for (const NodeId sensor : outcome.revoked_sensors)
    h = snapshot_mix(h, sensor.value);
  h = snapshot_mix(h, static_cast<std::uint64_t>(outcome.data_rounds));
  h = snapshot_mix(h,
                   static_cast<std::uint64_t>(outcome.pinpoint_cost.flooding_rounds));
  h = snapshot_mix(
      h, static_cast<std::uint64_t>(outcome.pinpoint_cost.predicate_tests));
  h = snapshot_mix(h, outcome.pinpoint_cost.control_bytes);
  h = snapshot_mix(h, outcome.fabric_bytes);
  for (const PhaseCounters& counters : outcome.metrics.phase) {
    h = snapshot_mix(h, counters.frames_sent);
    h = snapshot_mix(h, counters.frames_delivered);
    h = snapshot_mix(h, counters.frames_dropped);
    h = snapshot_mix(h, counters.frames_lost);
    h = snapshot_mix(h, counters.bytes_sent);
    h = snapshot_mix(h, counters.mac_computes);
    h = snapshot_mix(h, counters.mac_verifies);
    h = snapshot_mix(h, counters.mac_failures);
    h = snapshot_mix(h, counters.auth_broadcasts);
    h = snapshot_mix(h, counters.flooding_rounds);
    h = snapshot_mix(h, counters.predicate_tests);
  }
  return h;
}

std::uint64_t coverage_signature(const ExecutionOutcome& outcome,
                                 std::size_t violations) {
  std::uint64_t h = 0x5eedc0ffeeULL;
  h = snapshot_mix(h, static_cast<std::uint64_t>(outcome.kind));
  h = snapshot_mix(h, static_cast<std::uint64_t>(outcome.trigger));
  h = snapshot_mix(h, outcome.revoked_keys.size());
  h = snapshot_mix(h, outcome.revoked_sensors.size());
  h = snapshot_mix(h, violations > 0 ? 1 : 0);
  for (const PhaseCounters& counters : outcome.metrics.phase) {
    h = snapshot_mix(h, bucket(counters.frames_sent));
    h = snapshot_mix(h, bucket(counters.frames_delivered));
    h = snapshot_mix(h, bucket(counters.mac_failures));
    h = snapshot_mix(h, bucket(counters.auth_broadcasts));
    h = snapshot_mix(h, bucket(counters.flooding_rounds));
    h = snapshot_mix(h, bucket(counters.predicate_tests));
  }
  return h;
}

CampaignRunner::CampaignRunner(CampaignConfig config)
    : config_(std::move(config)), spec_(config_.spec) {
  spec_.instances(1);  // probes are MIN queries (resume_min/run_min)
  if (const std::vector<Error> errors = spec_.validate(); !errors.empty())
    throw std::invalid_argument("CampaignRunner: invalid spec: " +
                                joined_errors(errors));
  if (config_.compromised == 0 || config_.compromised >= spec_.nodes())
    throw std::invalid_argument(
        "CampaignRunner: compromised count must be in [1, nodes)");
  if (config_.probes == 0)
    throw std::invalid_argument("CampaignRunner: probe budget must be >= 1");

  const Topology topology = spec_.build_topology();
  malicious_ =
      choose_malicious(topology, config_.compromised, config_.placement_seed);
  if (spec_.depth_bound() == 0) spec_.depth_bound(topology.depth(malicious_));

  if (config_.fork_probes) {
    net_ = std::make_unique<Network>(spec_);
    formation_adversary_ = std::make_unique<Adversary>(
        net_.get(), malicious_,
        std::make_unique<PredicatedStrategy>(AttackPolicy{}));
    coordinator_ = std::make_unique<VmatCoordinator>(
        net_.get(), formation_adversary_.get(), spec_);
    snapshot_ = coordinator_->snapshot_after_formation();
    snapshot_revocations_ = net_->revocation().events().size();
  }
}

CampaignRunner::~CampaignRunner() = default;

std::uint64_t CampaignRunner::formations() const noexcept {
  return (coordinator_ != nullptr ? coordinator_->formations_run() : 0) +
         scratch_formations_;
}

std::vector<Reading> CampaignRunner::probe_readings(std::uint64_t seed) const {
  std::vector<Reading> readings(spec_.nodes());
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (std::uint32_t id = 1; id < spec_.nodes(); ++id)
    readings[id] = 100 + static_cast<Reading>(rng.below(900));
  return readings;
}

ProbeOutcome CampaignRunner::probe(const CampaignEntry& entry,
                                   FlightRecorder& recorder) {
  const std::vector<Reading> readings = probe_readings(entry.seed);
  recorder.clear();
  if (config_.fork_probes) {
    Adversary adversary(net_.get(), malicious_,
                        std::make_unique<PredicatedStrategy>(
                            entry.policy, entry.when, entry.seed));
    coordinator_->set_adversary(&adversary);
    coordinator_->set_recorder(&recorder);
    const ExecutionOutcome outcome =
        coordinator_->resume_min(*snapshot_, readings);
    coordinator_->set_recorder(nullptr);
    coordinator_->set_adversary(formation_adversary_.get());
    return probe_outcome(entry, outcome, recorder, *net_, adversary.view(),
                         snapshot_revocations_);
  }
  // Scratch fallback: a private deployment per probe. Bit-identical to the
  // fork path (the snapshot contract: resume == the execute() that would
  // have run the same prefix), just one tree formation per probe.
  Network net(spec_);
  Adversary adversary(&net, malicious_,
                      std::make_unique<PredicatedStrategy>(
                          entry.policy, entry.when, entry.seed));
  VmatCoordinator coordinator(&net, &adversary, spec_);
  coordinator.set_recorder(&recorder);
  const std::size_t first_event = net.revocation().events().size();
  const ExecutionOutcome outcome = coordinator.run_min(readings);
  scratch_formations_ += coordinator.formations_run();
  return probe_outcome(entry, outcome, recorder, net, adversary.view(),
                       first_event);
}

ProbeOutcome CampaignRunner::probe_outcome(const CampaignEntry& entry,
                                           const ExecutionOutcome& outcome,
                                           const FlightRecorder& recorder,
                                           const Network& net,
                                           const AdversaryView& adversary,
                                           std::size_t first_event) {
  ProbeOutcome po;
  po.entry = entry;
  po.entry.digest = outcome_digest(outcome);
  po.ruined = !outcome.produced_result();
  // The registry logs each key once, when first revoked: pinpointed keys
  // and ring-closure keys alike. outcome.revoked_keys holds only the
  // pinpointed ones, so a probe that closes a compromised ring without
  // pinpointing a key would otherwise count as revoking nothing.
  const std::vector<RevocationEvent>& events = net.revocation().events();
  for (std::size_t i = first_event; i < events.size(); ++i)
    if (adversary.holds_pool_key(events[i].key)) ++po.adversary_keys_revoked;
  for (const KeyIndex key : outcome.revoked_keys)
    if (!adversary.holds_pool_key(key)) ++po.framed_keys;
  for (const NodeId sensor : outcome.revoked_sensors)
    if (!malicious_.contains(sensor)) ++po.honest_sensors_revoked;
  po.pinpoint_rounds = outcome.pinpoint_cost.flooding_rounds;
  po.predicate_tests = outcome.pinpoint_cost.predicate_tests;
  const CheckReport report = check_trace(recorder);
  po.violations = report.violations.size();
  if (!report.ok()) po.violation_text = report.to_string();
  po.coverage = coverage_signature(outcome, po.violations);
  return po;
}

ProbeOutcome CampaignRunner::replay(const CampaignEntry& entry) {
  FlightRecorder recorder;
  return probe(entry, recorder);
}

ProbeOutcome CampaignRunner::replay(const CampaignEntry& entry,
                                    FlightRecorder& recorder) {
  return probe(entry, recorder);
}

AttackPredicate CampaignRunner::random_predicate(Rng& rng, int depth) const {
  if (depth > 0 && rng.bernoulli(0.45)) {
    switch (rng.below(3)) {
      case 0:
        return random_predicate(rng, depth - 1) &&
               random_predicate(rng, depth - 1);
      case 1:
        return random_predicate(rng, depth - 1) ||
               random_predicate(rng, depth - 1);
      default:
        return !random_predicate(rng, depth - 1);
    }
  }
  switch (rng.below(8)) {
    case 0:
      return AttackPredicate::always();
    case 1:
      return AttackPredicate::phase_is(rng.bernoulli(0.5)
                                           ? TracePhase::kAggregation
                                           : TracePhase::kConfirmation);
    case 2:
      return AttackPredicate::slot_at_least(
          1 + static_cast<Interval>(rng.below(4)));
    case 3:
      return AttackPredicate::level_at_least(
          1 + static_cast<Level>(rng.below(4)));
    case 4:
      return AttackPredicate::revoked_keys_at_least(rng.below(8));
    case 5:
      return AttackPredicate::round_at_least(1 + rng.below(3));
    case 6:
      return AttackPredicate::frames_seen_at_least(rng.below(12));
    default:
      return AttackPredicate::min_seen_below(rng.between(-100, 300));
  }
}

CampaignEntry CampaignRunner::random_entry(Rng& rng) const {
  CampaignEntry entry;
  entry.seed = 1 + rng.below(1u << 20);
  switch (rng.below(3)) {
    case 0: entry.policy.agg = AggAction::kSilentDrop; break;
    case 1: entry.policy.agg = AggAction::kForwardMax; break;
    default: entry.policy.agg = AggAction::kInjectJunk; break;
  }
  switch (rng.below(3)) {
    case 0: entry.policy.conf = ConfAction::kNone; break;
    case 1: entry.policy.conf = ConfAction::kChokeVeto; break;
    default: entry.policy.conf = ConfAction::kSelfVeto; break;
  }
  switch (rng.below(3)) {
    case 0: entry.policy.lie = LiePolicy::kDenyAll; break;
    case 1: entry.policy.lie = LiePolicy::kAdmitAll; break;
    default: entry.policy.lie = LiePolicy::kRandom; break;
  }
  entry.policy.frame_honest_origin = rng.bernoulli(0.5);
  entry.policy.self_veto_value = 1 + static_cast<Reading>(rng.below(50));
  entry.when = random_predicate(rng, 2);
  return entry;
}

CampaignEntry CampaignRunner::mutate(const CampaignEntry& base,
                                     Rng& rng) const {
  CampaignEntry entry = base;
  entry.objective = "seed";
  entry.digest = 0;
  switch (rng.below(4)) {
    case 0:
      entry.seed = 1 + rng.below(1u << 20);
      break;
    case 1: {
      // Flip one policy gene.
      CampaignEntry fresh = random_entry(rng);
      switch (rng.below(4)) {
        case 0: entry.policy.agg = fresh.policy.agg; break;
        case 1: entry.policy.conf = fresh.policy.conf; break;
        case 2: entry.policy.lie = fresh.policy.lie; break;
        default:
          entry.policy.frame_honest_origin = fresh.policy.frame_honest_origin;
          entry.policy.self_veto_value = fresh.policy.self_veto_value;
          break;
      }
      break;
    }
    case 2:
      entry.when = random_predicate(rng, 2);
      break;
    default:
      // Wrap the trigger with a fresh conjunct/disjunct.
      if (rng.bernoulli(0.5))
        entry.when = entry.when && random_predicate(rng, 0);
      else
        entry.when = entry.when || random_predicate(rng, 0);
      break;
  }
  return entry;
}

void CampaignRunner::deepen_ruin(const CampaignEntry& entry,
                                 CampaignResult& result) {
  // The "executions ruined before full revocation" streak: re-run the
  // worst-ruin genome on a private deployment, epoch-reusing between
  // executions (re-formation only where the protocol demands it — after a
  // revocation invalidates the epoch), until the adversary can no longer
  // prevent a result.
  Network net(spec_);
  Adversary adversary(&net, malicious_,
                      std::make_unique<PredicatedStrategy>(
                          entry.policy, entry.when, entry.seed));
  VmatCoordinator coordinator(&net, &adversary, spec_);
  ValueTable values(spec_.nodes(), 1, 0);
  values.data = probe_readings(entry.seed);
  const ValueTable weights(spec_.nodes(), 1, 0);
  constexpr int kStreakCap = 50;
  int ruined = 0;
  int executions = 0;
  while (executions < kStreakCap) {
    if (!coordinator.epoch_ready()) (void)coordinator.prepare_epoch();
    const ExecutionOutcome outcome = coordinator.run_query(values, weights);
    ++executions;
    if (outcome.produced_result()) break;
    ++ruined;
  }
  result.ruin_streak = ruined;
  result.ruin_streak_executions = executions;
}

CampaignResult CampaignRunner::run() {
  CampaignResult result;
  Rng rng(config_.seed);
  std::vector<CampaignEntry> pool = config_.seeds.entries;
  std::unordered_set<std::uint64_t> seen;

  for (std::uint32_t i = 0; i < config_.probes; ++i) {
    CampaignEntry entry = (pool.empty() || rng.bernoulli(0.5))
                              ? random_entry(rng)
                              : mutate(pool[rng.below(pool.size())], rng);
    FlightRecorder recorder;
    ProbeOutcome po = probe(entry, recorder);
    po.new_coverage = seen.insert(po.coverage).second;
    if (po.new_coverage) pool.push_back(po.entry);
    result.probes.push_back(std::move(po));
  }
  result.coverage_buckets = seen.size();

  // Deterministic worst-case selection (first probe wins ties).
  for (std::size_t i = 0; i < result.probes.size(); ++i) {
    const ProbeOutcome& po = result.probes[i];
    if (po.violations > 0 && !result.first_violation.has_value())
      result.first_violation = i;
    if (po.ruined) {
      if (!result.worst_ruin.has_value() ||
          po.adversary_keys_revoked <
              result.probes[*result.worst_ruin].adversary_keys_revoked)
        result.worst_ruin = i;
    }
    const auto misrevocation = [](const ProbeOutcome& p) {
      return std::pair{p.honest_sensors_revoked, p.framed_keys};
    };
    if (misrevocation(po) > std::pair<std::size_t, std::size_t>{0, 0} &&
        (!result.worst_misrevocation.has_value() ||
         misrevocation(po) >
             misrevocation(result.probes[*result.worst_misrevocation])))
      result.worst_misrevocation = i;
    const auto latency = [](const ProbeOutcome& p) {
      return std::pair{p.pinpoint_rounds, p.predicate_tests};
    };
    if (latency(po) > std::pair<int, int>{0, 0} &&
        (!result.worst_latency.has_value() ||
         latency(po) > latency(result.probes[*result.worst_latency])))
      result.worst_latency = i;
  }

  // Corpus: violations first (each is a protocol bug), then the worst-case
  // winners, then ruining coverage novelties, deduplicated by genome.
  std::unordered_set<std::string> in_corpus;
  auto add = [&result, &in_corpus](std::size_t index,
                                   const std::string& objective) {
    CampaignEntry entry = result.probes[index].entry;
    const std::string key =
        std::to_string(entry.seed) + '|' + to_text(entry.policy) + '|' +
        entry.when.to_text();
    if (!in_corpus.insert(key).second) return;
    entry.objective = objective;
    result.corpus.entries.push_back(std::move(entry));
  };
  for (std::size_t i = 0; i < result.probes.size(); ++i)
    if (result.probes[i].violations > 0) add(i, "violation");
  if (result.worst_ruin.has_value()) add(*result.worst_ruin, "ruin");
  if (result.worst_misrevocation.has_value())
    add(*result.worst_misrevocation, "misrevoke");
  if (result.worst_latency.has_value()) add(*result.worst_latency, "latency");
  constexpr std::size_t kCorpusCap = 16;
  for (std::size_t i = 0;
       i < result.probes.size() && result.corpus.entries.size() < kCorpusCap;
       ++i)
    if (result.probes[i].ruined && result.probes[i].new_coverage)
      add(i, "coverage");

  if (result.worst_ruin.has_value())
    deepen_ruin(result.probes[*result.worst_ruin].entry, result);

  result.formations = formations();
  return result;
}

std::string CampaignResult::table() const {
  std::ostringstream out;
  out << "campaign worst cases\n";
  out << "  probes           : " << probes.size() << '\n';
  out << "  coverage buckets : " << coverage_buckets << '\n';
  out << "  corpus entries   : " << corpus.entries.size() << '\n';
  out << "  probe formations : " << formations << '\n';
  auto describe = [this, &out](const char* label,
                               const std::optional<std::size_t>& index,
                               auto&& detail) {
    out << "  " << label;
    if (!index.has_value()) {
      out << ": none\n";
      return;
    }
    const ProbeOutcome& po = probes[*index];
    out << ": probe " << *index << "  ";
    detail(po);
    out << "\n      " << to_text(po.entry.policy) << "  when="
        << po.entry.when.to_text() << "  seed=" << po.entry.seed << '\n';
  };
  describe("ruin      ", worst_ruin, [this, &out](const ProbeOutcome& po) {
    out << "adversary_keys_revoked=" << po.adversary_keys_revoked
        << "  streak=" << ruin_streak << "/" << ruin_streak_executions
        << " executions ruined";
  });
  describe("misrevoke ", worst_misrevocation,
           [&out](const ProbeOutcome& po) {
             out << "honest_sensors=" << po.honest_sensors_revoked
                 << "  framed_keys=" << po.framed_keys;
           });
  describe("latency   ", worst_latency, [&out](const ProbeOutcome& po) {
    out << "pinpoint_rounds=" << po.pinpoint_rounds
        << "  predicate_tests=" << po.predicate_tests;
  });
  describe("violation ", first_violation, [&out](const ProbeOutcome& po) {
    out << po.violations << " violation(s)";
  });
  return out.str();
}

}  // namespace vmat::campaign
