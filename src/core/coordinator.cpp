#include "core/coordinator.h"

#include <algorithm>
#include <stdexcept>

#include "spec/simulation_spec.h"
#include "util/parallel.h"
#include "util/random.h"

namespace vmat {
namespace {

/// Enough hash-chain elements for long experiment campaigns.
constexpr std::size_t kMaxBroadcasts = 1 << 16;

// Snapshot section tags (layout skew detectors; see sim/snapshot.h).
constexpr std::uint32_t kCoordSection = 0x434f4f52;  // "COOR"
// The tree and audit sections moved to CSR/pooled layouts with the large-n
// memory diet; their tags are versioned so a pre-diet snapshot is rejected
// by the section check instead of misparsed.
constexpr std::uint32_t kTreeSection = 0x54524532;   // "TRE2" (CSR parents)
constexpr std::uint32_t kAuditSection = 0x41554432;  // "AUD2" (pooled audit)
constexpr std::uint32_t kTraceSection = 0x54524143;  // "TRAC"

CoordinatorSpec validated_coordinator_spec(const SimulationSpec& spec) {
  const auto errors = spec.validate();
  if (!errors.empty()) {
    std::string msg = "VmatCoordinator: invalid SimulationSpec";
    for (const Error& e : errors) {
      msg += "\n  ";
      msg += e.to_string();
    }
    throw std::invalid_argument(msg);
  }
  return spec.coordinator();
}

/// Throws std::invalid_argument unless both tables cover all `nodes` and
/// are `width` wide.
void check_tables(const ValueTable& values, const ValueTable& weights,
                  std::uint32_t nodes, std::uint32_t width) {
  if (!values.has_shape(nodes, width) || !weights.has_shape(nodes, width))
    throw std::invalid_argument(
        "VmatCoordinator: values/weights must cover all nodes at the "
        "execution's instance count");
}

/// The revocation/key-material counters `epoch` was formed under still
/// hold (any change means its formed tree may be stale).
bool key_material_unchanged(const Network& net, const Epoch& epoch) noexcept {
  return net.revocation().revoked_key_count() == epoch.revoked_keys &&
         net.revocation().revoked_sensors_in_order().size() ==
             epoch.revoked_sensors &&
         net.key_generation() == epoch.key_generation;
}

}  // namespace

/// The one attachment scope. Opening a slice resets the trace state
/// (begin_execution / begin_epoch) unless a restored prefix continues one;
/// a capturing slice first tees the event stream, so the user's sink (if
/// any) observes it live and the buffered copy replays into forks' sinks
/// on restore. The destructor detaches the network tracer and restores the
/// user's sink on every exit path, so no component keeps a handle into a
/// dead coordinator.
class VmatCoordinator::Attachment {
 public:
  enum class Slice : std::uint8_t {
    kExecution,        ///< execute(), run_query()
    kExecutionPrefix,  ///< snapshot_after_formation(): teed, captured
    kEpoch,            ///< prepare_epoch(): teed, captured
    kResume,           ///< resume_min(): the restored prefix's slice goes on
  };

  Attachment(VmatCoordinator& owner, Slice slice)
      : slice(slice), owner_(owner) {
    tee_.downstream = owner_.trace_state_.sink;
    if (slice == Slice::kExecutionPrefix || slice == Slice::kEpoch)
      owner_.trace_state_.sink = &tee_;
    if (slice == Slice::kEpoch)
      tracer().begin_epoch();
    else if (slice != Slice::kResume)
      tracer().begin_execution();
    owner_.net_->set_tracer(tracer());
  }
  ~Attachment() {
    owner_.net_->set_tracer({});
    owner_.trace_state_.sink = tee_.downstream;
  }
  Attachment(const Attachment&) = delete;
  Attachment& operator=(const Attachment&) = delete;

  [[nodiscard]] Tracer tracer() const noexcept {
    return Tracer{&owner_.trace_state_};
  }
  /// The slice's events so far (empty unless it captures).
  [[nodiscard]] const std::vector<TraceEvent>& prefix() const noexcept {
    return tee_.buffer;
  }

  const Slice slice;

 private:
  struct Tee final : TraceSink {
    TraceSink* downstream{nullptr};  ///< the user's sink
    std::vector<TraceEvent> buffer;

    void on_event(const TraceEvent& event) override {
      buffer.push_back(event);
      if (downstream != nullptr) downstream->on_event(event);
    }
    void on_execution_end(const ExecutionMetrics& metrics) override {
      if (downstream != nullptr) downstream->on_execution_end(metrics);
    }
  };

  VmatCoordinator& owner_;
  Tee tee_;
};

VmatCoordinator::VmatCoordinator(Network* net, Adversary* adversary,
                                 CoordinatorSpec config)
    : net_(net),
      adversary_(adversary),
      config_(config),
      depth_bound_(config.depth_bound),
      nonce_state_(config.seed ^ 0x1234567890abcdefULL),
      audits_(net->node_count()),
      broadcaster_(config.seed, kMaxBroadcasts) {
  if (net == nullptr) throw std::invalid_argument("VmatCoordinator: null net");
  if (config.instances == 0)
    throw std::invalid_argument("VmatCoordinator: zero instances");
  if (depth_bound_ == 0) {
    // "VMAT knows a rough upper bound on the depth" — default to the
    // depth of the physical topology.
    depth_bound_ = net_->physical_depth();
  }
  receivers_.reserve(net_->node_count());
  for (std::uint32_t id = 0; id < net_->node_count(); ++id)
    receivers_.emplace_back(broadcaster_.anchor());
}

VmatCoordinator::VmatCoordinator(Network* net, Adversary* adversary,
                                 const SimulationSpec& spec)
    : VmatCoordinator(net, adversary, validated_coordinator_spec(spec)) {}

std::uint64_t VmatCoordinator::fresh_nonce() noexcept {
  return splitmix64(nonce_state_);
}

void VmatCoordinator::set_recorder(FlightRecorder* recorder) {
  trace_state_.sink = recorder;
  if (recorder == nullptr) return;
  TraceContext ctx;
  ctx.nodes = net_->node_count();
  ctx.depth_bound = depth_bound_;
  ctx.ring_size = net_->keys().config().ring_size;
  ctx.theta = net_->revocation().threshold();
  ctx.instances = config_.instances;
  ctx.slotted_sof = config_.slotted_sof;
  recorder->set_context(ctx);
}

void VmatCoordinator::authenticated_broadcast(const Bytes& payload,
                                              int& rounds, Tracer tracer) {
  const SignedBroadcast b = broadcaster_.sign(payload, tracer);
  // The MAC key derives from the disclosed chain element alone, so the MAC
  // verdict is computed once here; every non-revoked sensor still runs its
  // own AuthReceiver (epoch and hash-chain step) against it and emits its
  // own mac_verify. Receivers are independent per-node state, so the loop
  // shards by id range like the phase drivers' RX passes and the
  // mac_verify events merge in id order. A shard stops at its first
  // rejection, which the join turns into the serial loop's logic_error.
  const BroadcastCheck check(b);
  struct ShardTally {
    std::uint64_t accepted{0};
    bool rejected{false};
  };
  const std::uint32_t n = net_->node_count();
  const std::size_t shards = plan_shards(n);
  std::vector<ShardTally> tally(shards);
  ShardedTrace trace(tracer, shards);
  for_each_shard(
      n, shards, ThreadPool::shared(),
      [this, &check, &tally, &trace](std::size_t shard, std::size_t begin,
                                     std::size_t end) {
        Tracer shard_tracer = trace.shard(shard);
        for (std::size_t id = std::max<std::size_t>(begin, 1); id < end;
             ++id) {
          const NodeId node{static_cast<std::uint32_t>(id)};
          if (net_->revocation().is_sensor_revoked(node)) continue;
          if (!receivers_[id].accept(check, shard_tracer, node)) {
            tally[shard].rejected = true;
            return;
          }
          ++tally[shard].accepted;
        }
      });
  trace.merge();
  std::uint64_t receivers = 0;
  for (const ShardTally& t : tally) {
    if (t.rejected)
      throw std::logic_error("authenticated broadcast rejected by a sensor");
    receivers += t.accepted;
  }
  tracer.auth_broadcast(payload.size(), receivers);
  rounds += 1;
}

VmatCoordinator::Formed VmatCoordinator::form(Attachment& scope) {
  Tracer tracer = scope.tracer();
  // Forming a tree orphans any epoch tree a serving layer may have
  // prepared; prepare_epoch() re-validates its own below.
  epoch_stale_ = true;
  Formed formed;
  const std::uint64_t session = fresh_nonce();
  {
    ByteWriter announce;
    announce.str("vmat.announce.tree");
    announce.u64(session);
    tracer.begin_phase(TracePhase::kBroadcast);
    authenticated_broadcast(announce.take(), formed.rounds, tracer);
  }
  TreePhaseParams tree_params;
  tree_params.mode = config_.tree_mode;
  tree_params.depth_bound = depth_bound_;
  tree_params.session = session;
  tracer.begin_phase(TracePhase::kTreeFormation);
  tree_ = run_tree_formation(*net_, adversary_, tree_params, tracer);
  formed.rounds += 1;
  formations_ += 1;

  switch (scope.slice) {
    case Attachment::Slice::kExecutionPrefix:
      formed.snapshot = capture_snapshot(SnapshotKind::kExecutionPrefix,
                                         formed.rounds, scope.prefix());
      break;
    case Attachment::Slice::kEpoch:
      tracer.end_epoch();
      epoch_.id += 1;
      epoch_.session = session;
      epoch_.formation_rounds = formed.rounds;
      epoch_.metrics = trace_state_.metrics;
      epoch_.fabric_bytes = epoch_.metrics.totals().bytes_sent;
      epoch_.revoked_keys = net_->revocation().revoked_key_count();
      epoch_.revoked_sensors =
          net_->revocation().revoked_sensors_in_order().size();
      epoch_.key_generation = net_->key_generation();
      epoch_stale_ = false;
      formed.snapshot = capture_snapshot(SnapshotKind::kEpoch, formed.rounds,
                                         scope.prefix());
      break;
    case Attachment::Slice::kExecution:
    case Attachment::Slice::kResume:
      break;
  }
  return formed;
}

ValueTable VmatCoordinator::min_values(const std::vector<Reading>& readings) {
  if (config_.instances != 1)
    throw std::logic_error("run_min/resume_min require instances == 1");
  if (readings.size() != net_->node_count())
    throw std::invalid_argument(
        "run_min/resume_min: readings must cover all nodes");
  ValueTable values(static_cast<std::uint32_t>(readings.size()), 1, 0);
  for (std::size_t i = 0; i < readings.size(); ++i) {
    const NodeId node{static_cast<std::uint32_t>(i)};
    Reading r = readings[i];
    if (adversary_ != nullptr && adversary_->is_byzantine(node))
      r = adversary_->strategy().own_reading(node, r);
    values.data[i] = r;
  }
  return values;
}

ExecutionOutcome VmatCoordinator::run_min(
    const std::vector<Reading>& readings) {
  const ValueTable values = min_values(readings);
  const ValueTable weights(values.node_count, 1, 0);
  return execute(values, weights);
}

ExecutionOutcome VmatCoordinator::execute(const ValueTable& values,
                                          const ValueTable& weights,
                                          const ContentValidator& validate) {
  check_tables(values, weights, net_->node_count(), config_.instances);
  Attachment scope(*this, Attachment::Slice::kExecution);
  const Formed formed = form(scope);
  return run_query_phases(values, weights, validate, scope.tracer(),
                          formed.rounds);
}

const Epoch& VmatCoordinator::prepare_epoch() {
  Attachment scope(*this, Attachment::Slice::kEpoch);
  Formed formed = form(scope);
  epoch_snapshot_ = std::move(formed.snapshot);
  epoch_snapshot_meta_ = epoch_;
  return epoch_;
}

bool VmatCoordinator::epoch_ready() const noexcept {
  return !epoch_stale_ && epoch_.id != 0 &&
         key_material_unchanged(*net_, epoch_);
}

ExecutionOutcome VmatCoordinator::run_query(const ValueTable& values,
                                            const ValueTable& weights,
                                            const ContentValidator& validate) {
  if (values.instances == 0)
    throw std::invalid_argument("run_query: zero-width value table");
  check_tables(values, weights, net_->node_count(), values.instances);
  if (!epoch_ready())
    throw std::logic_error(
        "run_query: no ready epoch — call prepare_epoch() first (a "
        "revocation or rekey invalidates the current epoch)");
  Attachment scope(*this, Attachment::Slice::kExecution);
  return run_query_phases(values, weights, validate, scope.tracer(), 0);
}

ExecutionOutcome VmatCoordinator::run_query_phases(
    const ValueTable& values, const ValueTable& weights,
    const ContentValidator& validate, Tracer tracer, int rounds_so_far) {
  const std::uint32_t n = net_->node_count();
  const std::uint32_t instances = values.instances;

  // Arm `(round>= N)` trigger predicates: one bump per execution, on every
  // entry path (execute / run_query / resume_min).
  if (adversary_ != nullptr) adversary_->view().begin_execution_round();

  ExecutionOutcome out;
  out.data_rounds = rounds_so_far;

  // --- announce query + aggregation ---
  const std::uint64_t agg_nonce = fresh_nonce();
  {
    ByteWriter announce;
    announce.str("vmat.announce.query");
    announce.u64(agg_nonce);
    announce.u32(instances);
    tracer.begin_phase(TracePhase::kBroadcast);
    authenticated_broadcast(announce.take(), out.data_rounds, tracer);
  }
  AggConfig agg_config;
  agg_config.instances = instances;
  agg_config.nonce = agg_nonce;
  agg_config.multipath = config_.multipath;
  tracer.begin_phase(TracePhase::kAggregation);
  const AggregationOutcome agg =
      run_aggregation(*net_, adversary_, tree_, agg_config, values, weights,
                      audits_, tracer);
  out.data_rounds += 1;

  auto finish = [&](ExecutionOutcome& o) -> ExecutionOutcome& {
    tracer.end_execution(o.produced_result(),
                         static_cast<std::int64_t>(o.trigger));
    o.metrics = trace_state_.metrics;
    o.fabric_bytes = o.metrics.totals().bytes_sent;
    return o;
  };
  auto pinpoint = [&] {
    tracer.begin_phase(TracePhase::kPinpoint);
    return PinpointEngine(net_, adversary_, &audits_, &tree_,
                          config_.predicate_mode, tracer);
  };
  auto finish_pinpoint = [&](PinpointOutcome&& pp, Trigger trigger) {
    out.kind = OutcomeKind::kRevocation;
    out.trigger = trigger;
    out.revoked_keys = std::move(pp.revoked_keys);
    out.revoked_sensors = std::move(pp.revoked_sensors);
    out.reason = std::move(pp.reason);
    out.pinpoint_cost = pp.cost;
    return finish(out);
  };
  // A valid sensor-key MAC over impossible content: only the origin's key
  // holder could have signed it. Revoke the origin outright.
  auto self_incriminated = [&](NodeId origin, const char* reason) {
    out.kind = OutcomeKind::kRevocation;
    out.trigger = Trigger::kSelfIncrimination;
    out.reason = reason;
    out.revoked_sensors = net_->revocation().revoke_sensor(origin);
    return finish(out);
  };

  // --- Figure 1 step 4: classify arrivals, junk first ---
  std::vector<Reading> minima(instances, kInfinity);
  for (const BsArrival& a : agg.arrivals) {
    const bool id_ok =
        a.msg.origin != kBaseStation && a.msg.origin.value < n &&
        !net_->revocation().is_sensor_revoked(a.msg.origin);
    const bool mac_ok =
        id_ok && verify_agg_message(net_->keys().sensor_mac_context(a.msg.origin),
                                    a.msg, agg_nonce);
    tracer.mac_verify(a.msg.origin, kNoKey, mac_ok);
    if (!mac_ok) {
      tracer.arrival_rejected(a.msg.origin, a.slot, a.msg.value);
      return finish_pinpoint(
          pinpoint().junk_triggered_aggregation(a.msg, a.in_edge, a.slot),
          Trigger::kJunkAggregation);
    }
    const bool content_ok =
        validate ? validate(a.msg) : a.msg.weight == 0;
    if (!content_ok) {
      tracer.arrival_rejected(a.msg.origin, a.slot, a.msg.value);
      return self_incriminated(
          a.msg.origin,
          "aggregation message with valid MAC but invalid content");
    }
    tracer.arrival_accepted(a.msg.origin, a.slot, a.msg.value);
    if (a.msg.value < minima[a.msg.instance]) minima[a.msg.instance] = a.msg.value;
  }

  // --- announce minima + confirmation ---
  const std::uint64_t conf_nonce = fresh_nonce();
  {
    ByteWriter announce;
    announce.str("vmat.announce.minima");
    announce.u64(conf_nonce);
    for (Reading m : minima) announce.i64(m);
    tracer.begin_phase(TracePhase::kBroadcast);
    authenticated_broadcast(announce.take(), out.data_rounds, tracer);
  }
  tracer.begin_phase(TracePhase::kConfirmation);
  const ConfirmationOutcome conf =
      run_confirmation(*net_, adversary_, tree_, minima, conf_nonce, values,
                       audits_, config_.slotted_sof, tracer);
  out.data_rounds += 1;

  // --- Figure 1 steps 7/8: spurious veto beats legitimate veto ---
  const VetoArrival* legit = nullptr;
  for (const VetoArrival& v : conf.arrivals) {
    const bool id_ok = v.msg.origin != kBaseStation && v.msg.origin.value < n &&
                       !net_->revocation().is_sensor_revoked(v.msg.origin);
    const bool mac_ok =
        id_ok && verify_veto(net_->keys().sensor_mac_context(v.msg.origin),
                             v.msg, conf_nonce);
    tracer.mac_verify(v.msg.origin, kNoKey, mac_ok);
    if (!mac_ok) {
      tracer.arrival_rejected(v.msg.origin, v.interval, v.msg.value);
      return finish_pinpoint(
          pinpoint().junk_triggered_confirmation(v.msg, v.in_edge, v.interval),
          Trigger::kJunkConfirmation);
    }
    const bool semantics_ok = v.msg.instance < instances &&
                              v.msg.level >= 1 && v.msg.level <= depth_bound_ &&
                              v.msg.value < minima[v.msg.instance];
    if (!semantics_ok) {
      tracer.arrival_rejected(v.msg.origin, v.interval, v.msg.value);
      return self_incriminated(v.msg.origin,
                               "veto with valid MAC but impossible claim");
    }
    tracer.arrival_accepted(v.msg.origin, v.interval, v.msg.value);
    if (legit == nullptr) legit = &v;
  }
  if (legit != nullptr)
    return finish_pinpoint(pinpoint().veto_triggered(legit->msg),
                           Trigger::kVeto);

  // --- Figure 1 step 6: no veto, the minima are correct ---
  out.kind = OutcomeKind::kResult;
  out.trigger = Trigger::kNone;
  out.minima = std::move(minima);
  return finish(out);
}

std::uint64_t VmatCoordinator::deployment_fingerprint() const {
  std::uint64_t h = net_->snapshot_fingerprint();
  h = snapshot_mix(h, config_.seed);
  h = snapshot_mix(h, depth_bound_);
  h = snapshot_mix(h, static_cast<std::uint64_t>(config_.tree_mode));
  h = snapshot_mix(h, config_.multipath ? 1 : 0);
  h = snapshot_mix(h, config_.slotted_sof ? 1 : 0);
  h = snapshot_mix(h, config_.instances);
  h = snapshot_mix(h, static_cast<std::uint64_t>(config_.predicate_mode));
  return h;
}

Snapshot VmatCoordinator::capture_snapshot(
    SnapshotKind kind, int rounds,
    const std::vector<TraceEvent>& prefix_events) const {
  SnapshotWriter w;

  w.section(kCoordSection);
  w.pod(nonce_state_);
  w.pod(epoch_stale_);
  w.pod(epoch_);
  w.pod(broadcaster_.next_epoch());
  w.pod(static_cast<std::uint64_t>(receivers_.size()));
  for (const AuthReceiver& recv : receivers_) recv.snapshot_save(w);
  w.pod(trace_state_.metrics);
  w.pod(trace_state_.phase);
  w.pod(trace_state_.slot);
  w.pod(trace_state_.executions);
  w.pod(trace_state_.epochs);

  w.section(kTreeSection);
  w.pod(tree_.session);
  w.pod(tree_.mode);
  w.pod(tree_.depth_bound);
  w.vec_pod(tree_.level);
  w.vec_pod(tree_.parents.offsets());
  w.vec_pod(tree_.parents.links());

  // Canonical per-node encoding regardless of the pooled in-memory layout
  // (which varies with the shard plan): rows serialize in per-node arrival
  // order, exactly as the pre-diet per-node vectors did.
  w.section(kAuditSection);
  w.pod(static_cast<std::uint64_t>(audits_.node_count()));
  for (std::uint32_t id = 0; id < audits_.node_count(); ++id) {
    const NodeId node{id};
    w.pod(audits_.level(node));
    w.vec_pod(audits_.received_of(node));
    w.vec_pod(audits_.forwarded_of(node));
    const SofRecord* sof = audits_.sof(node);
    w.pod(sof != nullptr);
    if (sof != nullptr) {
      w.pod(sof->msg);
      w.pod(sof->originated);
      w.pod(sof->received_interval);
      w.pod(sof->forward_interval);
      w.pod(sof->in_edge);
      w.vec_pod(sof->out_edges);
    }
  }

  net_->snapshot_save(w);

  w.section(kTraceSection);
  w.vec_pod(prefix_events);

  Snapshot snap;
  snap.kind_ = kind;
  snap.fingerprint_ = deployment_fingerprint();
  snap.node_count_ = net_->node_count();
  snap.formation_rounds_ = rounds;
  snap.buffer_ = w.take();
  return snap;
}

void VmatCoordinator::restore_snapshot(const Snapshot& snapshot,
                                       std::int64_t epoch_ordinal) {
  if (snapshot.empty())
    throw std::invalid_argument("restore_snapshot: empty snapshot");
  if (snapshot.node_count() != net_->node_count() ||
      snapshot.fingerprint() != deployment_fingerprint())
    throw std::invalid_argument(
        "restore_snapshot: snapshot belongs to an incompatible deployment "
        "(topology/key material/config mismatch)");

  SnapshotReader r(snapshot.data());

  r.section(kCoordSection);
  r.pod(nonce_state_);
  r.pod(epoch_stale_);
  r.pod(epoch_);
  broadcaster_.restore_next_epoch(r.pod<std::uint64_t>());
  if (r.pod<std::uint64_t>() != receivers_.size())
    throw std::invalid_argument("restore_snapshot: receiver count mismatch");
  for (AuthReceiver& recv : receivers_) recv.snapshot_load(r);
  r.pod(trace_state_.metrics);
  r.pod(trace_state_.phase);
  r.pod(trace_state_.slot);
  r.pod(trace_state_.executions);
  r.pod(trace_state_.epochs);

  r.section(kTreeSection);
  r.pod(tree_.session);
  r.pod(tree_.mode);
  r.pod(tree_.depth_bound);
  r.vec_pod(tree_.level);
  {
    std::vector<std::uint32_t> offsets;
    std::vector<ParentLink> links;
    r.vec_pod(offsets);
    r.vec_pod(links);
    tree_.parents.restore(std::move(offsets), std::move(links));
  }

  r.section(kAuditSection);
  if (r.pod<std::uint64_t>() != audits_.node_count())
    throw std::invalid_argument("restore_snapshot: audit count mismatch");
  audits_.begin_aggregation(1);  // serial restore: one pool
  for (std::uint32_t id = 0; id < audits_.node_count(); ++id) {
    const NodeId node{id};
    Level level;
    r.pod(level);
    audits_.set_level(node, level);
    std::vector<ReceivedRecord> received;
    std::vector<ForwardRecord> forwarded;
    r.vec_pod(received);
    r.vec_pod(forwarded);
    for (const ReceivedRecord& rec : received) audits_.add_received(0, node, rec);
    for (const ForwardRecord& rec : forwarded) audits_.add_forwarded(0, node, rec);
    if (r.pod<bool>()) {
      SofRecord sof;
      r.pod(sof.msg);
      r.pod(sof.originated);
      r.pod(sof.received_interval);
      r.pod(sof.forward_interval);
      r.pod(sof.in_edge);
      r.vec_pod(sof.out_edges);
      audits_.set_sof(0, node, std::move(sof));
    }
  }

  net_->snapshot_load(r);

  r.section(kTraceSection);
  std::vector<TraceEvent> prefix;
  r.vec_pod(prefix);
  if (TraceSink* sink = trace_state_.sink; sink != nullptr) {
    for (TraceEvent e : prefix) {
      if (epoch_ordinal >= 0 && e.kind == TraceEventKind::kEpochBegin)
        e.value = epoch_ordinal;
      // Straight to the sink: going through a Tracer would double-meter
      // events the restored metrics already count.
      sink->on_event(e);
    }
  }
  if (!r.exhausted())
    throw std::invalid_argument("restore_snapshot: trailing bytes");
}

Snapshot VmatCoordinator::snapshot_after_formation() {
  Attachment scope(*this, Attachment::Slice::kExecutionPrefix);
  return form(scope).snapshot;
}

ExecutionOutcome VmatCoordinator::resume_min(
    const Snapshot& snapshot, const std::vector<Reading>& readings) {
  const ValueTable values = min_values(readings);
  const ValueTable weights(values.node_count, 1, 0);
  if (snapshot.kind() != SnapshotKind::kExecutionPrefix)
    throw std::invalid_argument(
        "resume_min: not an execution-prefix snapshot (epoch snapshots "
        "re-arm via rearm_epoch)");
  restore_snapshot(snapshot, -1);
  // Mid-execution: the captured prefix already ran begin_execution() (its
  // metrics and ordinal were just restored), so attach without resetting.
  Attachment scope(*this, Attachment::Slice::kResume);
  return run_query_phases(values, weights, {}, scope.tracer(),
                          snapshot.formation_rounds());
}

bool VmatCoordinator::rearm_epoch() {
  // The formed tree is stale if anything revocation/key-shaped moved since
  // capture; only a real prepare_epoch() may serve then.
  if (!epoch_snapshot_.has_value() ||
      !key_material_unchanged(*net_, epoch_snapshot_meta_))
    return false;

  // Monotone counters survive the rewind: the nonce stream, the broadcast
  // chain cursor, the trace ordinals, and the epoch id keep advancing, so
  // a re-armed epoch never reuses a nonce or a chain element.
  const std::uint64_t cur_nonce = nonce_state_;
  const std::uint64_t cur_next = broadcaster_.next_epoch();
  const std::int64_t cur_execs = trace_state_.executions;
  const std::int64_t cur_epochs = trace_state_.epochs;
  const std::uint64_t cur_epoch_id = epoch_.id;

  restore_snapshot(*epoch_snapshot_, cur_epochs);

  nonce_state_ = cur_nonce;
  broadcaster_.restore_next_epoch(cur_next);
  trace_state_.executions = cur_execs;
  trace_state_.epochs = cur_epochs + 1;
  epoch_.id = cur_epoch_id + 1;
  epoch_stale_ = false;
  return true;
}

}  // namespace vmat
