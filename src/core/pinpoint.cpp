#include "core/pinpoint.h"

#include <stdexcept>

namespace vmat {
namespace {

constexpr std::uint32_t kFullIdLo = 0;
constexpr std::uint32_t kFullIdHi = 0xffffffffu;

Predicate with_id_window(Predicate p, NodeId lo, NodeId hi) {
  p.id_lo = lo;
  p.id_hi = hi;
  return p;
}

Predicate with_z_window(Predicate p, KeyIndex lo, KeyIndex hi) {
  p.z_lo = lo;
  p.z_hi = hi;
  return p;
}

}  // namespace

PinpointEngine::PinpointEngine(Network* net, Adversary* adversary,
                               const AuditLog* audits,
                               const TreeResult* tree, PredicateTestMode mode,
                               Tracer tracer)
    : net_(net), adversary_(adversary), audits_(audits), tree_(tree),
      mode_(mode), tracer_(tracer) {
  if (net == nullptr || audits == nullptr || tree == nullptr)
    throw std::invalid_argument("PinpointEngine: null dependency");
}

void PinpointEngine::revoke_key(KeyIndex key, PinpointOutcome& out,
                                std::string reason) {
  out.revoked_keys.push_back(key);
  out.reason = std::move(reason);
  // Announcing the revocation is one authenticated broadcast.
  out.cost.charge_broadcast(net_->node_count(), 16);
  const auto cascaded = net_->revocation().revoke_key(key);
  out.revoked_sensors.insert(out.revoked_sensors.end(), cascaded.begin(),
                             cascaded.end());
}

void PinpointEngine::revoke_ring(NodeId node, PinpointOutcome& out,
                                 std::string reason) {
  out.reason = std::move(reason);
  out.cost.charge_broadcast(net_->node_count(), 16);
  const auto revoked = net_->revocation().revoke_sensor(node);
  out.revoked_sensors.insert(out.revoked_sensors.end(), revoked.begin(),
                             revoked.end());
}

KeyIndex PinpointEngine::find_edge_key(NodeId owner, Predicate probe,
                                       PinpointOutcome& out,
                                       const char* what) {
  PredicateTestEngine tests(net_, adversary_, audits_, &out.cost, mode_,
                            tracer_, &reach_);
  const KeySpec key = KeySpec::sensor_key(owner);
  // Honest sensors only ever use non-revoked keys, and re-revoking a key
  // would not diminish the adversary; the base station therefore searches
  // the sensor's held keys (ring + path keys) minus the already-revoked
  // indices.
  std::vector<KeyIndex> ring;
  for (KeyIndex k : net_->keys().keys_of(owner))
    if (!net_->revocation().is_key_revoked(k)) ring.push_back(k);
  if (ring.empty()) {
    revoke_ring(owner, out,
                std::string(what) + ": no unrevoked key left to blame");
    return kNoKey;
  }
  probe = with_id_window(probe, owner, owner);

  auto test_window = [&](std::size_t lo, std::size_t hi) {
    return tests.run(key, with_z_window(probe, ring[lo], ring[hi]));
  };

  // Whole-window test first: an honest owner always satisfies it (Figure 5
  // would never reach x > y for an honest sensor; a refusal proves the
  // sensor key's owner is lying).
  if (!test_window(0, ring.size() - 1)) {
    revoke_ring(owner, out, std::string(what) + ": whole-ring test refused");
    return kNoKey;
  }
  std::size_t lo = 0;
  std::size_t hi = ring.size() - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (test_window(lo, mid)) {
      hi = mid;
    } else if (test_window(mid + 1, hi)) {
      lo = mid + 1;
    } else {
      // Inconsistent answers across a split it previously confirmed: only
      // the owner's sensor key could have produced them.
      revoke_ring(owner, out,
                  std::string(what) + ": inconsistent binary search");
      return kNoKey;
    }
  }
  return ring[lo];
}

std::optional<NodeId> PinpointEngine::find_holder(KeyIndex edge_key,
                                                  Predicate probe,
                                                  PinpointOutcome& out,
                                                  const char* what) {
  PredicateTestEngine tests(net_, adversary_, audits_, &out.cost, mode_,
                            tracer_, &reach_);
  const KeySpec key = KeySpec::pool_key(edge_key);
  const auto holders = net_->keys().holders(edge_key);
  if (holders.empty()) {
    revoke_key(edge_key, out, std::string(what) + ": key has no holders");
    return std::nullopt;
  }

  auto test_window = [&](std::size_t lo, std::size_t hi) {
    return tests.run(key, with_id_window(probe, holders[lo], holders[hi]));
  };

  // Figure 6 Step 2: nobody willing to admit -> revoke the edge key.
  if (!test_window(0, holders.size() - 1)) {
    revoke_key(edge_key, out, std::string(what) + ": no holder admits");
    return std::nullopt;
  }
  std::size_t lo = 0;
  std::size_t hi = holders.size() - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (test_window(lo, mid)) {
      hi = mid;
    } else if (test_window(mid + 1, hi)) {
      lo = mid + 1;
    } else {
      // Figure 6 Step 12: inconsistent behaviour proves a malicious holder.
      revoke_key(edge_key, out,
                 std::string(what) + ": inconsistent holder search");
      return std::nullopt;
    }
  }
  const NodeId found = holders[lo];

  // Figure 6 Step 6: re-confirm on the found sensor's own key, defeating
  // framing of honest ids.
  if (!tests.run(KeySpec::sensor_key(found),
                 with_id_window(probe, found, found))) {
    revoke_key(edge_key, out,
               std::string(what) + ": re-confirmation failed (framing)");
    return std::nullopt;
  }
  return found;
}

PinpointOutcome PinpointEngine::veto_triggered(const VetoMsg& veto) {
  PinpointOutcome out;
  const Level L = tree_->depth_bound;

  NodeId current = veto.origin;
  Level level = veto.level;

  for (Level step = 0; step <= L + 1; ++step) {
    tracer_.pinpoint_step(current, kNoKey, step, level);
    if (level < 1) {
      // Only the base station sits at level 0; a non-base-station sensor
      // whose own key admitted to level 0 is lying.
      revoke_ring(current, out, "veto walk: sensor claims level 0");
      return out;
    }

    // Figure 5: which edge key did `current` forward the small value on?
    Predicate p_fwd;
    p_fwd.kind = PredicateKind::kAggForwardedValue;
    p_fwd.instance = veto.instance;
    p_fwd.v_max = veto.value;
    p_fwd.level = level;
    const KeyIndex edge = find_edge_key(current, p_fwd, out, "veto/fig5");
    if (edge == kNoKey) return out;

    // Figure 6: which holder of that key admits receiving the value from a
    // child at this level?
    Predicate p_recv;
    p_recv.kind = PredicateKind::kAggReceivedValue;
    p_recv.instance = veto.instance;
    p_recv.v_max = veto.value;
    p_recv.level = level;
    p_recv.id_lo = NodeId{kFullIdLo};
    p_recv.id_hi = NodeId{kFullIdHi};
    const auto parent = find_holder(edge, p_recv, out, "veto/fig6");
    if (!parent.has_value()) return out;

    current = *parent;
    level -= 1;
  }
  throw std::logic_error(
      "veto_triggered: walk exceeded L+1 steps (broken trail invariant)");
}

PinpointOutcome PinpointEngine::junk_triggered_aggregation(
    const AggMessage& junk, KeyIndex bs_in_edge, Interval bs_slot) {
  PinpointOutcome out;
  const Level L = tree_->depth_bound;
  const Digest identity = message_identity(junk);

  KeyIndex edge = bs_in_edge;
  Level level = L - bs_slot + 1;  // claimed level of the sensor that sent it

  for (Level step = 0; step <= L + 1; ++step) {
    tracer_.pinpoint_step(NodeId{}, edge, step, level);
    if (level > L) {
      // Nobody legitimate exists beyond level L; whoever used this key to
      // pass the junk down refuses to exist.
      revoke_key(edge, out, "junk-agg walk: trail exceeds depth bound");
      return out;
    }

    // Who admits having forwarded exactly this message at this level using
    // this edge key?
    Predicate p_fwd;
    p_fwd.kind = PredicateKind::kJunkAggForwarded;
    p_fwd.level = level;
    p_fwd.bound_edge = edge;
    p_fwd.msg_hash = identity;
    p_fwd.id_lo = NodeId{kFullIdLo};
    p_fwd.id_hi = NodeId{kFullIdHi};
    const auto forwarder = find_holder(edge, p_fwd, out, "junk-agg/holder");
    if (!forwarder.has_value()) return out;

    // An honest forwarder must have received the junk from someone (it
    // cannot have originated an invalid message of its own).
    Predicate p_recv;
    p_recv.kind = PredicateKind::kJunkAggReceived;
    p_recv.level = level;
    p_recv.msg_hash = identity;
    const KeyIndex in_edge =
        find_edge_key(*forwarder, p_recv, out, "junk-agg/in-edge");
    if (in_edge == kNoKey) return out;

    edge = in_edge;
    level += 1;
  }
  throw std::logic_error(
      "junk_triggered_aggregation: walk exceeded L+1 steps");
}

PinpointOutcome PinpointEngine::junk_triggered_confirmation(
    const VetoMsg& junk, KeyIndex bs_in_edge, Interval bs_interval) {
  PinpointOutcome out;
  const Digest identity = message_identity(junk);

  KeyIndex edge = bs_in_edge;
  Interval interval = bs_interval;

  // The walk shrinks `interval` every iteration, so it is bounded by the
  // arrival interval — which can exceed L+1 only in the unslotted-SOF
  // ablation (slotted SOF guarantees bs_interval <= L, Section IV-C).
  for (Interval step = 0; step <= bs_interval + 1; ++step) {
    tracer_.pinpoint_step(NodeId{}, edge, step, interval);
    // Who admits forwarding exactly this veto in this SOF interval on this
    // edge key?
    Predicate p_fwd;
    p_fwd.kind = PredicateKind::kJunkSofForwarded;
    p_fwd.level = interval;
    p_fwd.bound_edge = edge;
    p_fwd.msg_hash = identity;
    p_fwd.id_lo = NodeId{kFullIdLo};
    p_fwd.id_hi = NodeId{kFullIdHi};
    const auto forwarder = find_holder(edge, p_fwd, out, "junk-sof/holder");
    if (!forwarder.has_value()) return out;

    if (interval <= 1) {
      // Forwarding in interval 1 means originating; no honest sensor
      // originates a veto with an invalid MAC, and the claim was just
      // re-confirmed on the sensor's own key.
      revoke_ring(*forwarder, out,
                  "junk-sof walk: admitted originating a spurious veto");
      return out;
    }

    Predicate p_recv;
    p_recv.kind = PredicateKind::kJunkSofReceived;
    p_recv.level = interval - 1;
    p_recv.msg_hash = identity;
    const KeyIndex in_edge =
        find_edge_key(*forwarder, p_recv, out, "junk-sof/in-edge");
    if (in_edge == kNoKey) return out;

    edge = in_edge;
    interval -= 1;
  }
  throw std::logic_error(
      "junk_triggered_confirmation: walk exceeded L+1 steps");
}

}  // namespace vmat
