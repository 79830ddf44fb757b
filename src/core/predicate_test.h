// Keyed predicate test (Yu, IPSN'09 — reviewed in Section VI-A).
//
// The base station asks: "is there a sensor that (i) holds key K and (ii)
// satisfies predicate P?". It authenticated-broadcasts
//     ⟨index of K, P, nonce N, H(MAC_K(N ‖ P))⟩,
// a holder of K satisfying P generates MAC_K(N ‖ P) as the "yes" reply and
// floods it; every sensor can verify a candidate reply against the hash
// token, so only the one legitimate reply can propagate — choking is
// structurally impossible. The test succeeds iff the base station receives
// the valid reply within two flooding rounds.
//
// Theorem 3 guarantees: an honest satisfying holder ⇒ success; no
// satisfying honest holder and no malicious holder ⇒ failure. A malicious
// holder can freely answer either way — the pinpointing protocols are built
// to be sound against that.
//
// Cost: a test visits only the holders of the tested key — the one sensor
// of a sensor key, the cached holder list of a pool or path key — so it
// costs O(holders), not O(n) ring lookups.
//
// The engine offers two execution modes:
//  * kReachability (default): because exactly one byte string can
//    propagate (every forwarder verifies it against the token), flooding
//    degenerates to reachability over active honest sensors (ReplyReach,
//    one BFS shared by every test of a pinpoint walk). Exact and fast.
//  * kMessageLevel: the flood actually runs on the fabric — repliers
//    broadcast MAC_K(N ‖ P), every honest sensor verifies candidate frames
//    against H(MAC_K(N ‖ P)) and one-time-forwards the first valid one.
//    Junk frames (wrong hash) die at the first honest hop, demonstrating
//    the choke-proofness mechanically. Tests assert both modes agree.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "attack/adversary.h"
#include "core/audit.h"
#include "sim/network.h"
#include "trace/trace.h"

namespace vmat {

/// Which key a test is keyed on.
struct KeySpec {
  enum class Type : std::uint8_t { kSensorKey, kPoolKey };
  Type type{Type::kSensorKey};
  NodeId sensor;   ///< for kSensorKey
  KeyIndex pool{kNoKey};  ///< for kPoolKey

  [[nodiscard]] static KeySpec sensor_key(NodeId id) {
    KeySpec s;
    s.type = Type::kSensorKey;
    s.sensor = id;
    return s;
  }
  [[nodiscard]] static KeySpec pool_key(KeyIndex k) {
    KeySpec s;
    s.type = Type::kPoolKey;
    s.pool = k;
    return s;
  }
};

/// Accumulates the control-plane cost of a pinpointing run.
struct CostMeter {
  int flooding_rounds{0};
  int predicate_tests{0};
  std::uint64_t control_bytes{0};

  void charge_broadcast(std::uint32_t node_count, std::size_t bytes) {
    flooding_rounds += 1;
    control_bytes += static_cast<std::uint64_t>(node_count) * bytes;
  }
};

enum class PredicateTestMode : std::uint8_t {
  kReachability,  ///< exact BFS collapse (default)
  kMessageLevel,  ///< full fabric-level verified one-time flood
};

/// Which sensors a verified reply flood reaches: the base station's
/// component of the active honest subgraph (unrevoked, non-Byzantine
/// sensors relay; Byzantine sensors pessimistically never do). Built on
/// first use and reused until the revoked-sensor count moves. Within one
/// pinpoint walk it never does — revocations land at the walk's end and
/// the Byzantine set is fixed — so a walk pays one BFS, not one per test.
class ReplyReach {
 public:
  /// Does a reply from one of `repliers` reach the base station? An honest
  /// replier must sit in the component, a Byzantine injector next to it.
  [[nodiscard]] bool reaches(const Network& net, const Adversary* adversary,
                             std::span<const NodeId> repliers);

 private:
  std::vector<bool> reached_;
  /// Revoked-sensor count reached_ was built under (nullopt: not built).
  std::optional<std::size_t> revoked_sensors_;
};

class PredicateTestEngine {
 public:
  /// `audits` must outlive the engine and stay indexed by node id. `reach`
  /// shares one reachability memo across engines (the pinpoint walk passes
  /// its own); null gives the engine a private one.
  PredicateTestEngine(Network* net, Adversary* adversary,
                      const AuditLog* audits, CostMeter* meter,
                      PredicateTestMode mode = PredicateTestMode::kReachability,
                      Tracer tracer = {}, ReplyReach* reach = nullptr);

  /// Run one keyed predicate test. Exact per Theorem 3 semantics plus
  /// Byzantine holders answering via the adversary strategy.
  [[nodiscard]] bool run(const KeySpec& key, const Predicate& predicate);

 private:
  [[nodiscard]] const MacContext& key_context(const KeySpec& key) const;
  [[nodiscard]] std::vector<NodeId> collect_repliers(
      const KeySpec& key, const Predicate& predicate);
  [[nodiscard]] bool flood_reply(const std::vector<NodeId>& repliers,
                                 const Mac& reply, const Digest& token);

  Network* net_;
  Adversary* adversary_;
  const AuditLog* audits_;
  CostMeter* meter_;
  PredicateTestMode mode_;
  Tracer tracer_;
  ReplyReach* shared_reach_;
  ReplyReach own_reach_;
  std::uint64_t nonce_{0};
};

}  // namespace vmat
