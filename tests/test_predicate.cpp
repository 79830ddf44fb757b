// Keyed predicate test: honest evaluation semantics over audit records and
// the Theorem 3 engine guarantees (success iff a satisfying honest holder
// exists, modulo Byzantine holders who may answer either way).
#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/aggregation.h"
#include "core/predicate_test.h"
#include "core/tree_formation.h"
#include "helpers.h"

namespace vmat {
namespace {

using campaign::named_genome;
using campaign::NamedAttack;
using testing::default_readings;
using testing::dense_keys;

// --- evaluate_predicate unit tests over hand-built audits ---

// Node 5 sits at level 3 with one received and one forwarded record
// (serial build: shard 0).
AuditLog sample_audits() {
  AuditLog audits(8);
  audits.begin_aggregation(1);
  audits.set_level(NodeId{5}, 3);
  ReceivedRecord r;
  r.msg.origin = NodeId{9};
  r.msg.instance = 0;
  r.msg.value = 42;
  r.in_edge = KeyIndex{17};
  r.slot = 2;
  r.child_level = 4;
  audits.add_received(0, NodeId{5}, r);
  ForwardRecord f;
  f.msg = r.msg;
  f.out_edge = KeyIndex{23};
  f.parent = NodeId{2};
  audits.add_forwarded(0, NodeId{5}, f);
  return audits;
}

TEST(Predicate, AggForwardedMatchesLevelValueAndWindow) {
  const AuditLog audit = sample_audits();
  Predicate p;
  p.kind = PredicateKind::kAggForwardedValue;
  p.instance = 0;
  p.v_max = 42;
  p.level = 3;
  p.id_lo = NodeId{0};
  p.id_hi = NodeId{100};
  p.z_lo = KeyIndex{20};
  p.z_hi = KeyIndex{25};
  EXPECT_TRUE(evaluate_predicate(p, NodeId{5}, audit));
  p.v_max = 41;  // smaller bound
  EXPECT_FALSE(evaluate_predicate(p, NodeId{5}, audit));
  p.v_max = 42;
  p.level = 4;  // wrong level
  EXPECT_FALSE(evaluate_predicate(p, NodeId{5}, audit));
  p.level = 3;
  p.z_hi = KeyIndex{22};  // out-edge outside window
  EXPECT_FALSE(evaluate_predicate(p, NodeId{5}, audit));
  p.z_hi = KeyIndex{25};
  p.id_lo = p.id_hi = NodeId{6};  // id window excludes self
  EXPECT_FALSE(evaluate_predicate(p, NodeId{5}, audit));
  p.id_lo = NodeId{0};
  p.id_hi = NodeId{100};
  p.instance = 1;  // wrong instance
  EXPECT_FALSE(evaluate_predicate(p, NodeId{5}, audit));
}

TEST(Predicate, AggReceivedRequiresOwnLevelOneBelow) {
  const AuditLog audit = sample_audits();  // own level 3, child level 4
  Predicate p;
  p.kind = PredicateKind::kAggReceivedValue;
  p.instance = 0;
  p.v_max = 50;
  p.level = 4;  // child level; admitter must sit at 3
  p.id_lo = NodeId{0};
  p.id_hi = NodeId{100};
  EXPECT_TRUE(evaluate_predicate(p, NodeId{5}, audit));
  p.level = 5;  // would require own level 4
  EXPECT_FALSE(evaluate_predicate(p, NodeId{5}, audit));
}

TEST(Predicate, JunkAggKindsBindExactIdentityAndEdge) {
  const AuditLog audit = sample_audits();
  const Digest id_hash = message_identity(audit.forwarded_of(NodeId{5})[0].msg);
  Predicate p;
  p.kind = PredicateKind::kJunkAggForwarded;
  p.level = 3;
  p.bound_edge = KeyIndex{23};
  p.msg_hash = id_hash;
  p.id_lo = NodeId{0};
  p.id_hi = NodeId{100};
  EXPECT_TRUE(evaluate_predicate(p, NodeId{5}, audit));
  p.bound_edge = KeyIndex{17};
  EXPECT_FALSE(evaluate_predicate(p, NodeId{5}, audit));
  p.bound_edge = KeyIndex{23};
  p.msg_hash[0] ^= 1;
  EXPECT_FALSE(evaluate_predicate(p, NodeId{5}, audit));

  Predicate q;
  q.kind = PredicateKind::kJunkAggReceived;
  q.level = 3;
  q.z_lo = KeyIndex{17};
  q.z_hi = KeyIndex{17};
  q.msg_hash = id_hash;
  q.id_lo = NodeId{0};
  q.id_hi = NodeId{100};
  EXPECT_TRUE(evaluate_predicate(q, NodeId{5}, audit));
  q.z_lo = q.z_hi = KeyIndex{18};
  EXPECT_FALSE(evaluate_predicate(q, NodeId{5}, audit));
}

TEST(Predicate, SofKindsMatchIntervalAndEdges) {
  AuditLog audit(8);
  audit.begin_aggregation(1);
  SofRecord rec;
  rec.msg.origin = NodeId{4};
  rec.msg.value = 7;
  rec.msg.level = 2;
  rec.originated = false;
  rec.received_interval = 2;
  rec.forward_interval = 3;
  rec.in_edge = KeyIndex{31};
  rec.out_edges = {KeyIndex{40}, KeyIndex{41}};
  audit.set_sof(0, NodeId{6}, rec);
  const Digest id_hash = message_identity(rec.msg);

  Predicate p;
  p.kind = PredicateKind::kJunkSofForwarded;
  p.level = 3;
  p.bound_edge = KeyIndex{41};
  p.msg_hash = id_hash;
  p.id_lo = NodeId{0};
  p.id_hi = NodeId{100};
  EXPECT_TRUE(evaluate_predicate(p, NodeId{6}, audit));
  p.level = 2;
  EXPECT_FALSE(evaluate_predicate(p, NodeId{6}, audit));
  p.level = 3;
  p.bound_edge = KeyIndex{42};
  EXPECT_FALSE(evaluate_predicate(p, NodeId{6}, audit));

  Predicate q;
  q.kind = PredicateKind::kJunkSofReceived;
  q.level = 2;
  q.z_lo = KeyIndex{31};
  q.z_hi = KeyIndex{31};
  q.msg_hash = id_hash;
  q.id_lo = NodeId{0};
  q.id_hi = NodeId{100};
  EXPECT_TRUE(evaluate_predicate(q, NodeId{6}, audit));
  // Originators never satisfy the received kind.
  audit.sof_mut(NodeId{6})->originated = true;
  EXPECT_FALSE(evaluate_predicate(q, NodeId{6}, audit));
}

TEST(Predicate, NoAuditNeverSatisfies) {
  const AuditLog empty(2);
  for (auto kind : {PredicateKind::kAggForwardedValue,
                    PredicateKind::kAggReceivedValue,
                    PredicateKind::kJunkAggForwarded,
                    PredicateKind::kJunkAggReceived,
                    PredicateKind::kJunkSofForwarded,
                    PredicateKind::kJunkSofReceived}) {
    Predicate p;
    p.kind = kind;
    p.id_lo = NodeId{0};
    p.id_hi = NodeId{100};
    p.v_max = kInfinity - 1;
    p.z_lo = KeyIndex{0};
    p.z_hi = KeyIndex{0xfffffff0};
    EXPECT_FALSE(evaluate_predicate(p, NodeId{1}, empty));
  }
}

// --- engine tests (Theorem 3) over a real aggregation run ---

struct EngineFixture {
  EngineFixture()
      : net(Topology::line(6), dense_keys()), audits(net.node_count()) {
    TreePhaseParams tp;
    tp.depth_bound = net.physical_depth();
    tp.session = 1;
    tree = run_tree_formation(net, nullptr, tp);
    AggConfig cfg;
    cfg.nonce = 0xaa;
    auto readings = default_readings(net.node_count());
    readings[5] = 1;
    const ValueTable values = testing::one_instance(readings);
    const ValueTable weights(net.node_count(), 1, 0);
    (void)run_aggregation(net, nullptr, tree, cfg, values, weights, audits);
  }

  Predicate forwarded_probe(Level level, Reading v_max) {
    Predicate p;
    p.kind = PredicateKind::kAggForwardedValue;
    p.v_max = v_max;
    p.level = level;
    p.id_lo = NodeId{0};
    p.id_hi = NodeId{0xffffffff};
    p.z_lo = KeyIndex{0};
    p.z_hi = KeyIndex{0xfffffff0};
    return p;
  }

  Network net;
  TreeResult tree;
  AuditLog audits;
};

TEST(PredicateEngine, SucceedsWhenHonestHolderSatisfies) {
  EngineFixture fx;
  CostMeter meter;
  PredicateTestEngine engine(&fx.net, nullptr, &fx.audits, &meter);
  // Node 3 (level 3) forwarded value 1.
  EXPECT_TRUE(engine.run(KeySpec::sensor_key(NodeId{3}),
                         fx.forwarded_probe(3, 1)));
  EXPECT_EQ(meter.predicate_tests, 1);
  EXPECT_EQ(meter.flooding_rounds, 2);
}

TEST(PredicateEngine, FailsWhenNobodySatisfies) {
  EngineFixture fx;
  CostMeter meter;
  PredicateTestEngine engine(&fx.net, nullptr, &fx.audits, &meter);
  // Wrong level for node 3.
  EXPECT_FALSE(engine.run(KeySpec::sensor_key(NodeId{3}),
                          fx.forwarded_probe(4, 1)));
}

TEST(PredicateEngine, PoolKeyTestReachesAllHolders) {
  EngineFixture fx;
  CostMeter meter;
  PredicateTestEngine engine(&fx.net, nullptr, &fx.audits, &meter);
  // Use node 3's actual out-edge key: its holder (node 3) satisfies.
  const KeyIndex out_edge = fx.audits.forwarded_of(NodeId{3})[0].out_edge;
  EXPECT_TRUE(engine.run(KeySpec::pool_key(out_edge),
                         fx.forwarded_probe(3, 1)));
}

TEST(PredicateEngine, ByzantineHolderCanFakeYes) {
  EngineFixture fx;
  Adversary adv(&fx.net, {NodeId{2}},
                named_genome(NamedAttack::kSilent, LiePolicy::kAdmitAll)
                    .strategy());
  CostMeter meter;
  PredicateTestEngine engine(&fx.net, &adv, &fx.audits, &meter);
  // Node 2 has no matching record (probe at absurd level), but admits.
  EXPECT_TRUE(engine.run(KeySpec::sensor_key(NodeId{2}),
                         fx.forwarded_probe(99, 1)));
}

TEST(PredicateEngine, ByzantineHolderCanStonewall) {
  EngineFixture fx;
  Adversary adv(&fx.net, {NodeId{2}},
                named_genome(NamedAttack::kSilent).strategy());
  CostMeter meter;
  PredicateTestEngine engine(&fx.net, &adv, &fx.audits, &meter);
  // Node 2 does satisfy (it forwarded value 1 at level 2) but stays silent.
  EXPECT_FALSE(engine.run(KeySpec::sensor_key(NodeId{2}),
                          fx.forwarded_probe(2, 1)));
}

TEST(PredicateEngine, ByzantineCannotFakeForKeysItLacks) {
  EngineFixture fx;
  Adversary adv(&fx.net, {NodeId{2}},
                named_genome(NamedAttack::kSilent, LiePolicy::kAdmitAll)
                    .strategy());
  CostMeter meter;
  PredicateTestEngine engine(&fx.net, &adv, &fx.audits, &meter);
  // Sensor key of honest node 4, probe it does not satisfy: node 2 cannot
  // answer for a key it does not hold, so the test must fail.
  EXPECT_FALSE(engine.run(KeySpec::sensor_key(NodeId{4}),
                          fx.forwarded_probe(99, 1)));
}

TEST(PredicateEngine, MessageLevelModeAgreesWithReachability) {
  // The reachability collapse is claimed to be exact; check it against the
  // full fabric-level verified flood across a grid of predicates and
  // adversary configurations.
  EngineFixture fx;
  struct Case {
    std::unordered_set<NodeId> malicious;
    LiePolicy policy;
  };
  const Case cases[] = {
      {{}, LiePolicy::kDenyAll},
      {{NodeId{2}}, LiePolicy::kDenyAll},
      {{NodeId{2}}, LiePolicy::kAdmitAll},
      {{NodeId{1}, NodeId{4}}, LiePolicy::kDenyAll},
      {{NodeId{1}, NodeId{4}}, LiePolicy::kAdmitAll},
  };
  for (const auto& c : cases) {
    std::optional<Adversary> adv;
    if (!c.malicious.empty())
      adv.emplace(&fx.net, c.malicious,
                  named_genome(NamedAttack::kSilent, c.policy).strategy());
    Adversary* adv_ptr = adv.has_value() ? &*adv : nullptr;
    for (Level level : {1, 2, 3, 4, 5, 99}) {
      for (Reading v_max : {Reading{1}, Reading{101}, Reading{1000}}) {
        for (std::uint32_t target : {1u, 2u, 3u, 4u, 5u}) {
          const Predicate p = fx.forwarded_probe(level, v_max);
          CostMeter m1, m2;
          PredicateTestEngine fast(&fx.net, adv_ptr, &fx.audits, &m1,
                                   PredicateTestMode::kReachability);
          PredicateTestEngine full(&fx.net, adv_ptr, &fx.audits, &m2,
                                   PredicateTestMode::kMessageLevel);
          const KeySpec key = KeySpec::sensor_key(NodeId{target});
          EXPECT_EQ(fast.run(key, p), full.run(key, p))
              << "target=" << target << " level=" << level
              << " v_max=" << v_max << " f=" << c.malicious.size();
        }
      }
    }
  }
}

TEST(PredicateEngine, MessageLevelDropsJunkFrames) {
  // Feed the flood machinery a junk frame directly: a forwarder must drop
  // anything whose hash does not match the token, so a test keyed on a key
  // nobody satisfies still fails even with garbage in flight.
  EngineFixture fx;
  CostMeter meter;
  PredicateTestEngine engine(&fx.net, nullptr, &fx.audits, &meter,
                             PredicateTestMode::kMessageLevel);
  // Stuff junk into the fabric; the engine resets it before flooding, so
  // also verify a plain failing test is unaffected end to end.
  Envelope junk;
  junk.from = NodeId{1};
  junk.to = NodeId{0};
  junk.edge_key = kNoKey;
  junk.payload = encode(PredicateReplyMsg{});  // wrong reply bytes
  (void)fx.net.fabric().send(junk);
  EXPECT_FALSE(engine.run(KeySpec::sensor_key(NodeId{3}),
                          fx.forwarded_probe(4, 1)));
}

TEST(PredicateEngine, ReplyBlockedByByzantineCutFails) {
  // Line 0-1-2-3-4-5 with Byzantine node 1: replies from beyond it cannot
  // reach the base station (Byzantine nodes do not relay).
  EngineFixture fx;
  Adversary adv(&fx.net, {NodeId{1}},
                named_genome(NamedAttack::kSilent).strategy());
  CostMeter meter;
  PredicateTestEngine engine(&fx.net, &adv, &fx.audits, &meter);
  EXPECT_FALSE(engine.run(KeySpec::sensor_key(NodeId{4}),
                          fx.forwarded_probe(4, 101)));
  // But an injector adjacent to the reachable component succeeds: node 1
  // itself answering yes reaches the BS.
  Adversary adv2(&fx.net, {NodeId{1}},
                 named_genome(NamedAttack::kSilent, LiePolicy::kAdmitAll)
                     .strategy());
  PredicateTestEngine engine2(&fx.net, &adv2, &fx.audits, &meter);
  EXPECT_TRUE(engine2.run(KeySpec::sensor_key(NodeId{1}),
                          fx.forwarded_probe(99, 1)));
}

// --- differential: the holder-only fast path vs its full-scan definition ---

/// Logs every holder the engine asks, then answers like kRandom (one RNG
/// draw per call, so a reordered call sequence would change the answers).
class RecordingStrategy : public PolicyStrategy {
 public:
  RecordingStrategy() : PolicyStrategy(LiePolicy::kRandom, 5) {}
  bool answer_predicate(AdversaryView& view, const Predicate& predicate,
                        NodeId holder) override {
    asked.push_back(holder);
    return PolicyStrategy::answer_predicate(view, predicate, holder);
  }
  std::vector<NodeId> asked;
};

/// Sparse rings on a 6x6 grid (many edges keyed by path keys), honest
/// audits from one aggregation, then one honest and one Byzantine sensor
/// fully revoked.
struct SparseFixture {
  static NetworkSpec spec() {
    NetworkSpec cfg;
    cfg.keys.pool_size = 2000;
    cfg.keys.ring_size = 30;
    cfg.keys.seed = 11;
    return cfg;
  }

  SparseFixture() : net(Topology::grid(6, 6), spec()), audits(36) {
    path_keys = net.establish_path_keys();
    TreePhaseParams tp;
    tp.depth_bound = net.physical_depth();
    tp.session = 1;
    tree = run_tree_formation(net, nullptr, tp);
    AggConfig cfg;
    cfg.nonce = 0xbb;
    ValueTable values(net.node_count(), 1, 0);
    const ValueTable weights(net.node_count(), 1, 0);
    for (std::uint32_t id = 0; id < net.node_count(); ++id)
      values.data[id] = 100 + static_cast<Reading>((id * 7) % 31);
    (void)run_aggregation(net, nullptr, tree, cfg, values, weights, audits);
    (void)net.revocation().revoke_sensor(NodeId{20});
    (void)net.revocation().revoke_sensor(NodeId{15});
  }

  Network net;
  TreeResult tree;
  AuditLog audits;
  std::size_t path_keys{0};
};

const std::unordered_set<NodeId> kSparseByzantine{NodeId{8}, NodeId{15},
                                                  NodeId{27}};

bool holds(const Network& net, const KeySpec& key, NodeId node) {
  return key.type == KeySpec::Type::kSensorKey
             ? node == key.sensor
             : net.keys().node_holds(node, key.pool);
}

/// The pre-index definition of one test: scan every sensor in id order,
/// then BFS over the active honest subgraph.
bool reference_run(const Network& net, Adversary& adversary,
                   const AuditLog& audits, const KeySpec& key,
                   const Predicate& predicate) {
  const std::uint32_t n = net.node_count();
  std::vector<NodeId> repliers;
  for (std::uint32_t id = 0; id < n; ++id) {
    const NodeId node{id};
    if (!holds(net, key, node) || net.revocation().is_sensor_revoked(node))
      continue;
    const bool yes =
        adversary.is_byzantine(node)
            ? adversary.strategy().answer_predicate(adversary.view(),
                                                    predicate, node)
            : evaluate_predicate(predicate, node, audits);
    if (yes) repliers.push_back(node);
  }
  std::vector<bool> reached(n, false);
  std::vector<NodeId> queue{kBaseStation};
  reached[kBaseStation.value] = true;
  for (std::size_t head = 0; head < queue.size(); ++head)
    for (NodeId v : net.topology().neighbors(queue[head])) {
      if (reached[v.value] || net.revocation().is_sensor_revoked(v) ||
          adversary.is_byzantine(v))
        continue;
      reached[v.value] = true;
      queue.push_back(v);
    }
  for (NodeId r : repliers) {
    if (reached[r.value]) return true;
    for (NodeId v : net.topology().neighbors(r))
      if (reached[v.value]) return true;
  }
  return false;
}

TEST(PredicateEngine, HolderIndexMatchesFullScanDefinition) {
  SparseFixture fx;
  ASSERT_GT(fx.path_keys, 0u);
  const std::uint32_t n = fx.net.node_count();
  const std::uint32_t pool = fx.net.keys().config().pool_size;

  std::vector<KeySpec> keys;
  for (std::uint32_t id = 0; id < n; ++id)  // base station and revoked too
    keys.push_back(KeySpec::sensor_key(NodeId{id}));
  for (std::uint32_t k = 0; k < pool + fx.path_keys; ++k)
    keys.push_back(KeySpec::pool_key(KeyIndex{k}));

  std::vector<Predicate> predicates;
  for (const Level level : {Level{1}, Level{3}}) {
    Predicate p;
    p.kind = PredicateKind::kAggForwardedValue;
    p.v_max = 1000;
    p.level = level;
    p.id_hi = NodeId{0xffffffff};
    p.z_hi = KeyIndex{0xfffffff0};
    predicates.push_back(p);
  }
  Predicate received = predicates.front();
  received.kind = PredicateKind::kAggReceivedValue;
  received.level = 2;
  predicates.push_back(received);

  auto make = [](Network* net) {
    auto strategy = std::make_unique<RecordingStrategy>();
    RecordingStrategy* log = strategy.get();
    return std::pair{std::make_unique<Adversary>(net, kSparseByzantine,
                                                 std::move(strategy)),
                     log};
  };
  auto [fast_adv, fast_log] = make(&fx.net);
  auto [full_adv, full_log] = make(&fx.net);
  auto [ref_adv, ref_log] = make(&fx.net);
  CostMeter m1, m2;
  PredicateTestEngine fast(&fx.net, fast_adv.get(), &fx.audits, &m1,
                           PredicateTestMode::kReachability);
  PredicateTestEngine full(&fx.net, full_adv.get(), &fx.audits, &m2,
                           PredicateTestMode::kMessageLevel);

  std::size_t successes = 0;
  std::size_t byzantine_asks = 0;
  for (std::size_t i = 0; i < predicates.size(); ++i) {
    const Predicate& predicate = predicates[i];
    // Revocations between tests of the same engines: their reachability
    // memo must follow them. The second round cuts the base station off.
    if (i == 1) (void)fx.net.revocation().revoke_sensor(NodeId{7});
    if (i == 2) {
      (void)fx.net.revocation().revoke_sensor(NodeId{1});
      (void)fx.net.revocation().revoke_sensor(NodeId{6});
    }
    for (const KeySpec& key : keys) {
      std::vector<NodeId> expected;
      for (std::uint32_t id = 0; id < n; ++id) {
        const NodeId node{id};
        if (holds(fx.net, key, node) &&
            !fx.net.revocation().is_sensor_revoked(node) &&
            kSparseByzantine.contains(node))
          expected.push_back(node);
      }
      fast_log->asked.clear();
      full_log->asked.clear();
      const bool want =
          reference_run(fx.net, *ref_adv, fx.audits, key, predicate);
      const bool got_fast = fast.run(key, predicate);
      const bool got_full = full.run(key, predicate);
      const std::uint32_t which =
          key.type == KeySpec::Type::kSensorKey ? key.sensor.value
                                                : key.pool.value;
      EXPECT_EQ(fast_log->asked, expected) << "key " << which;
      EXPECT_EQ(full_log->asked, expected) << "key " << which;
      EXPECT_EQ(got_fast, want) << "key " << which;
      EXPECT_EQ(got_full, want) << "key " << which;
      successes += want ? 1 : 0;
      byzantine_asks += expected.size();
    }
  }
  // The grid must exercise both answers and the Byzantine branch.
  EXPECT_GT(successes, 0u);
  EXPECT_LT(successes, keys.size() * predicates.size());
  EXPECT_GT(byzantine_asks, 0u);
}

}  // namespace
}  // namespace vmat
