// Fabric and secure-network mechanics: slotted delivery, physics
// constraints, capacity, accounting, arena payload lifetime, the honest
// receive discipline, and the large-n memory-diet structures (ParentTable
// CSR, pooled AuditLog chains).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/audit.h"
#include "core/coordinator.h"
#include "core/phase_state.h"
#include "helpers.h"
#include "sim/fabric.h"
#include "sim/network.h"
#include "sim/snapshot.h"
#include "trace/trace.h"

namespace vmat {
namespace {

Bytes copy_of(std::span<const std::uint8_t> payload) {
  return Bytes(payload.begin(), payload.end());
}

Envelope plain(NodeId from, NodeId to, std::uint8_t tag) {
  Envelope e;
  e.from = from;
  e.to = to;
  e.edge_key = KeyIndex{0};
  e.payload = {tag};
  return e;
}

TEST(Fabric, DeliversAfterEndSlotOnly) {
  const auto topo = Topology::line(3);
  Fabric fabric(&topo);
  EXPECT_TRUE(fabric.send(plain(NodeId{0}, NodeId{1}, 7)));
  EXPECT_TRUE(fabric.take_inbox(NodeId{1}).empty());
  fabric.end_slot();
  const auto inbox = fabric.take_inbox(NodeId{1});
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].payload[0], 7);
  // Drained: second take is empty.
  EXPECT_TRUE(fabric.take_inbox(NodeId{1}).empty());
}

TEST(Fabric, NullTopologyThrows) {
  EXPECT_THROW(Fabric(nullptr), std::invalid_argument);
}

TEST(Fabric, RefusesNonNeighborTransmission) {
  const auto topo = Topology::line(3);
  Fabric fabric(&topo);
  EXPECT_FALSE(fabric.send(plain(NodeId{0}, NodeId{2}, 1)));
  EXPECT_EQ(fabric.frames_dropped(), 1u);
}

TEST(Fabric, SpoofedSenderStillBoundByPhysics) {
  const auto topo = Topology::line(3);  // 0-1-2
  Fabric fabric(&topo);
  // Node 2 claims to be node 0 but can only reach its own neighbor 1.
  EXPECT_TRUE(fabric.send_as(NodeId{2}, plain(NodeId{0}, NodeId{1}, 9)));
  fabric.end_slot();
  const auto inbox = fabric.take_inbox(NodeId{1});
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].from, NodeId{0});  // the lie is preserved on the frame
  // But it cannot reach node 0's other side directly... (line: 0 has only
  // neighbor 1, so sending "to 0" from 2 fails).
  EXPECT_FALSE(fabric.send_as(NodeId{2}, plain(NodeId{0}, NodeId{0}, 9)));
}

TEST(Fabric, CapacityLimitsPerSlotAndResets) {
  const auto topo = Topology::star_of_chains(4, 1);  // hub 0 with 4 leaves
  Fabric fabric(&topo, 2);
  EXPECT_TRUE(fabric.send(plain(NodeId{0}, NodeId{1}, 1)));
  EXPECT_TRUE(fabric.send(plain(NodeId{0}, NodeId{2}, 2)));
  EXPECT_FALSE(fabric.send(plain(NodeId{0}, NodeId{3}, 3)));  // over budget
  fabric.end_slot();
  EXPECT_TRUE(fabric.send(plain(NodeId{0}, NodeId{3}, 3)));  // fresh slot
}

TEST(Fabric, ByteAccounting) {
  const auto topo = Topology::line(2);
  Fabric fabric(&topo);
  Envelope e = plain(NodeId{0}, NodeId{1}, 5);
  e.payload = Bytes(10, 0xaa);
  ASSERT_TRUE(fabric.send(e));
  fabric.end_slot();
  EXPECT_EQ(fabric.bytes_sent(NodeId{0}), 30u);  // 20 overhead + 10 payload
  EXPECT_EQ(fabric.bytes_received(NodeId{1}), 30u);
  EXPECT_EQ(fabric.total_bytes(), 30u);
}

TEST(SlotArena, StoreReturnsStableCopyAndResetKeepsCapacity) {
  SlotArena arena;
  const Bytes a(100, 0x11);
  const Bytes b(5000, 0x22);  // forces a second chunk
  const auto sa = arena.store(a);
  const auto sb = arena.store(b);
  EXPECT_EQ(copy_of(sa), a);
  EXPECT_EQ(copy_of(sb), b);
  EXPECT_EQ(arena.used(), a.size() + b.size());
  const std::size_t cap = arena.capacity();
  EXPECT_GE(cap, arena.used());
  arena.reset();
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_EQ(arena.capacity(), cap);  // rewound, not freed
  // Refilling after reset reuses the same chunks: capacity is unchanged.
  (void)arena.store(a);
  (void)arena.store(b);
  EXPECT_EQ(arena.capacity(), cap);
}

TEST(Fabric, PayloadSpansStayValidThroughDeliverySlot) {
  const auto topo = Topology::line(3);
  Fabric fabric(&topo);
  Bytes payload(64, 0xab);
  {
    Envelope e = plain(NodeId{0}, NodeId{1}, 0);
    e.payload = payload;
    ASSERT_TRUE(fabric.send(e));
  }
  fabric.end_slot();
  const auto inbox = fabric.take_inbox(NodeId{1});
  ASSERT_EQ(inbox.size(), 1u);
  // New sends land in the *other* arena, so the delivered span survives a
  // full slot of fresh traffic.
  for (int i = 0; i < 32; ++i)
    ASSERT_TRUE(fabric.send(plain(NodeId{1}, NodeId{2},
                                  static_cast<std::uint8_t>(i))));
  EXPECT_EQ(copy_of(inbox[0].payload), payload);
}

TEST(Fabric, ArenaCapacityDoesNotShrinkAcrossSlots) {
  const auto topo = Topology::line(2);
  Fabric fabric(&topo);
  for (int slot = 0; slot < 4; ++slot) {
    ASSERT_TRUE(fabric.send(plain(NodeId{0}, NodeId{1}, 1)));
    fabric.end_slot();
    (void)fabric.take_inbox(NodeId{1});
  }
  const std::size_t cap = fabric.arena_capacity();
  EXPECT_GT(cap, 0u);
  for (int slot = 0; slot < 16; ++slot) {
    ASSERT_TRUE(fabric.send(plain(NodeId{0}, NodeId{1}, 2)));
    EXPECT_LE(fabric.collect_arena_used(), cap);
    fabric.end_slot();
    (void)fabric.take_inbox(NodeId{1});
    // Same traffic every slot: steady state allocates nothing new.
    EXPECT_EQ(fabric.arena_capacity(), cap);
  }
}

TEST(Fabric, TracedBytesMatchFabricAccounting) {
  const auto topo = Topology::line(3);
  Fabric fabric(&topo);
  TraceState state;
  fabric.set_tracer(Tracer(&state));
  ASSERT_TRUE(fabric.send(plain(NodeId{0}, NodeId{1}, 1)));
  Envelope big = plain(NodeId{1}, NodeId{2}, 2);
  big.payload = Bytes(77, 0x55);
  ASSERT_TRUE(fabric.send(big));
  fabric.end_slot();
  // The flight recorder's byte counters and the fabric's accounting both
  // derive from the one frame_size()/kFrameOverheadBytes definition.
  EXPECT_EQ(state.metrics.totals().bytes_sent, fabric.total_bytes());
  EXPECT_EQ(fabric.total_bytes(), (20u + 1u) + (20u + 77u));
}

TEST(Fabric, ResetDropsInFlightAndInboxes) {
  const auto topo = Topology::line(2);
  Fabric fabric(&topo);
  ASSERT_TRUE(fabric.send(plain(NodeId{0}, NodeId{1}, 1)));
  fabric.reset();
  fabric.end_slot();
  EXPECT_TRUE(fabric.take_inbox(NodeId{1}).empty());
}

// --- the active-set contract: end_slot() names the receivers ---

TEST(Fabric, EndSlotReturnsEachReceiverOnceInIdOrder) {
  const auto topo = Topology::grid(4, 4);  // ids row-major, 4 per row
  Fabric fabric(&topo);
  // Sends in descending sender order, several to one receiver.
  const std::pair<std::uint32_t, std::uint32_t> sends[] = {
      {15, 14}, {11, 10}, {9, 10}, {6, 10}, {5, 1}, {4, 0}, {1, 0}, {14, 10}};
  std::uint8_t tag = 0;
  for (const auto& [from, to] : sends)
    ASSERT_TRUE(fabric.send(plain(NodeId{from}, NodeId{to}, tag++)));
  const auto receivers = fabric.end_slot();
  const std::vector<NodeId> got(receivers.begin(), receivers.end());
  EXPECT_EQ(got, (std::vector<NodeId>{NodeId{0}, NodeId{1}, NodeId{10},
                                      NodeId{14}}));
  EXPECT_TRUE(std::adjacent_find(got.begin(), got.end(),
                                 [](NodeId a, NodeId b) { return !(a < b); }) ==
              got.end());
  // Exactly the receivers have a non-empty inbox, in send order.
  for (std::uint32_t id = 0; id < topo.node_count(); ++id) {
    const auto inbox = fabric.take_inbox(NodeId{id});
    const bool listed = std::find(got.begin(), got.end(), NodeId{id}) !=
                        got.end();
    EXPECT_EQ(!inbox.empty(), listed) << id;
    for (std::size_t k = 1; k < inbox.size(); ++k)
      EXPECT_LT(inbox[k - 1].payload[0], inbox[k].payload[0]) << id;
  }
  EXPECT_EQ(fabric.take_inbox(NodeId{10}).size(), 0u);  // drained
  // A silent slot names nobody.
  EXPECT_TRUE(fabric.end_slot().empty());
}

TEST(Fabric, NonReceiverAndStaleInboxesReadEmpty) {
  const auto topo = Topology::line(3);  // 0-1-2
  Fabric fabric(&topo);
  ASSERT_TRUE(fabric.send(plain(NodeId{0}, NodeId{1}, 1)));
  ASSERT_EQ(fabric.end_slot().size(), 1u);
  EXPECT_TRUE(fabric.take_inbox(NodeId{0}).empty());  // received nothing
  EXPECT_TRUE(fabric.take_inbox(NodeId{2}).empty());
  // Node 1 leaves its frame undrained; the next end_slot() discards it.
  ASSERT_TRUE(fabric.send(plain(NodeId{1}, NodeId{2}, 2)));
  const auto receivers = fabric.end_slot();
  ASSERT_EQ(receivers.size(), 1u);
  EXPECT_EQ(receivers[0], NodeId{2});
  EXPECT_TRUE(fabric.take_inbox(NodeId{1}).empty());  // stale: discarded
  const auto inbox = fabric.take_inbox(NodeId{2});
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].payload[0], 2);
}

TEST(Fabric, ResetClearsInboxesReceiversAndBudgets) {
  const auto topo = Topology::line(3);
  Fabric fabric(&topo, 1);
  ASSERT_TRUE(fabric.send(plain(NodeId{0}, NodeId{1}, 1)));
  fabric.end_slot();  // node 1's inbox stays undrained
  ASSERT_TRUE(fabric.send(plain(NodeId{1}, NodeId{2}, 2)));  // staged
  EXPECT_FALSE(fabric.send(plain(NodeId{1}, NodeId{0}, 3)));  // budget
  fabric.reset();
  for (std::uint32_t id = 0; id < 3; ++id)
    EXPECT_TRUE(fabric.take_inbox(NodeId{id}).empty()) << id;
  EXPECT_TRUE(fabric.end_slot().empty());  // the staged frame is gone too
  // Budgets start fresh after a reset.
  ASSERT_TRUE(fabric.send(plain(NodeId{1}, NodeId{0}, 4)));
  const auto receivers = fabric.end_slot();
  ASSERT_EQ(receivers.size(), 1u);
  EXPECT_EQ(receivers[0], NodeId{0});
  ASSERT_EQ(fabric.take_inbox(NodeId{0}).size(), 1u);
}

TEST(Fabric, SnapshotRoundTripsUndrainedInboxes) {
  const auto topo = Topology::grid(4, 4);
  auto fill = [](Fabric& fabric) {
    // Receivers 1, 5 and 6; node 5 is drained before the capture, node 1
    // and node 6 keep two and one undrained frames.
    const std::pair<std::uint32_t, std::uint32_t> sends[] = {
        {2, 1}, {0, 1}, {4, 5}, {7, 6}};
    std::uint8_t tag = 10;
    for (const auto& [from, to] : sends) {
      Envelope e = plain(NodeId{from}, NodeId{to}, tag);
      e.payload.resize(3 + tag % 5, tag);
      ++tag;
      ASSERT_TRUE(fabric.send(e));
    }
    fabric.end_slot();
    ASSERT_EQ(fabric.take_inbox(NodeId{5}).size(), 1u);
    // One staged frame in flight; node 9 has spent its budget of 1.
    ASSERT_TRUE(fabric.send(plain(NodeId{9}, NodeId{13}, 99)));
  };
  Fabric original(&topo, 1);
  fill(original);
  SnapshotWriter first;
  original.snapshot_save(first);
  const Bytes image = first.take();

  Fabric restored(&topo, 1);
  SnapshotReader reader(image);
  restored.snapshot_load(reader);
  SnapshotWriter second;
  restored.snapshot_save(second);
  EXPECT_EQ(second.take(), image);  // byte-identical round trip

  // Node 6 stays undrained on the restored side (checked stale below).
  for (std::uint32_t id = 0; id < topo.node_count(); ++id) {
    const auto want = original.take_inbox(NodeId{id});
    if (id == 6) {
      EXPECT_EQ(want.size(), 1u);
      continue;
    }
    const auto got = restored.take_inbox(NodeId{id});
    ASSERT_EQ(got.size(), want.size()) << id;
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].from, want[k].from);
      EXPECT_EQ(got[k].to, want[k].to);
      EXPECT_EQ(got[k].edge_key, want[k].edge_key);
      EXPECT_EQ(got[k].edge_mac, want[k].edge_mac);
      EXPECT_EQ(copy_of(got[k].payload), copy_of(want[k].payload));
    }
  }
  // The restored budget holds, and the restored receivers — drained (1)
  // or not (6) — are cleared by the next slot close like any others.
  EXPECT_FALSE(restored.send(plain(NodeId{9}, NodeId{8}, 1)));
  ASSERT_TRUE(restored.send(plain(NodeId{0}, NodeId{1}, 2)));
  const auto receivers = restored.end_slot();
  const std::vector<NodeId> got(receivers.begin(), receivers.end());
  EXPECT_EQ(got, (std::vector<NodeId>{NodeId{1}, NodeId{13}}));
  EXPECT_EQ(restored.take_inbox(NodeId{1}).size(), 1u);
  EXPECT_TRUE(restored.take_inbox(NodeId{6}).empty());
  EXPECT_EQ(restored.take_inbox(NodeId{13}).size(), 1u);
}

// --- large-n memory-diet structures ---

TEST(ParentTable, FromNestedKeepsVectorOfVectorsSemantics) {
  std::vector<std::vector<ParentLink>> rows(5);
  rows[0] = {{NodeId{7}, KeyIndex{3}}};
  rows[2] = {{NodeId{1}, KeyIndex{9}},
             {NodeId{4}, KeyIndex{2}},
             {NodeId{1}, KeyIndex{9}}};  // duplicates preserved
  rows[4] = {{NodeId{0}, KeyIndex{0}}};
  const auto expected = rows;  // copy before from_nested consumes them

  const ParentTable table = ParentTable::from_nested(std::move(rows));
  ASSERT_EQ(table.size(), expected.size());
  for (std::size_t id = 0; id < expected.size(); ++id) {
    const auto row = table[id];
    ASSERT_EQ(row.size(), expected[id].size()) << "node " << id;
    for (std::size_t k = 0; k < row.size(); ++k)
      EXPECT_EQ(row[k], expected[id][k]) << "node " << id << " link " << k;
  }
  EXPECT_THROW((void)table[expected.size()], std::out_of_range);
}

TEST(ParentTable, RestoreRoundTripsAndRejectsCorruptOffsets) {
  std::vector<std::vector<ParentLink>> rows(3);
  rows[1] = {{NodeId{2}, KeyIndex{5}}, {NodeId{9}, KeyIndex{1}}};
  const ParentTable original = ParentTable::from_nested(std::move(rows));

  ParentTable restored;
  restored.restore(original.offsets(), original.links());
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t id = 0; id < original.size(); ++id) {
    const auto a = original[id];
    const auto b = restored[id];
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]);
  }

  // offsets.back() must equal links.size(); a truncated link pool is the
  // snapshot-corruption shape this guards against.
  ParentTable corrupt;
  EXPECT_THROW(corrupt.restore(original.offsets(), {}),
               std::invalid_argument);
}

TEST(ParentTable, FromTaggedMatchesFromNested) {
  // Two shards owning contiguous id ranges ([0,2) and [2,4)), links staged
  // in record order within each shard — the phase drivers' invariant.
  std::vector<std::vector<ParentTable::Tagged>> bufs(2);
  bufs[0] = {{1, {NodeId{8}, KeyIndex{4}}},
             {0, {NodeId{5}, KeyIndex{7}}},
             {1, {NodeId{6}, KeyIndex{2}}}};
  bufs[1] = {{3, {NodeId{2}, KeyIndex{0}}},
             {3, {NodeId{7}, KeyIndex{9}}}};

  std::vector<std::vector<ParentLink>> rows(4);
  for (const auto& buf : bufs)
    for (const auto& e : buf) rows[e.node].push_back(e.link);

  const ParentTable tagged = ParentTable::from_tagged(4, bufs);
  const ParentTable nested = ParentTable::from_nested(std::move(rows));
  ASSERT_EQ(tagged.size(), nested.size());
  EXPECT_EQ(tagged.offsets(), nested.offsets());
  EXPECT_EQ(tagged.links(), nested.links());
}

TEST(AuditLog, PooledChainsPreserveArrivalOrderAcrossShardPlans) {
  // The same per-node append sequence through a 1-pool and a 3-pool plan
  // (nodes assigned to shards round-robin, consistently per node). The
  // in-memory pool layout differs; every per-node observation must not.
  constexpr std::uint32_t kNodes = 6;
  const auto fill = [](AuditLog& log, std::size_t shards) {
    log.begin_aggregation(shards);
    for (std::uint32_t step = 0; step < 24; ++step) {
      const NodeId node{step % kNodes};
      const std::size_t shard = shards == 1 ? 0 : node.value % shards;
      ReceivedRecord r;
      r.msg.origin = NodeId{step};
      r.msg.value = static_cast<Reading>(1000 + step);
      r.in_edge = KeyIndex{step};
      r.slot = static_cast<Interval>(1 + step / kNodes);
      log.add_received(shard, node, r);
      if (step % 2 == 0) {
        ForwardRecord f;
        f.msg.origin = NodeId{step};
        f.msg.value = static_cast<Reading>(2000 + step);
        f.out_edge = KeyIndex{100 + step};
        f.parent = NodeId{(step + 1) % kNodes};
        log.add_forwarded(shard, node, f);
      }
    }
  };

  AuditLog one(kNodes), three(kNodes);
  fill(one, 1);
  fill(three, 3);
  for (std::uint32_t id = 0; id < kNodes; ++id) {
    const auto ra = one.received_of(NodeId{id});
    const auto rb = three.received_of(NodeId{id});
    ASSERT_EQ(ra.size(), rb.size()) << "node " << id;
    for (std::size_t k = 0; k < ra.size(); ++k) {
      EXPECT_EQ(ra[k].msg, rb[k].msg);
      EXPECT_EQ(ra[k].in_edge, rb[k].in_edge);
      EXPECT_EQ(ra[k].slot, rb[k].slot);
    }
    const auto fa = one.forwarded_of(NodeId{id});
    const auto fb = three.forwarded_of(NodeId{id});
    ASSERT_EQ(fa.size(), fb.size()) << "node " << id;
    for (std::size_t k = 0; k < fa.size(); ++k) {
      EXPECT_EQ(fa[k].msg, fb[k].msg);
      EXPECT_EQ(fa[k].out_edge, fb[k].out_edge);
      EXPECT_EQ(fa[k].parent, fb[k].parent);
    }
  }
}

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : net_(Topology::line(4),
             {.keys = {.pool_size = 60, .ring_size = 40, .seed = 2},
              .revocation_threshold = 0}) {}

  Network net_;
};

TEST_F(NetworkTest, SecureSendIsReceivedValid) {
  const Bytes payload{1, 2, 3};
  ASSERT_TRUE(net_.send_secure(NodeId{0}, NodeId{1}, payload));
  net_.fabric().end_slot();
  const auto got = net_.receive_valid(NodeId{1});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(copy_of(got[0].payload), payload);
}

TEST_F(NetworkTest, NonAdjacentPairHasNoUsableEdgeKey) {
  // Nodes 0 and 2 of the line 0-1-2-3 are not neighbors, yet their dense
  // rings share keys: only edges carry edge keys.
  ASSERT_FALSE(net_.topology().has_edge(NodeId{0}, NodeId{2}));
  ASSERT_TRUE(net_.keys().edge_key(NodeId{0}, NodeId{2}).has_value());
  EXPECT_FALSE(net_.usable_edge_key(NodeId{0}, NodeId{2}).has_value());
  EXPECT_FALSE(net_.usable_edge_key(NodeId{2}, NodeId{0}).has_value());
  EXPECT_FALSE(net_.send_secure(NodeId{0}, NodeId{2}, Bytes{1}));
  EXPECT_TRUE(net_.usable_edge_key(NodeId{0}, NodeId{1}).has_value());
}

TEST_F(NetworkTest, TamperedFrameRejected) {
  const Bytes payload{1, 2, 3};
  const auto key = net_.usable_edge_key(NodeId{0}, NodeId{1});
  ASSERT_TRUE(key.has_value());
  Envelope e;
  e.from = NodeId{0};
  e.to = NodeId{1};
  e.edge_key = *key;
  e.payload = payload;
  e.edge_mac = compute_mac(net_.keys().pool_key(*key), payload);
  e.payload[0] ^= 1;  // tamper after MAC
  ASSERT_TRUE(net_.fabric().send(e));
  net_.fabric().end_slot();
  EXPECT_TRUE(net_.receive_valid(NodeId{1}).empty());
}

TEST_F(NetworkTest, WrongKeyClaimRejected) {
  // Claim a key the receiver does not hold.
  KeyIndex absent{0};
  for (std::uint32_t k = 0; k < 60; ++k) {
    if (!net_.keys().ring(NodeId{1}).contains(KeyIndex{k})) {
      absent = KeyIndex{k};
      break;
    }
  }
  Envelope e;
  e.from = NodeId{0};
  e.to = NodeId{1};
  e.edge_key = absent;
  e.payload = {9};
  e.edge_mac = compute_mac(net_.keys().pool_key(absent), e.payload);
  ASSERT_TRUE(net_.fabric().send(e));
  net_.fabric().end_slot();
  EXPECT_TRUE(net_.receive_valid(NodeId{1}).empty());
}

TEST_F(NetworkTest, RevokedKeyRejectedAndFallbackUsed) {
  const auto first = net_.usable_edge_key(NodeId{0}, NodeId{1});
  ASSERT_TRUE(first.has_value());
  (void)net_.revocation().revoke_key(*first);
  const auto second = net_.usable_edge_key(NodeId{0}, NodeId{1});
  // Dense rings here: a fallback shared key exists and differs.
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(*first, *second);

  // Frames MAC'd with the revoked key are dropped on receive.
  Envelope e;
  e.from = NodeId{0};
  e.to = NodeId{1};
  e.edge_key = *first;
  e.payload = {1};
  e.edge_mac = compute_mac(net_.keys().pool_key(*first), e.payload);
  ASSERT_TRUE(net_.fabric().send(e));
  net_.fabric().end_slot();
  EXPECT_TRUE(net_.receive_valid(NodeId{1}).empty());
}

TEST_F(NetworkTest, FloodMemoVerdictsEqualBatchVerdicts) {
  // One mixed inbox at node 1: the flood payload with the right MAC, the
  // flood payload with one MAC byte flipped, the flood payload under a held
  // key with no memo entry, another payload under a memoized key, and a
  // revoked key. With or without the memo, receive_valid() must return the
  // same frames and emit the same mac_verify events.
  const Bytes flood{0x46, 0x4c, 0x44};
  const Bytes other{0x4f, 0x54, 0x48};
  const KeyIndex revoked = *net_.usable_edge_key(NodeId{0}, NodeId{1});
  (void)net_.revocation().revoke_key(revoked);
  net_.warm_crypto_caches();

  std::vector<KeyIndex> memoized;
  for (std::uint32_t id = 0; id + 1 < net_.node_count(); ++id)
    memoized.push_back(*net_.usable_edge_key(NodeId{id}, NodeId{id + 1}));
  const KeyIndex tabled = *net_.usable_edge_key(NodeId{0}, NodeId{1});
  KeyIndex untabled = kNoKey;
  for (const KeyIndex k : net_.keys().ring(NodeId{1}).indices())
    if (k != revoked &&
        std::find(memoized.begin(), memoized.end(), k) == memoized.end())
      untabled = k;
  ASSERT_NE(untabled, kNoKey);

  auto frame = [&](KeyIndex key, const Bytes& payload, bool flip) {
    Envelope e;
    e.from = NodeId{0};
    e.to = NodeId{1};
    e.edge_key = key;
    e.payload = payload;
    e.edge_mac = compute_mac(net_.keys().key_material(key), payload);
    if (flip) e.edge_mac.bytes[3] ^= 0x10;
    return e;
  };
  const std::vector<Envelope> inbox{
      frame(tabled, flood, false), frame(tabled, flood, true),
      frame(untabled, flood, false), frame(tabled, other, false),
      frame(revoked, flood, false)};

  struct Drained {
    std::vector<std::pair<KeyIndex, Bytes>> frames;
    std::vector<TraceEvent> events;
  };
  auto drain = [&](std::span<const Envelope> sends) {
    for (const Envelope& e : sends) EXPECT_TRUE(net_.fabric().send(e));
    net_.fabric().end_slot();
    TraceState state;
    FlightRecorder recorder;
    state.sink = &recorder;
    RxScratch scratch;
    Drained out;
    for (const Frame& f :
         net_.receive_valid(NodeId{1}, scratch, Tracer{&state}))
      out.frames.emplace_back(f.edge_key, copy_of(f.payload));
    out.events = recorder.events();
    return out;
  };
  auto check = [&](std::span<const Envelope> sends) {
    net_.memo_flood_macs(flood);
    const Drained memo = drain(sends);
    net_.clear_flood_macs();
    const Drained batch = drain(sends);
    EXPECT_EQ(memo.frames, batch.frames);
    EXPECT_EQ(memo.events, batch.events);
    return memo;
  };

  const Drained mixed = check(inbox);
  const std::vector<std::pair<KeyIndex, Bytes>> accepted{
      {tabled, flood}, {untabled, flood}, {tabled, other}};
  EXPECT_EQ(mixed.frames, accepted);
  ASSERT_EQ(mixed.events.size(), 4u);  // the revoked key never reaches a MAC
  const bool verdicts[] = {true, false, true, true};
  for (std::size_t i = 0; i < mixed.events.size(); ++i) {
    EXPECT_EQ(mixed.events[i].kind, TraceEventKind::kMacVerify);
    EXPECT_EQ(mixed.events[i].ok, verdicts[i]) << i;
  }
  // Each frame alone takes the one-candidate path.
  for (const Envelope& e : inbox) check({&e, 1});
}

TEST_F(NetworkTest, BroadcastSecureHitsAllUsableNeighbors) {
  const Bytes payload{5};
  const auto sent = net_.broadcast_secure(NodeId{1}, payload);
  EXPECT_EQ(sent, net_.usable_neighbors(NodeId{1}).size());
  net_.fabric().end_slot();
  EXPECT_EQ(net_.receive_valid(NodeId{0}).size(), 1u);
  EXPECT_EQ(net_.receive_valid(NodeId{2}).size(), 1u);
}

}  // namespace
}  // namespace vmat
