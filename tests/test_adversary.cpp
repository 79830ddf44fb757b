// AdversaryView key queries against their brute-force definitions: the
// cached held-key set must answer holds_pool_key() and attack_key_for()
// exactly as a scan over every compromised sensor does, through
// revocations, a ring closure, path-key establishment and a rekey.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <unordered_set>

#include "attack/adversary.h"
#include "campaign/strategy.h"
#include "sim/network.h"

namespace vmat {
namespace {

using campaign::named_genome;
using campaign::NamedAttack;

/// Sparse rings (P(two rings share a key) ~ 0.36), so many grid edges
/// need path keys and many targets share no ring key with the adversary.
NetworkSpec sparse_keys(std::uint64_t seed) {
  NetworkSpec cfg;
  cfg.keys.pool_size = 2000;
  cfg.keys.ring_size = 30;
  cfg.keys.seed = seed;
  return cfg;
}

bool reference_holds(const Network& net,
                     const std::unordered_set<NodeId>& malicious,
                     KeyIndex key) {
  for (NodeId m : malicious)
    if (net.keys().node_holds(m, key)) return true;
  return false;
}

std::optional<KeyIndex> reference_attack_key(
    const Network& net, const std::unordered_set<NodeId>& malicious,
    NodeId target) {
  std::optional<KeyIndex> best;
  for (NodeId m : malicious) {
    for (KeyIndex k : net.keys().keys_of(m)) {
      if (!net.keys().node_holds(target, k)) continue;
      if (net.revocation().is_key_revoked(k)) continue;
      if (!best.has_value() || k < *best) best = k;
      break;  // keys_of is sorted: the first usable is m's smallest
    }
  }
  return best;
}

/// Every node as a target and every key index — pool, path, and a margin
/// of unregistered path indices — against the definitions above. Returns
/// how many targets had an attack key.
std::size_t expect_matches_reference(const Network& net, Adversary& adversary) {
  const auto& malicious = adversary.malicious();
  const std::uint32_t key_end = net.keys().config().pool_size +
                                static_cast<std::uint32_t>(
                                    net.topology().edge_count()) + 4;
  for (std::uint32_t k = 0; k < key_end; ++k)
    EXPECT_EQ(adversary.view().holds_pool_key(KeyIndex{k}),
              reference_holds(net, malicious, KeyIndex{k}))
        << "key " << k;
  EXPECT_FALSE(adversary.view().holds_pool_key(kNoKey));
  std::size_t with_key = 0;
  for (std::uint32_t id = 0; id < net.node_count(); ++id) {
    const auto want = reference_attack_key(net, malicious, NodeId{id});
    EXPECT_EQ(adversary.view().attack_key_for(NodeId{id}), want)
        << "target " << id;
    with_key += want.has_value() ? 1 : 0;
  }
  return with_key;
}

TEST(AdversaryKeys, CachedKeySetMatchesScanThroughKeyChanges) {
  Network net(Topology::grid(7, 7), sparse_keys(3));
  const std::unordered_set<NodeId> malicious{NodeId{9}, NodeId{24},
                                             NodeId{38}};
  Adversary adversary(&net, malicious,
                      named_genome(NamedAttack::kSilent).strategy());
  EXPECT_GT(expect_matches_reference(net, adversary), 0u);

  // Path keys bump the key generation; adjacent targets with no shared
  // ring key now share a path key with the adversary.
  ASSERT_GT(net.establish_path_keys(), 0u);
  expect_matches_reference(net, adversary);

  // Burn the current attack keys of a few targets: the next-smallest
  // shared key takes over (or none is left).
  for (const std::uint32_t target : {2u, 10u, 17u, 23u, 31u, 45u}) {
    for (int round = 0; round < 2; ++round) {
      const auto key = adversary.view().attack_key_for(NodeId{target});
      if (!key.has_value()) break;
      (void)net.revocation().revoke_key(*key);
    }
  }
  expect_matches_reference(net, adversary);

  // Ring closure: every key of one compromised sensor, path keys included.
  (void)net.revocation().revoke_sensor(NodeId{24});
  expect_matches_reference(net, adversary);

  // Fresh key material under the same adversary, then path keys again.
  NetworkSpec fresh = sparse_keys(4);
  (void)net.rekey(fresh.keys);
  EXPECT_GT(expect_matches_reference(net, adversary), 0u);
  ASSERT_GT(net.establish_path_keys(), 0u);
  expect_matches_reference(net, adversary);
}

}  // namespace
}  // namespace vmat
