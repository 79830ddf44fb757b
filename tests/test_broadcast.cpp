// Authenticated broadcast tests: chain-element authentication, replay and
// forgery rejection, epoch monotonicity.
#include <gtest/gtest.h>

#include <vector>

#include "broadcast/auth_broadcast.h"

namespace vmat {
namespace {

TEST(AuthBroadcast, SignedBroadcastAccepted) {
  AuthBroadcaster bs(1, 10);
  AuthReceiver rx(bs.anchor());
  const auto b = bs.sign({1, 2, 3});
  EXPECT_TRUE(rx.accept(b));
}

TEST(AuthBroadcast, SequenceAccepted) {
  AuthBroadcaster bs(2, 10);
  AuthReceiver rx(bs.anchor());
  for (int i = 0; i < 10; ++i) {
    const auto b = bs.sign({static_cast<std::uint8_t>(i)});
    EXPECT_TRUE(rx.accept(b)) << "epoch " << i;
  }
  EXPECT_THROW((void)bs.sign({0}), std::runtime_error);  // chain exhausted
}

TEST(AuthBroadcast, SkippedEpochsStillVerify) {
  AuthBroadcaster bs(3, 10);
  AuthReceiver rx(bs.anchor());
  (void)bs.sign({1});  // lost broadcast
  const auto b2 = bs.sign({2});
  EXPECT_TRUE(rx.accept(b2));  // verifies across the gap
}

TEST(AuthBroadcast, ReplayRejected) {
  AuthBroadcaster bs(4, 10);
  AuthReceiver rx(bs.anchor());
  const auto b = bs.sign({1});
  EXPECT_TRUE(rx.accept(b));
  EXPECT_FALSE(rx.accept(b));  // same epoch again
}

TEST(AuthBroadcast, TamperedPayloadRejected) {
  AuthBroadcaster bs(5, 10);
  AuthReceiver rx(bs.anchor());
  auto b = bs.sign({1, 2, 3});
  b.payload[0] ^= 1;
  EXPECT_FALSE(rx.accept(b));
}

TEST(AuthBroadcast, ForgedChainElementRejected) {
  AuthBroadcaster bs(6, 10);
  AuthReceiver rx(bs.anchor());
  auto b = bs.sign({1});
  b.chain_element[3] ^= 0x40;
  // Re-MAC with the forged element so only the chain check can catch it.
  b.mac = compute_mac(broadcast_key(b.chain_element), b.payload);
  EXPECT_FALSE(rx.accept(b));
}

TEST(AuthBroadcast, WrongAnchorRejectsEverything) {
  AuthBroadcaster bs(7, 10);
  AuthBroadcaster other(8, 10);
  AuthReceiver rx(other.anchor());
  EXPECT_FALSE(rx.accept(bs.sign({1})));
}

TEST(AuthBroadcast, OldEpochAfterNewerRejected) {
  AuthBroadcaster bs(9, 10);
  AuthReceiver rx(bs.anchor());
  const auto b1 = bs.sign({1});
  const auto b2 = bs.sign({2});
  EXPECT_TRUE(rx.accept(b2));
  EXPECT_FALSE(rx.accept(b1));  // stale
}

TEST(AuthBroadcast, SharedVerdictStillChecksEachReceiver) {
  // One MAC verdict per broadcast, many receivers: each still rejects a
  // replayed epoch and a chain element that does not hash to its anchor,
  // even though that broadcast's MAC checks out under its own element, and
  // each rejects a broadcast whose shared verdict is a MAC failure.
  AuthBroadcaster bs(10, 10);
  std::vector<AuthReceiver> receivers(4, AuthReceiver(bs.anchor()));
  const auto b1 = bs.sign({1});
  const BroadcastCheck first(b1);
  ASSERT_TRUE(first.mac_ok);
  for (AuthReceiver& rx : receivers) EXPECT_TRUE(rx.accept(first));
  for (AuthReceiver& rx : receivers) EXPECT_FALSE(rx.accept(first));  // replay

  auto forged = bs.sign({2});
  forged.chain_element[3] ^= 0x40;
  forged.mac = compute_mac(broadcast_key(forged.chain_element), forged.payload);
  const BroadcastCheck wrong_chain(forged);
  ASSERT_TRUE(wrong_chain.mac_ok);
  for (AuthReceiver& rx : receivers) EXPECT_FALSE(rx.accept(wrong_chain));

  auto tampered = bs.sign({3});
  tampered.payload[0] ^= 1;
  const BroadcastCheck bad_mac(tampered);
  EXPECT_FALSE(bad_mac.mac_ok);
  for (AuthReceiver& rx : receivers) EXPECT_FALSE(rx.accept(bad_mac));

  // The rejections moved no receiver's cursor: the next genuine broadcast
  // verifies across the gap.
  const auto b4 = bs.sign({4});
  const BroadcastCheck fourth(b4);
  for (AuthReceiver& rx : receivers) EXPECT_TRUE(rx.accept(fourth));
}

}  // namespace
}  // namespace vmat
