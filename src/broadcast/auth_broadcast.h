// Authenticated broadcast from the base station (μTESLA-style, per Ning et
// al. [20]).
//
// The base station owns a one-way hash chain committed by its anchor, which
// every sensor is pre-loaded with. Broadcast number e releases chain element
// e and MACs the payload with a key derived from that element; receivers
// verify the element by hashing forward to their last verified element and
// then check the MAC, so a forged or replayed broadcast is rejected. The
// MAC check depends on the broadcast alone, so it runs once per broadcast
// (BroadcastCheck) however many receivers share it.
//
// Simulation note (DESIGN.md): real μTESLA discloses the epoch key one
// interval *after* the MAC'd message to prevent in-epoch forgery; our
// simulator delivers a broadcast atomically, so disclosing key and message
// together is equivalent in-model. The choke-resistance of this primitive
// is an assumption the paper inherits from [20]; the channel below delivers
// to every honest connected node and costs one flooding round.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/hash_chain.h"
#include "crypto/mac.h"
#include "trace/trace.h"
#include "util/bytes.h"

namespace vmat {

class SnapshotReader;
class SnapshotWriter;

/// A signed broadcast frame.
struct SignedBroadcast {
  std::uint64_t epoch{0};
  Digest chain_element{};
  Mac mac;
  Bytes payload;
};

/// Base-station side: signs successive broadcasts.
class AuthBroadcaster {
 public:
  AuthBroadcaster(std::uint64_t seed, std::size_t max_broadcasts);

  [[nodiscard]] const Digest& anchor() const { return chain_.anchor(); }

  /// Sign the next broadcast. Throws if the chain is exhausted.
  [[nodiscard]] SignedBroadcast sign(Bytes payload, Tracer tracer = {});

  [[nodiscard]] std::uint64_t next_epoch() const noexcept { return next_epoch_; }

  /// Reposition the chain cursor (snapshot restore). The chain itself is
  /// immutable precomputed material, so the cursor is the whole state.
  void restore_next_epoch(std::uint64_t next_epoch) noexcept {
    next_epoch_ = next_epoch;
  }

 private:
  HashChain chain_;
  std::uint64_t next_epoch_{1};  // epoch 0 is the anchor itself
};

/// A broadcast and its MAC verdict. The MAC key derives from the disclosed
/// chain element alone, so every receiver of one broadcast reaches the same
/// verdict: the check runs once per broadcast, at construction, and each
/// receiver still checks the epoch and the chain element itself
/// (AuthReceiver::accept). Holds a reference to the broadcast, which must
/// outlive it.
struct BroadcastCheck {
  explicit BroadcastCheck(const SignedBroadcast& b) noexcept;

  const SignedBroadcast& broadcast;
  const bool mac_ok;
};

/// Sensor side: verifies successive broadcasts against the anchor.
class AuthReceiver {
 public:
  explicit AuthReceiver(const Digest& anchor);

  /// Accept iff the epoch is strictly newer than the last accepted one,
  /// the chain element verifies against the last verified element, and the
  /// broadcast's MAC verdict holds. `self` identifies the receiving sensor
  /// in the trace stream.
  [[nodiscard]] bool accept(const BroadcastCheck& check, Tracer tracer = {},
                            NodeId self = {});
  /// One receiver alone: checks the MAC, then accept(check).
  [[nodiscard]] bool accept(const SignedBroadcast& b) {
    return accept(BroadcastCheck(b));
  }

  // --- snapshots (sim/snapshot.h): the verification cursor is the whole
  // mutable state ---
  void snapshot_save(SnapshotWriter& writer) const;
  void snapshot_load(SnapshotReader& reader);

 private:
  Digest last_verified_;
  std::uint64_t last_epoch_{0};
};

/// Derives the broadcast MAC key for a chain element.
[[nodiscard]] SymmetricKey broadcast_key(const Digest& chain_element) noexcept;

}  // namespace vmat
