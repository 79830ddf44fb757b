// On-wire protocol messages and their canonical encodings.
//
// Every frame body is a type-tagged canonical byte string; edge MACs are
// computed over exactly these bytes (sim/network.h), and the sensor-key MACs
// inside aggregation/veto messages are computed over the canonical
// `*_mac_input` encodings below.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/mac.h"
#include "util/bytes.h"
#include "util/ids.h"

namespace vmat {

enum class MsgType : std::uint8_t {
  kTreeFormation = 1,
  kAggBundle = 2,
  kVeto = 3,
  kPredicateReply = 4,
};

/// Tree-formation flood message. `hop_count` is only meaningful in the
/// naive hop-count mode (the ablation baseline); VMAT's timestamp mode
/// ignores it by design (Section IV-A).
struct TreeFormationMsg {
  std::uint64_t session{0};
  std::int32_t hop_count{0};

  friend bool operator==(const TreeFormationMsg&,
                         const TreeFormationMsg&) = default;
};

/// One aggregation record: ⟨id, v, MAC_id(v ‖ nonce)⟩ from Section IV-B,
/// extended with the synopsis fields of Section VIII. For a plain MIN query
/// `weight` is 0 and `value` is the raw reading; for synopsis queries
/// `value` is the fixed-point-encoded exponential synopsis derived from
/// `weight`, which the base station re-derives and checks.
struct AggMessage {
  NodeId origin;
  std::uint32_t instance{0};
  Reading value{0};
  std::int64_t weight{0};
  Mac mac;

  friend bool operator==(const AggMessage&, const AggMessage&) = default;
};

/// The aggregation-phase frame: per-instance minima, one entry per instance
/// that has a value so far.
struct AggBundle {
  std::vector<AggMessage> entries;

  friend bool operator==(const AggBundle&, const AggBundle&) = default;
};

/// Veto: ⟨id, v, level, MAC_id(v ‖ level ‖ nonce)⟩ from Section IV-C.
struct VetoMsg {
  NodeId origin;
  std::uint32_t instance{0};
  Reading value{0};
  Level level{kNoLevel};
  Mac mac;
  /// Explicit zero padding: snapshots copy SOF records byte for byte.
  std::uint8_t padding[4]{};

  friend bool operator==(const VetoMsg&, const VetoMsg&) = default;
};

/// The single legitimate reply of a keyed predicate test: MAC_K(N).
struct PredicateReplyMsg {
  Mac reply;

  friend bool operator==(const PredicateReplyMsg&,
                         const PredicateReplyMsg&) = default;
};

// --- canonical encodings ---

[[nodiscard]] Bytes encode(const TreeFormationMsg& m);
[[nodiscard]] Bytes encode(const AggBundle& m);
[[nodiscard]] Bytes encode(const VetoMsg& m);
[[nodiscard]] Bytes encode(const PredicateReplyMsg& m);

/// Peek at the type tag of an encoded frame (nullopt if empty/unknown).
[[nodiscard]] std::optional<MsgType> peek_type(
    std::span<const std::uint8_t> frame) noexcept;

/// Decoders return nullopt on any malformed input — the receiving code
/// treats such frames as spurious. They take spans so delivered frames
/// (whose payloads live in the fabric's slot arena) decode without a copy;
/// a Bytes converts implicitly.
[[nodiscard]] std::optional<TreeFormationMsg> decode_tree(
    std::span<const std::uint8_t> frame);
[[nodiscard]] std::optional<AggBundle> decode_agg(
    std::span<const std::uint8_t> frame);
[[nodiscard]] std::optional<VetoMsg> decode_veto(
    std::span<const std::uint8_t> frame);
[[nodiscard]] std::optional<PredicateReplyMsg> decode_reply(
    std::span<const std::uint8_t> frame);

// --- sensor-key MAC inputs ---

[[nodiscard]] Bytes agg_mac_input(std::uint64_t nonce, std::uint32_t instance,
                                  Reading value, std::int64_t weight);

[[nodiscard]] Bytes veto_mac_input(std::uint64_t nonce, std::uint32_t instance,
                                   Reading value, Level level);

/// Build a properly MAC'd aggregation message for a sensor. The MacContext
/// overloads are the hot path (cached key schedule via
/// Predistribution::sensor_mac_context); the SymmetricKey forms re-derive
/// the schedule per call.
[[nodiscard]] AggMessage make_agg_message(const MacContext& sensor_key,
                                          NodeId origin, std::uint32_t instance,
                                          Reading value, std::int64_t weight,
                                          std::uint64_t nonce);
[[nodiscard]] AggMessage make_agg_message(const SymmetricKey& sensor_key,
                                          NodeId origin, std::uint32_t instance,
                                          Reading value, std::int64_t weight,
                                          std::uint64_t nonce);

/// Build a properly MAC'd veto.
[[nodiscard]] VetoMsg make_veto(const MacContext& sensor_key, NodeId origin,
                                std::uint32_t instance, Reading value,
                                Level level, std::uint64_t nonce);
[[nodiscard]] VetoMsg make_veto(const SymmetricKey& sensor_key, NodeId origin,
                                std::uint32_t instance, Reading value,
                                Level level, std::uint64_t nonce);

/// Base-station verification of the sensor-key MAC inside a message.
[[nodiscard]] bool verify_agg_message(const MacContext& sensor_key,
                                      const AggMessage& m, std::uint64_t nonce);
[[nodiscard]] bool verify_agg_message(const SymmetricKey& sensor_key,
                                      const AggMessage& m, std::uint64_t nonce);
[[nodiscard]] bool verify_veto(const MacContext& sensor_key, const VetoMsg& m,
                               std::uint64_t nonce);
[[nodiscard]] bool verify_veto(const SymmetricKey& sensor_key, const VetoMsg& m,
                               std::uint64_t nonce);

/// Identity hash of a message, used by the junk-triggered audit walks to ask
/// "did you forward *this exact* message?".
[[nodiscard]] Digest message_identity(const AggMessage& m);
[[nodiscard]] Digest message_identity(const VetoMsg& m);

}  // namespace vmat
