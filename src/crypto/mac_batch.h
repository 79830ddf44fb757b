// Multi-buffer HMAC-SHA-256: compute/verify N independent MAC lanes at
// once. A batched HMAC decomposes into
//   inner  = SHA-256(ipad-midstate ‖ message)   (variable block count)
//   outer  = SHA-256(opad-midstate ‖ inner)     (always exactly one block)
// so lanes with the same inner block count compress in lockstep, and the
// outer finalization batches perfectly across every lane.
//
// Three kernels behind the crypto layer's usual runtime dispatch:
//   * SHA-NI, two interleaved lanes (hides sha256rnds2 latency);
//   * AVX2, eight transposed lanes (one SIMD SHA-256 round does 8 lanes);
//   * portable single-lane fallback (the same compressor Sha256 uses).
// All three are the same FIPS 180-4 function, bit for bit; impl selection
// can be forced for tests/benches via set_impl().
//
// The protocol hot paths that hold whole inboxes of edge MACs
// (Network::receive_valid, the level-parallel phase drivers' buffered
// sends) are the intended callers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/mac.h"
#include "util/bytes.h"

namespace vmat {

class MacBatch {
 public:
  enum class Impl : std::uint8_t {
    kAuto = 0,  ///< pick the widest kernel the CPU supports
    kScalar,    ///< one lane at a time (portable fallback)
    kShaNiX2,   ///< two interleaved SHA-NI lanes
    kAvx2X8,    ///< eight transposed AVX2 lanes
  };

  /// Queue one lane. The message bytes must stay alive and unchanged until
  /// compute() returns (inbox payload spans and encoded frames both
  /// qualify). Returns the lane index.
  std::size_t add(const MacContext& context,
                  std::span<const std::uint8_t> message);

  [[nodiscard]] std::size_t size() const noexcept { return lanes_.size(); }
  [[nodiscard]] bool empty() const noexcept { return lanes_.empty(); }

  /// Drop all queued lanes (keeps scratch capacity).
  void clear() noexcept;

  /// Compute every queued lane; results become available through macs().
  void compute();

  /// Truncated tags, one per lane in add() order. Valid until the next
  /// clear()/add()/compute().
  [[nodiscard]] std::span<const Mac> macs() const noexcept { return macs_; }

  /// Force a kernel process-wide (tests/benches); kAuto restores runtime
  /// dispatch. Unsupported choices silently fall back at compute() time.
  static void set_impl(Impl impl) noexcept;

  /// The kernel compute() would use right now, after dispatch/fallback.
  [[nodiscard]] static Impl active_impl() noexcept;

 private:
  struct Lane {
    const HmacKeyState* state;
    const std::uint8_t* message;
    std::size_t length;
  };

  std::vector<Lane> lanes_;
  std::vector<Mac> macs_;
  // Scratch reused across compute() calls (a steady-state compute()
  // allocates nothing): padded inner streams, per-lane running states,
  // per-lane block offsets/counts, the kernel's state/stream pointer
  // arrays, and the block-count grouping's counters.
  std::vector<std::uint8_t> inner_pad_;
  std::vector<std::uint8_t> outer_pad_;
  std::vector<std::uint32_t> states_;   // 8 words per lane
  std::vector<std::size_t> offsets_;    // byte offset of each lane's stream
  std::vector<std::size_t> nblocks_;    // inner block count per lane
  std::vector<std::uint32_t*> lane_states_;         // kernel argument
  std::vector<const std::uint8_t*> lane_streams_;   // kernel argument
  std::vector<std::uint32_t> group_end_;  // per block count, lo..hi
};

}  // namespace vmat
