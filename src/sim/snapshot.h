// Copy-on-write execution snapshots.
//
// A Snapshot captures the complete *mutable* post-tree-formation execution
// state of a deployment — fabric contents (undrained frames with their
// arena payload bytes), edge-key stamp slots, revocation registry, auth
// broadcast chain positions, audits, the formed tree, trace counters, and
// the coordinator's nonce stream — into one relocatable flat byte buffer.
// Restoring (forking) is a sequential decode back into the live objects in
// O(state size): vectors resize into retained capacity and payload bytes
// re-enter the slot arenas through their bump allocators, so a steady-state
// fork performs no heap allocation beyond what the very first restore
// warmed up.
//
// What is NOT captured (see DESIGN.md "Snapshots & fork execution"):
//   * Immutable deployment identity — topology CSR, key pool/ring material,
//     spec bits. These are *fingerprinted*: restore refuses a snapshot whose
//     fingerprint does not match the live deployment, and the key material
//     is additionally pinned by the captured key_generation.
//   * Warm derived caches — MacContext key schedules stay warm across a
//     restore (they are pure functions of immutable key material), and the
//     Network's map-side edge-key cache is simply cleared (recompute is
//     deterministic, so behavior is unchanged).
//   * The adversary. Forks rebind strategies via
//     VmatCoordinator::set_adversary(); the fork contract requires the
//     malicious *set* (which shaped formation) to stay fixed.
//
// Buffer layout: a fixed sequence of tagged sections, each a sequence of
// little-endian-order POD fields and length-prefixed POD vectors. The
// buffer is position-independent (no pointers, no absolute offsets) and may
// be copied or moved freely between compatible deployments in one process.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "util/bytes.h"

namespace vmat {

/// Append-only encoder for snapshot sections. All writes are raw memcpys
/// of trivially copyable values without padding (explicit zeroed padding
/// members instead), so equal states encode to equal bytes; layout is the
/// write order.
class SnapshotWriter {
 public:
  void section(std::uint32_t tag) { pod(tag); }

  template <typename T>
  void pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "snapshot fields must be flat (memcpy-able)");
    static_assert(std::has_unique_object_representations_v<T>,
                  "snapshot fields must have no padding bytes");
    const std::size_t at = out_.size();
    out_.resize(at + sizeof value);
    std::memcpy(out_.data() + at, &value, sizeof value);
  }

  template <typename T>
  void vec_pod(const std::vector<T>& items) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "snapshot vectors must hold flat elements");
    static_assert(std::has_unique_object_representations_v<T>,
                  "snapshot vector elements must have no padding bytes");
    pod(static_cast<std::uint64_t>(items.size()));
    const std::size_t total = items.size() * sizeof(T);
    const std::size_t at = out_.size();
    out_.resize(at + total);
    if (total > 0) std::memcpy(out_.data() + at, items.data(), total);
  }

  /// Length-prefixed raw byte run (frame payloads).
  void bytes(std::span<const std::uint8_t> data) {
    pod(static_cast<std::uint64_t>(data.size()));
    const std::size_t at = out_.size();
    out_.resize(at + data.size());
    if (!data.empty()) std::memcpy(out_.data() + at, data.data(), data.size());
  }

  [[nodiscard]] Bytes take() noexcept { return std::move(out_); }

 private:
  Bytes out_;
};

/// Sequential decoder over a snapshot buffer. Reads must mirror the write
/// order exactly; any truncation or section-tag mismatch throws
/// std::invalid_argument (a snapshot is trusted in-process state, so a
/// mismatch is a logic error worth failing loudly on).
class SnapshotReader {
 public:
  explicit SnapshotReader(std::span<const std::uint8_t> data)
      : data_(data.data()), size_(data.size()) {}

  void section(std::uint32_t expected) {
    std::uint32_t tag = 0;
    pod(tag);
    if (tag != expected)
      throw std::invalid_argument(
          "SnapshotReader: section tag mismatch (layout skew)");
  }

  template <typename T>
  void pod(T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "snapshot fields must be flat (memcpy-able)");
    need(sizeof value);
    std::memcpy(&value, data_ + pos_, sizeof value);
    pos_ += sizeof value;
  }

  template <typename T>
  [[nodiscard]] T pod() {
    T value{};
    pod(value);
    return value;
  }

  template <typename T>
  void vec_pod(std::vector<T>& items) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "snapshot vectors must hold flat elements");
    const auto count = static_cast<std::size_t>(pod<std::uint64_t>());
    const std::size_t total = count * sizeof(T);
    need(total);
    items.resize(count);  // shrink/grow into retained capacity
    if (total > 0) std::memcpy(items.data(), data_ + pos_, total);
    pos_ += total;
  }

  /// View of a length-prefixed byte run; valid while the buffer lives.
  [[nodiscard]] std::span<const std::uint8_t> bytes() {
    const auto count = static_cast<std::size_t>(pod<std::uint64_t>());
    need(count);
    const std::span<const std::uint8_t> view(data_ + pos_, count);
    pos_ += count;
    return view;
  }

  [[nodiscard]] bool exhausted() const noexcept { return pos_ == size_; }

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n)
      throw std::invalid_argument("SnapshotReader: truncated snapshot");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_{0};
};

/// What execution point a snapshot captures.
enum class SnapshotKind : std::uint8_t {
  /// Mid-execution, right after tree formation: resume_min() finishes the
  /// execution (query phases) many times over, once per fork.
  kExecutionPrefix = 1,
  /// A served epoch at prepare_epoch(): rearm_epoch() re-serves the formed
  /// tree after a transient disruption without re-forming it.
  kEpoch = 2,
};

/// A captured execution state. Value type: copy the Snapshot (one buffer
/// copy) to fork it across threads; each restore decodes its own copy or
/// the shared original — restores never mutate the snapshot.
class Snapshot {
 public:
  Snapshot() = default;

  [[nodiscard]] bool empty() const noexcept { return buffer_.empty(); }
  [[nodiscard]] std::size_t size_bytes() const noexcept {
    return buffer_.size();
  }
  [[nodiscard]] SnapshotKind kind() const noexcept { return kind_; }
  /// Deployment identity hash restore checks against (topology, key
  /// material spec, coordinator config).
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }
  [[nodiscard]] std::uint32_t node_count() const noexcept {
    return node_count_;
  }
  /// Flooding rounds the captured prefix already spent (announcement +
  /// tree formation) — seeds ExecutionOutcome::data_rounds on resume.
  [[nodiscard]] int formation_rounds() const noexcept {
    return formation_rounds_;
  }
  [[nodiscard]] std::span<const std::uint8_t> data() const noexcept {
    return buffer_;
  }

 private:
  friend class VmatCoordinator;

  Bytes buffer_;
  SnapshotKind kind_{SnapshotKind::kExecutionPrefix};
  std::uint64_t fingerprint_{0};
  std::uint32_t node_count_{0};
  int formation_rounds_{0};
};

/// FNV-1a-style accumulator for deployment fingerprints.
[[nodiscard]] inline std::uint64_t snapshot_mix(std::uint64_t h,
                                                std::uint64_t v) noexcept {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace vmat
