// Shared state types produced/consumed by the protocol phases. Kept in a
// leaf header so the adversary hook interface (attack/adversary.h) and the
// phase drivers can both see them without a dependency cycle.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/ids.h"

namespace vmat {

/// How tree levels are derived during tree formation.
enum class TreeMode : std::uint8_t {
  kTimestamp,  ///< VMAT: level = slot of first receipt (Section IV-A)
  kHopCount,   ///< naive TAG-style baseline: level = hop count + 1
};

/// A parent as recorded by a child: the id the tree-formation frame claimed
/// to come from, and the edge key it was authenticated with. Only the edge
/// key is trustworthy; the id is the sender's claim.
struct ParentLink {
  NodeId claimed_id;
  KeyIndex edge_key{kNoKey};

  friend bool operator==(const ParentLink&, const ParentLink&) = default;
};

/// Per-node parent sets in CSR form: one flat link pool plus an n+1 offset
/// row, instead of a vector-of-vectors (24 B header + one heap block per
/// node). Rows are immutable once compacted — tree formation builds into a
/// transient nested builder (a node records all its parents in the single
/// slot it adopts a level) and compacts at phase end.
class ParentTable {
 public:
  ParentTable() = default;

  /// Compact a per-node nested builder, consuming it row by row.
  static ParentTable from_nested(std::vector<std::vector<ParentLink>>&& rows) {
    ParentTable t;
    t.offsets_.reserve(rows.size() + 1);
    std::size_t total = 0;
    t.offsets_.push_back(0);
    for (const auto& row : rows) {
      total += row.size();
      t.offsets_.push_back(static_cast<std::uint32_t>(total));
    }
    t.links_.reserve(total);
    for (auto& row : rows) {
      t.links_.insert(t.links_.end(), row.begin(), row.end());
      row.clear();
      row.shrink_to_fit();
    }
    return t;
  }

  /// A link staged in a flat phase buffer, tagged with its recording node.
  struct Tagged {
    std::uint32_t node;
    ParentLink link;
  };

  /// Compact per-shard flat staging buffers (12 B per link, no per-node heap
  /// blocks — the large-n tree phase's transient peak stays flat). A node's
  /// links must all sit in one buffer in record order (phase shards own
  /// contiguous id ranges); the stable counting sort below then reproduces
  /// exactly the per-node order from_nested() would have produced.
  static ParentTable from_tagged(std::uint32_t node_count,
                                 const std::vector<std::vector<Tagged>>& bufs) {
    ParentTable t;
    t.offsets_.assign(node_count + 1, 0);
    std::size_t total = 0;
    for (const auto& buf : bufs) {
      for (const Tagged& e : buf) ++t.offsets_[e.node + 1];
      total += buf.size();
    }
    for (std::uint32_t id = 0; id < node_count; ++id)
      t.offsets_[id + 1] += t.offsets_[id];
    t.links_.resize(total);
    std::vector<std::uint32_t> cursor(t.offsets_.begin(),
                                      t.offsets_.end() - 1);
    for (const auto& buf : bufs)
      for (const Tagged& e : buf) t.links_[cursor[e.node]++] = e.link;
    return t;
  }

  /// Number of nodes covered (rows).
  [[nodiscard]] std::size_t size() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// The parent links recorded by node `id`, in record order.
  [[nodiscard]] std::span<const ParentLink> operator[](std::size_t id) const {
    if (id + 1 >= offsets_.size())
      throw std::out_of_range("ParentTable::operator[]");
    return std::span<const ParentLink>(links_.data() + offsets_[id],
                                       offsets_[id + 1] - offsets_[id]);
  }

  // Snapshot accessors (core/coordinator.cpp, section tag "TRE2").
  [[nodiscard]] const std::vector<std::uint32_t>& offsets() const noexcept {
    return offsets_;
  }
  [[nodiscard]] const std::vector<ParentLink>& links() const noexcept {
    return links_;
  }
  void restore(std::vector<std::uint32_t> offsets,
               std::vector<ParentLink> links) {
    if (!offsets.empty() &&
        (offsets.front() != 0 || offsets.back() != links.size()))
      throw std::invalid_argument("ParentTable::restore: corrupt offsets");
    offsets_ = std::move(offsets);
    links_ = std::move(links);
  }

 private:
  std::vector<std::uint32_t> offsets_;  ///< size n+1 (empty = no nodes)
  std::vector<ParentLink> links_;
};

/// Output of the tree-formation phase.
struct TreeResult {
  std::uint64_t session{0};
  TreeMode mode{TreeMode::kTimestamp};
  Level depth_bound{0};  ///< the announced L
  std::vector<Level> level;  ///< per node; kNoLevel if unset
  ParentTable parents;       ///< per node, CSR (see ParentTable)

  [[nodiscard]] bool has_valid_level(NodeId node) const {
    const Level l = level[node.value];
    return l >= 1 && l <= depth_bound;
  }
};

/// Dense node-major value storage for per-node, per-instance readings and
/// weights: one flat row of `instances` entries per node (8 B each) instead
/// of a vector-of-vectors (24 B header + a heap block per node). The one
/// input type of every coordinator entry point and of the phase drivers.
struct ValueTable {
  std::uint32_t node_count{0};
  std::uint32_t instances{0};
  std::vector<std::int64_t> data;  ///< node_count * instances, node-major

  ValueTable() = default;
  ValueTable(std::uint32_t n, std::uint32_t inst, std::int64_t fill)
      : node_count(n),
        instances(inst),
        data(static_cast<std::size_t>(n) * inst, fill) {}

  /// Whether the table is `nodes` × `width`, data included: the shape the
  /// coordinator and the phase drivers check before any work, so a table
  /// whose fields disagree is rejected instead of read past its end.
  [[nodiscard]] bool has_shape(std::uint32_t nodes,
                               std::uint32_t width) const noexcept {
    return node_count == nodes && instances == width &&
           data.size() == static_cast<std::size_t>(nodes) * width;
  }

  [[nodiscard]] std::span<const std::int64_t> row(std::uint32_t id) const {
    return std::span<const std::int64_t>(
        data.data() + static_cast<std::size_t>(id) * instances, instances);
  }
  [[nodiscard]] std::span<std::int64_t> row(std::uint32_t id) {
    return std::span<std::int64_t>(
        data.data() + static_cast<std::size_t>(id) * instances, instances);
  }
};

/// Parameters of one aggregation execution.
struct AggConfig {
  std::uint32_t instances{1};  ///< parallel MIN instances (synopses)
  std::uint64_t nonce{0};      ///< fresh per execution (Section IV-B)
  bool multipath{false};       ///< Section IV-D ring aggregation
};

}  // namespace vmat
