// Physical network topologies for the simulator.
//
// A topology is an undirected graph over nodes 0..n-1; node 0 is the base
// station. It is the fixed part of a deployment: built once from an edge
// list, in CSR form, and never changed (revocation changes which edge keys
// are usable, not which radio links exist). Generators cover the shapes
// used by the paper's discussion and our benches: random geometric graphs
// (the standard sensor deployment model), grids, lines (worst-case depth),
// and a star-of-chains (controlled L with controlled branching).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "util/ids.h"

namespace vmat {

class Predistribution;

/// One undirected edge {a, b}; a Topology is built from a list of them.
struct Edge {
  NodeId a;
  NodeId b;
};

/// The physical deployment graph, fixed at construction. It is stored once,
/// in CSR form: one flat neighbor array plus per-node row offsets, so every
/// row is a contiguous span and a directed edge has a dense id (its index in
/// the flat array). Nothing mutates a Topology after construction, so any
/// number of threads may read one concurrently.
class Topology {
 public:
  /// Build the graph in one pass over `edges`. Each node's neighbor row
  /// keeps list order: edge {a, b} appends b to a's row and a to b's. That
  /// order is the protocol's send order, so every digest depends on it.
  /// Throws std::invalid_argument for zero nodes, a self-loop or a repeated
  /// edge (either orientation), and std::out_of_range for an endpoint
  /// outside [0, node_count).
  Topology(std::uint32_t node_count, std::span<const Edge> edges);

  [[nodiscard]] std::uint32_t node_count() const noexcept {
    return node_count_;
  }

  [[nodiscard]] bool has_edge(NodeId a, NodeId b) const noexcept;
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId node) const;
  [[nodiscard]] std::size_t degree(NodeId node) const;
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return neighbors_.size() / 2;
  }

  /// No-op: the CSR form is the only one, so there is nothing to release.
  /// Kept because the benchmark's clean-50k workload still calls it.
  void shed_adjacency() const noexcept {}

  /// Sentinel for "no such directed edge" from directed_edge_slot().
  static constexpr std::uint32_t kNoDirectedEdge = 0xffffffffu;

  /// Position of `to` within `from`'s neighbor row, as an index into the
  /// flat neighbor array — a stable dense id for the directed edge
  /// from→to that flat per-edge side tables (e.g. the network's edge-key
  /// slots) can index by. Returns kNoDirectedEdge when the edge is absent.
  /// The scan is linear over one row: sensor degrees are small, so this
  /// beats hashing an edge pair.
  [[nodiscard]] std::uint32_t directed_edge_slot(NodeId from,
                                                 NodeId to) const noexcept;

  /// Size of the flat neighbor array (2x undirected edge count); the
  /// domain of directed_edge_slot().
  [[nodiscard]] std::size_t directed_edge_count() const noexcept {
    return neighbors_.size();
  }

  /// BFS depth of every node from the base station, skipping nodes in
  /// `excluded` (used for "depth excluding all malicious sensors",
  /// Section III). Unreachable or excluded nodes get kNoLevel.
  [[nodiscard]] std::vector<Level> bfs_depth(
      const std::unordered_set<NodeId>& excluded = {}) const;

  /// Maximum finite BFS depth — the paper's L (excluding `excluded`).
  [[nodiscard]] Level depth(
      const std::unordered_set<NodeId>& excluded = {}) const;

  /// True if every non-excluded node is reachable from the base station
  /// through non-excluded nodes.
  [[nodiscard]] bool connected(
      const std::unordered_set<NodeId>& excluded = {}) const;

  /// The subgraph keeping only edges whose endpoints share a pool key —
  /// the communicable ("secure") topology under key predistribution.
  [[nodiscard]] Topology secure_subgraph(const Predistribution& keys) const;

  // --- generators ---

  /// Chain 0-1-2-...-(n-1): depth n-1, the worst case for L.
  [[nodiscard]] static Topology line(std::uint32_t n);

  /// width x height grid; base station at a corner.
  [[nodiscard]] static Topology grid(std::uint32_t width,
                                     std::uint32_t height);

  /// `branches` chains of length `chain_length` all rooted at the base
  /// station: L = chain_length with n = 1 + branches * chain_length.
  [[nodiscard]] static Topology star_of_chains(std::uint32_t branches,
                                               std::uint32_t chain_length);

  /// n nodes uniform in the unit square, edge iff distance <= radius; the
  /// base station is the node closest to the center. Retries seeds until
  /// connected (throws after `max_attempts`).
  [[nodiscard]] static Topology random_geometric(std::uint32_t n,
                                                 double radius,
                                                 std::uint64_t seed,
                                                 int max_attempts = 64);

  /// Connectivity-safe radius for an n-node random geometric deployment.
  /// Up to n = 10^4 this is the historical sparse figure-scale radius
  /// 1.8/sqrt(n) (every committed bench digest at those sizes was measured
  /// with it). Above that, 1.8 falls below the Θ(sqrt(ln n / n))
  /// connectivity threshold of random geometric graphs and no amount of
  /// seed-retrying helps, so the factor widens to 1.15·sqrt(ln n / π) —
  /// ~10% above the threshold, mean degree growing ~ln n as connected RGGs
  /// inherently require.
  [[nodiscard]] static double connected_radius(std::uint32_t n);

  /// Spatial-grid implementation of random_geometric(): buckets nodes into
  /// radius-sized cells so edge discovery is O(n · expected degree) instead
  /// of O(n^2). Produces the *identical* topology (same coordinates, same
  /// edge set, same adjacency order) as the pairwise scan for any input —
  /// random_geometric() delegates here at and above 2,048 nodes; exposed so
  /// Topology.RandomGeometricCellsMatchesPairwise can check the equivalence.
  [[nodiscard]] static Topology random_geometric_cells(std::uint32_t n,
                                                       double radius,
                                                       std::uint64_t seed,
                                                       int max_attempts = 64);

 private:
  std::uint32_t node_count_{0};
  // Row `id` is neighbors_[offsets_[id] .. offsets_[id + 1]).
  std::vector<NodeId> neighbors_;
  std::vector<std::uint32_t> offsets_;
};

}  // namespace vmat
