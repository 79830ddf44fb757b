#include "sim/topology.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>

#include "keys/predistribution.h"
#include "util/random.h"

namespace vmat {

Topology::Topology(std::uint32_t node_count, std::span<const Edge> edges)
    : node_count_(node_count), offsets_(std::size_t{node_count} + 1, 0) {
  if (node_count == 0) throw std::invalid_argument("Topology: zero nodes");
  // Count each node's degree, prefix-sum the counts into row offsets, then
  // scatter the edges in list order: every row lists its edges in the order
  // the list names them.
  for (const Edge& e : edges) {
    if (e.a.value >= node_count || e.b.value >= node_count)
      throw std::out_of_range("Topology: edge endpoint out of range");
    if (e.a == e.b) throw std::invalid_argument("Topology: self-loop");
    ++offsets_[e.a.value + 1];
    ++offsets_[e.b.value + 1];
  }
  for (std::uint32_t id = 0; id < node_count; ++id)
    offsets_[id + 1] += offsets_[id];
  neighbors_.resize(offsets_[node_count]);
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const Edge& e : edges) {
    neighbors_[cursor[e.a.value]++] = e.b;
    neighbors_[cursor[e.b.value]++] = e.a;
  }
  // A repeated edge repeats a neighbor within a row. cursor now serves as
  // the row each neighbor was last seen in (id + 1; 0 = not yet).
  std::fill(cursor.begin(), cursor.end(), 0);
  for (std::uint32_t id = 0; id < node_count; ++id) {
    for (const NodeId v : neighbors(NodeId{id})) {
      if (cursor[v.value] == id + 1)
        throw std::invalid_argument("Topology: repeated edge");
      cursor[v.value] = id + 1;
    }
  }
}

bool Topology::has_edge(NodeId a, NodeId b) const noexcept {
  return directed_edge_slot(a, b) != kNoDirectedEdge;
}

std::uint32_t Topology::directed_edge_slot(NodeId from,
                                           NodeId to) const noexcept {
  if (from.value >= node_count_) return kNoDirectedEdge;
  const std::uint32_t begin = offsets_[from.value];
  const std::uint32_t end = offsets_[from.value + 1];
  for (std::uint32_t i = begin; i < end; ++i)
    if (neighbors_[i] == to) return i;
  return kNoDirectedEdge;
}

std::span<const NodeId> Topology::neighbors(NodeId node) const {
  if (node.value >= node_count_)
    throw std::out_of_range("Topology::neighbors");
  return std::span<const NodeId>(
      neighbors_.data() + offsets_[node.value],
      offsets_[node.value + 1] - offsets_[node.value]);
}

std::size_t Topology::degree(NodeId node) const {
  return neighbors(node).size();
}

std::vector<Level> Topology::bfs_depth(
    const std::unordered_set<NodeId>& excluded) const {
  std::vector<Level> depth(node_count_, kNoLevel);
  if (excluded.contains(kBaseStation)) return depth;
  std::deque<NodeId> queue;
  depth[kBaseStation.value] = 0;
  queue.push_back(kBaseStation);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : neighbors(u)) {
      if (excluded.contains(v) || depth[v.value] != kNoLevel) continue;
      depth[v.value] = depth[u.value] + 1;
      queue.push_back(v);
    }
  }
  return depth;
}

Level Topology::depth(const std::unordered_set<NodeId>& excluded) const {
  Level max_depth = 0;
  for (Level d : bfs_depth(excluded)) max_depth = std::max(max_depth, d);
  return max_depth;
}

bool Topology::connected(const std::unordered_set<NodeId>& excluded) const {
  const auto depth = bfs_depth(excluded);
  for (std::uint32_t id = 0; id < node_count_; ++id) {
    if (excluded.contains(NodeId{id})) continue;
    if (depth[id] == kNoLevel) return false;
  }
  return true;
}

Topology Topology::secure_subgraph(const Predistribution& keys) const {
  std::vector<Edge> edges;
  for (std::uint32_t id = 0; id < node_count_; ++id) {
    for (NodeId v : neighbors(NodeId{id})) {
      if (v.value < id) continue;  // each undirected edge once
      if (keys.edge_key(NodeId{id}, v).has_value())
        edges.push_back({NodeId{id}, v});
    }
  }
  return Topology(node_count_, edges);
}

Topology Topology::line(std::uint32_t n) {
  std::vector<Edge> edges;
  for (std::uint32_t i = 0; i + 1 < n; ++i)
    edges.push_back({NodeId{i}, NodeId{i + 1}});
  return Topology(n, edges);
}

Topology Topology::grid(std::uint32_t width, std::uint32_t height) {
  if (width == 0 || height == 0)
    throw std::invalid_argument("Topology::grid: empty");
  const auto id = [width](std::uint32_t x, std::uint32_t y) {
    return NodeId{y * width + x};
  };
  std::vector<Edge> edges;
  for (std::uint32_t y = 0; y < height; ++y) {
    for (std::uint32_t x = 0; x < width; ++x) {
      if (x + 1 < width) edges.push_back({id(x, y), id(x + 1, y)});
      if (y + 1 < height) edges.push_back({id(x, y), id(x, y + 1)});
    }
  }
  return Topology(width * height, edges);
}

Topology Topology::star_of_chains(std::uint32_t branches,
                                  std::uint32_t chain_length) {
  if (branches == 0 || chain_length == 0)
    throw std::invalid_argument("Topology::star_of_chains: empty");
  std::vector<Edge> edges;
  for (std::uint32_t b = 0; b < branches; ++b) {
    NodeId prev = kBaseStation;
    for (std::uint32_t i = 0; i < chain_length; ++i) {
      const NodeId next{1 + b * chain_length + i};
      edges.push_back({prev, next});
      prev = next;
    }
  }
  return Topology(1 + branches * chain_length, edges);
}

namespace {

/// Shared coordinate generation for both random_geometric implementations:
/// n uniform points, base station (slot 0) swapped to the node nearest the
/// unit-square center. The draw sequence is the topology's identity — both
/// edge-discovery strategies consume exactly these points.
void geometric_points(std::uint32_t n, std::uint64_t seed, int attempt,
                      std::vector<double>& x, std::vector<double>& y) {
  Rng rng(seed + static_cast<std::uint64_t>(attempt) * 0x9e3779b9ULL);
  x.resize(n);
  y.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    x[i] = rng.unit();
    y[i] = rng.unit();
  }
  std::uint32_t best = 0;
  double best_d = 2.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const double d = std::hypot(x[i] - 0.5, y[i] - 0.5);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  std::swap(x[0], x[best]);
  std::swap(y[0], y[best]);
}

/// Above this size the O(n^2) pairwise scan is the bottleneck of every
/// large bench cell; the cell-bucketed discovery produces the identical
/// graph in O(n · expected degree). The crossover is well below this in
/// practice; the brute scan is kept for small graphs only because its
/// simplicity anchors the equivalence test
/// (Topology.RandomGeometricCellsMatchesPairwise).
constexpr std::uint32_t kGeometricCellThreshold = 2048;

}  // namespace

double Topology::connected_radius(std::uint32_t n) {
  const double root = std::sqrt(static_cast<double>(n));
  if (n <= 10000) return 1.8 / root;
  const double threshold =
      std::sqrt(std::log(static_cast<double>(n)) / 3.14159265358979323846);
  return std::max(1.8, 1.15 * threshold) / root;
}

Topology Topology::random_geometric(std::uint32_t n, double radius,
                                    std::uint64_t seed, int max_attempts) {
  if (n >= kGeometricCellThreshold)
    return random_geometric_cells(n, radius, seed, max_attempts);
  std::vector<double> x, y;
  std::vector<Edge> edges;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    geometric_points(n, seed, attempt, x, y);
    edges.clear();
    const double r2 = radius * radius;
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j = i + 1; j < n; ++j) {
        const double dx = x[i] - x[j];
        const double dy = y[i] - y[j];
        if (dx * dx + dy * dy <= r2) edges.push_back({NodeId{i}, NodeId{j}});
      }
    }
    Topology t(n, edges);
    if (t.connected()) return t;
  }
  throw std::runtime_error(
      "Topology::random_geometric: could not generate a connected graph; "
      "increase radius");
}

Topology Topology::random_geometric_cells(std::uint32_t n, double radius,
                                          std::uint64_t seed,
                                          int max_attempts) {
  std::vector<double> x, y;
  std::vector<Edge> edges;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    geometric_points(n, seed, attempt, x, y);

    // Bucket nodes into a grid of radius-sized cells: every neighbor of a
    // point lies in its own or one of the 8 adjacent cells.
    const double r2 = radius * radius;
    const auto grid = static_cast<std::uint32_t>(std::clamp(
        std::floor(1.0 / std::max(radius, 1e-9)), 1.0, 4096.0));
    const auto cell_of = [&](std::uint32_t i) {
      const auto cx = std::min(
          grid - 1, static_cast<std::uint32_t>(x[i] * grid));
      const auto cy = std::min(
          grid - 1, static_cast<std::uint32_t>(y[i] * grid));
      return cy * grid + cx;
    };
    // Counting sort of node ids by cell; ids within a cell stay ascending.
    std::vector<std::uint32_t> cell_begin(
        static_cast<std::size_t>(grid) * grid + 1, 0);
    for (std::uint32_t i = 0; i < n; ++i) ++cell_begin[cell_of(i) + 1];
    for (std::size_t c = 1; c < cell_begin.size(); ++c)
      cell_begin[c] += cell_begin[c - 1];
    std::vector<std::uint32_t> by_cell(n);
    {
      std::vector<std::uint32_t> cursor(cell_begin.begin(),
                                        cell_begin.end() - 1);
      for (std::uint32_t i = 0; i < n; ++i) by_cell[cursor[cell_of(i)]++] = i;
    }

    edges.clear();
    std::vector<std::uint32_t> candidates;
    for (std::uint32_t i = 0; i < n; ++i) {
      // Gather every j > i within range from the 9 surrounding cells, then
      // list edges in ascending j — the exact edge order the pairwise scan
      // produces, so neighbor rows (and everything derived from their
      // order) are bit-identical.
      candidates.clear();
      const auto c = cell_of(i);
      const std::uint32_t cx = c % grid;
      const std::uint32_t cy = c / grid;
      for (std::uint32_t dy = cy == 0 ? 0 : cy - 1;
           dy <= std::min(grid - 1, cy + 1); ++dy) {
        for (std::uint32_t dx = cx == 0 ? 0 : cx - 1;
             dx <= std::min(grid - 1, cx + 1); ++dx) {
          const std::uint32_t cell = dy * grid + dx;
          for (std::uint32_t k = cell_begin[cell]; k < cell_begin[cell + 1];
               ++k) {
            const std::uint32_t j = by_cell[k];
            if (j <= i) continue;
            const double ddx = x[i] - x[j];
            const double ddy = y[i] - y[j];
            if (ddx * ddx + ddy * ddy <= r2) candidates.push_back(j);
          }
        }
      }
      std::sort(candidates.begin(), candidates.end());
      for (std::uint32_t j : candidates)
        edges.push_back({NodeId{i}, NodeId{j}});
    }
    Topology t(n, edges);
    if (t.connected()) return t;
  }
  throw std::runtime_error(
      "Topology::random_geometric: could not generate a connected graph; "
      "increase radius");
}

}  // namespace vmat
