// SimulationSpec — the one validated description of a VMAT deployment.
//
// Everything a simulation needs (topology shape, key predistribution,
// fabric physics, protocol knobs) lives in one builder-style spec:
//
//   vmat::SimulationSpec spec;
//   spec.nodes(400).accuracy(0.35, 0.1).revocation_threshold(27).seed(7);
//   vmat::Network net(spec);
//   vmat::VmatCoordinator coordinator(&net, &adversary, spec);
//   vmat::Engine engine(&coordinator);
//
// validate() returns *typed* errors (util/error.h) for every out-of-domain
// field instead of throwing on first contact; the Network / VmatCoordinator
// / Engine constructors accept a spec directly and fail fast (with the
// joined validation report) if it is invalid.
//
// The spec subsumes the former per-layer config structs — NetworkSpec,
// CoordinatorSpec, KeyMaterialSpec, TreePhaseParams are still the internal
// section types, but public call sites should build one SimulationSpec
// (including its attack() section) and hand it around.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>
#include <vector>

#include "core/coordinator.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "spec/attack_spec.h"
#include "util/error.h"

namespace vmat {

enum class TopologyKind : std::uint8_t { kGeometric, kGrid, kLine };

[[nodiscard]] const char* to_string(TopologyKind kind) noexcept;
/// Parse "geometric" / "grid" / "line"; nullopt for anything else.
[[nodiscard]] std::optional<TopologyKind> topology_kind_from(
    std::string_view name) noexcept;

class SimulationSpec {
 public:
  // --- deployment (builder-style; every setter returns *this) ---

  /// Sensor count including the base station (node 0). Grid topologies
  /// require a perfect square.
  SimulationSpec& nodes(std::uint32_t n) { nodes_ = n; return *this; }
  SimulationSpec& topology(TopologyKind kind) { topology_ = kind; return *this; }
  /// Geometric connectivity: radius = factor / sqrt(nodes). The default
  /// 1.8 gives the sparse deployments the paper's figures use; ~2.4 is a
  /// denser, better-connected field.
  SimulationSpec& radius_factor(double factor) { radius_factor_ = factor; return *this; }
  /// Key predistribution pool size u and ring size r.
  SimulationSpec& key_pool(std::uint32_t pool_size, std::uint32_t ring_size) {
    keys_.pool_size = pool_size;
    keys_.ring_size = ring_size;
    return *this;
  }
  /// θ for full-sensor revocation; 0 disables it.
  SimulationSpec& revocation_threshold(std::uint32_t theta) { theta_ = theta; return *this; }
  SimulationSpec& capacity_per_slot(std::size_t frames) { capacity_ = frames; return *this; }
  /// Per-frame loss probability in [0, 1).
  SimulationSpec& loss(double probability) { loss_ = probability; return *this; }
  /// Blind copies per logical transmission (>= 1).
  SimulationSpec& redundancy(std::uint32_t copies) { redundancy_ = copies; return *this; }

  // --- protocol ---

  /// Announced depth bound L; 0 = use the physical topology depth.
  SimulationSpec& depth_bound(Level bound) { depth_bound_ = bound; return *this; }
  SimulationSpec& tree_mode(TreeMode mode) { tree_mode_ = mode; return *this; }
  SimulationSpec& multipath(bool on) { multipath_ = on; return *this; }
  SimulationSpec& slotted_sof(bool on) { slotted_sof_ = on; return *this; }
  /// Synopsis instances m for COUNT/SUM (>= 1). Overridden by accuracy().
  SimulationSpec& instances(std::uint32_t m) {
    instances_ = m;
    epsilon_.reset();
    delta_.reset();
    return *this;
  }
  /// Pick instances as instances_for(epsilon, delta): an (ε,δ)-approximate
  /// COUNT/SUM. Overrides instances().
  SimulationSpec& accuracy(double epsilon, double delta) {
    epsilon_ = epsilon;
    delta_ = delta;
    return *this;
  }
  SimulationSpec& predicate_mode(PredicateTestMode mode) { predicate_mode_ = mode; return *this; }
  /// Master seed: topology placement, key material, nonces.
  SimulationSpec& seed(std::uint64_t s) { seed_ = s; return *this; }

  /// The declarative adversary section (spec/attack_spec.h). First call
  /// creates it; chain its builder directly:
  ///   spec.attack().compromised(4).policy({...}).when(predicate);
  AttackSpec& attack() {
    if (!attack_.has_value()) attack_.emplace();
    return *attack_;
  }
  [[nodiscard]] bool has_attack() const noexcept { return attack_.has_value(); }
  /// The attack section, or nullptr when none was declared.
  [[nodiscard]] const AttackSpec* attack_section() const noexcept {
    return attack_.has_value() ? &*attack_ : nullptr;
  }
  /// Place the declared adversary on `net` (kUnavailable error when no
  /// attack section was declared; see AttackSpec::build otherwise).
  [[nodiscard]] Expected<std::unique_ptr<Adversary>> build_adversary(
      Network& net) const;

  // --- getters ---

  [[nodiscard]] std::uint32_t nodes() const noexcept { return nodes_; }
  [[nodiscard]] TopologyKind topology() const noexcept { return topology_; }
  [[nodiscard]] double radius_factor() const noexcept { return radius_factor_; }
  [[nodiscard]] const KeyMaterialSpec& key_material() const noexcept { return keys_; }
  [[nodiscard]] std::uint32_t revocation_threshold() const noexcept { return theta_; }
  [[nodiscard]] double loss() const noexcept { return loss_; }
  [[nodiscard]] std::uint32_t redundancy() const noexcept { return redundancy_; }
  [[nodiscard]] Level depth_bound() const noexcept { return depth_bound_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  /// Effective instance count: instances_for(ε,δ) when accuracy() was
  /// called (0 if those parameters are out of domain), instances() otherwise.
  [[nodiscard]] std::uint32_t effective_instances() const noexcept;

  /// Every out-of-domain field, as typed errors. Empty = valid.
  [[nodiscard]] std::vector<Error> validate() const;
  /// First validation error, or success.
  [[nodiscard]] Status check() const;

  // --- section views (the internal per-layer config types) ---

  /// Build the physical topology this spec describes. The spec must be
  /// valid (throws std::invalid_argument otherwise).
  [[nodiscard]] Topology build_topology() const;
  [[nodiscard]] NetworkSpec network() const noexcept;
  [[nodiscard]] CoordinatorSpec coordinator() const noexcept;

 private:
  std::uint32_t nodes_{100};
  TopologyKind topology_{TopologyKind::kGeometric};
  double radius_factor_{1.8};
  KeyMaterialSpec keys_{};
  std::uint32_t theta_{0};
  std::size_t capacity_{std::numeric_limits<std::size_t>::max()};
  double loss_{0.0};
  std::uint32_t redundancy_{1};
  Level depth_bound_{0};
  TreeMode tree_mode_{TreeMode::kTimestamp};
  bool multipath_{false};
  bool slotted_sof_{true};
  std::uint32_t instances_{1};
  std::optional<double> epsilon_;
  std::optional<double> delta_;
  PredicateTestMode predicate_mode_{PredicateTestMode::kReachability};
  std::uint64_t seed_{0x5eed};
  std::optional<AttackSpec> attack_;
};

}  // namespace vmat
