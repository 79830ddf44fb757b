// AttackSpec — the declarative adversary section of a SimulationSpec.
//
//   vmat::SimulationSpec spec;
//   spec.nodes(100).seed(1);
//   const vmat::campaign::Genome junk =
//       vmat::campaign::named_genome(vmat::campaign::NamedAttack::kJunk);
//   spec.attack().compromised(4).policy(junk.policy).when(junk.when);
//   vmat::Network net(spec);
//   vmat::Expected<std::unique_ptr<vmat::Adversary>> adversary =
//       spec.attack_section()->build(net);
//
// Malicious placement (choose_malicious under placement_seed, keeping the
// honest subgraph connected), the action policy, and the trigger predicate
// are all data; validate() reports typed errors instead of throwing. The
// strategies no genome expresses (attack/strategies.h) are placed by
// constructing an Adversary directly.
#pragma once

#include <memory>
#include <vector>

#include "campaign/predicate.h"
#include "campaign/strategy.h"
#include "util/error.h"

namespace vmat {

class AttackSpec {
 public:
  // --- builder (every setter returns *this) ---

  /// Compromised sensor count, in [1, nodes).
  AttackSpec& compromised(std::uint32_t count) {
    compromised_ = count;
    return *this;
  }
  /// Seed for malicious placement (choose_malicious).
  AttackSpec& placement_seed(std::uint64_t seed) {
    placement_seed_ = seed;
    return *this;
  }
  /// The action genome (what the compromised set does when triggered).
  AttackSpec& policy(const campaign::AttackPolicy& policy) {
    policy_ = policy;
    return *this;
  }
  /// The trigger predicate (when it does it). Default: always.
  AttackSpec& when(campaign::AttackPredicate predicate) {
    when_ = std::move(predicate);
    return *this;
  }

  // --- getters ---

  [[nodiscard]] std::uint32_t compromised() const noexcept {
    return compromised_;
  }
  [[nodiscard]] std::uint64_t placement_seed() const noexcept {
    return placement_seed_;
  }
  [[nodiscard]] const campaign::AttackPolicy& policy() const noexcept {
    return policy_;
  }
  [[nodiscard]] const campaign::AttackPredicate& when() const noexcept {
    return when_;
  }

  /// Typed validation against the deployment's sensor count. Empty = valid.
  [[nodiscard]] std::vector<Error> validate(std::uint32_t nodes) const;

  /// Place the adversary on `net`: choose_malicious placement + a
  /// PredicatedStrategy running (policy, when). Returns a typed error when
  /// the spec is invalid for this deployment or no connected placement
  /// exists.
  [[nodiscard]] Expected<std::unique_ptr<Adversary>> build(Network& net) const;

  friend bool operator==(const AttackSpec&, const AttackSpec&) = default;

 private:
  std::uint32_t compromised_{1};
  std::uint64_t placement_seed_{17};
  campaign::AttackPolicy policy_{};
  campaign::AttackPredicate when_{};
};

}  // namespace vmat
