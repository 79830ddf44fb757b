#include "spec/attack_spec.h"

#include <exception>

#include "sim/network.h"

namespace vmat {

std::vector<Error> AttackSpec::validate(std::uint32_t nodes) const {
  std::vector<Error> errors;
  if (compromised_ == 0)
    errors.push_back({ErrorCode::kInvalidSpec,
                      "attack.compromised: must compromise at least one "
                      "sensor (declare no attack section for none)"});
  if (nodes > 0 && compromised_ >= nodes)
    errors.push_back(
        {ErrorCode::kInvalidSpec,
         "attack.compromised: must leave at least the base station and one "
         "honest sensor (got " +
             std::to_string(compromised_) + " of " + std::to_string(nodes) +
             " nodes)"});
  return errors;
}

Expected<std::unique_ptr<Adversary>> AttackSpec::build(Network& net) const {
  if (std::vector<Error> errors = validate(net.node_count()); !errors.empty())
    return errors.front();
  try {
    std::unordered_set<NodeId> malicious =
        choose_malicious(net.topology(), compromised_, placement_seed_);
    return std::make_unique<Adversary>(
        &net, std::move(malicious),
        std::make_unique<campaign::PredicatedStrategy>(policy_, when_));
  } catch (const std::exception& e) {
    return Error{ErrorCode::kInvalidSpec,
                 std::string("attack placement failed: ") + e.what()};
  }
}

}  // namespace vmat
