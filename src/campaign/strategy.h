// AttackPolicy × AttackPredicate — attack strategies as data.
//
// AttackPolicy is the action genome: WHAT the compromised set does in each
// query phase, drawn from the shared attack building blocks
// (attack/strategies.h). AttackPredicate (campaign/predicate.h) is WHEN it
// does it. PredicatedStrategy glues the two behind the ordinary
// AdversaryStrategy hook interface, so one serializable (policy, predicate,
// seed) triple is an attack — what the campaign fuzzer mutates and the
// corpus replays. Every named attack of the paper is such a Genome.
//
// NamedAttack is the one map from an attack's name to its behaviour:
// named_genome() turns "silent", "drop", "junk", "choke" or "selfveto" into
// its genome. Behaviour no genome expresses (tree-frame forging, per-slot
// coin flips, malformed frames) stays in the hand-written strategies of
// attack/strategies.h. Declarative call sites place a genome through
// SimulationSpec::attack() (spec/attack_spec.h); see DESIGN.md "Campaign
// search & predicates".
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "attack/strategies.h"
#include "campaign/predicate.h"
#include "util/error.h"

namespace vmat::campaign {

/// Aggregation-phase action once the trigger fires. Until it fires (and for
/// kSilentDrop) malicious sensors transmit nothing — the Section IV-B
/// dropping attack is the resting state of every predicated adversary.
enum class AggAction : std::uint8_t {
  kSilentDrop,  ///< never transmit (pure dropping)
  kForwardMax,  ///< forward the collected maximum instead of the minimum
  kInjectJunk,  ///< inject spurious minima with bogus MACs
};

/// Confirmation-phase (SOF) action once the trigger fires.
enum class ConfAction : std::uint8_t {
  kNone,       ///< no confirmation-phase attack
  kChokeVeto,  ///< flood spurious vetoes (Section IV-C choking)
  kSelfVeto,   ///< veto a hidden own reading with a *valid* MAC (Theorem 2)
};

/// The serializable action genome of a predicated adversary.
struct AttackPolicy {
  AggAction agg{AggAction::kSilentDrop};
  ConfAction conf{ConfAction::kNone};
  LiePolicy lie{LiePolicy::kDenyAll};
  /// kInjectJunk claims an honest neighbor as origin (framing) when true.
  bool frame_honest_origin{true};
  /// kSelfVeto: the hidden reading the malicious sensor vetoes.
  Reading self_veto_value{1};

  friend bool operator==(const AttackPolicy&, const AttackPolicy&) = default;
};

/// Compact one-token text form, e.g. "agg:junk,conf:none,lie:deny,frame:1,veto:1".
[[nodiscard]] std::string to_text(const AttackPolicy& policy);
[[nodiscard]] Expected<AttackPolicy> policy_from_text(std::string_view text);

// --- trigger-state builders (the per-phase halves of the evaluation seam;
//     AdversaryView::trigger_state fills the globally visible fields) ---

[[nodiscard]] TriggerState trigger_state(const AdversaryView& view,
                                         const AggCtx& ctx);
[[nodiscard]] TriggerState trigger_state(const AdversaryView& view,
                                         const ConfCtx& ctx);

/// An attack as data: participates honestly in tree formation (inherited —
/// the profitable play, and the behavior the shared post-formation snapshot
/// assumes), then runs `policy` in every slot whose trigger state satisfies
/// `when`.
class PredicatedStrategy final : public PolicyStrategy {
 public:
  explicit PredicatedStrategy(AttackPolicy policy,
                              AttackPredicate when = AttackPredicate::always(),
                              std::uint64_t seed = 7);

  void on_agg_slot(AdversaryView& view, const AggCtx& ctx) override;
  void on_conf_slot(AdversaryView& view, const ConfCtx& ctx) override;

  [[nodiscard]] const AttackPolicy& policy() const noexcept { return policy_; }
  [[nodiscard]] const AttackPredicate& when() const noexcept { return when_; }

 private:
  AttackPolicy policy_;
  AttackPredicate when_;
};

/// One attack: a policy plus its trigger.
struct Genome {
  AttackPolicy policy{};
  AttackPredicate when{};

  /// A fresh PredicatedStrategy running this genome (default RNG seed).
  [[nodiscard]] std::unique_ptr<PredicatedStrategy> strategy() const;
};

/// The attack families of the paper, each a policy plus its trigger.
enum class NamedAttack : std::uint8_t {
  kSilent,    ///< "silent": transmit nothing (Section IV-B dropping)
  kDrop,      ///< "drop": forward the collected maximum, not the minimum
  kJunk,      ///< "junk": spurious minima in aggregation slot 1, framing an
              ///< honest neighbor (Figure 1 step 4)
  kChoke,     ///< "choke": spurious vetoes in SOF slot 1 (Section IV-C)
  kSelfVeto,  ///< "selfveto": hide reading 1, then veto it with a valid MAC
              ///< in SOF slot 1 (Theorem 2's legitimate malicious veto)
};

/// The genome of `attack`; `lie` is how its key holders answer predicate
/// tests.
[[nodiscard]] Genome named_genome(NamedAttack attack,
                                  LiePolicy lie = LiePolicy::kDenyAll);

/// Text form: the quoted names above.
[[nodiscard]] std::string_view to_string(NamedAttack attack);
/// Inverse of to_string(); kInvalidArgument for any other name.
[[nodiscard]] Expected<NamedAttack> named_attack(std::string_view name);

}  // namespace vmat::campaign
