#include "campaign/strategy.h"

#include <algorithm>
#include <cstdlib>

namespace vmat::campaign {
namespace {

/// Deepest tree level any malicious sensor holds on `tree` (0 if none made
/// it onto the tree).
Level deepest_malicious_level(const AdversaryView& view,
                              const TreeResult* tree) {
  Level deepest = 0;
  if (tree == nullptr) return deepest;
  for (NodeId m : view.malicious()) {
    const Level level = tree->level[m.value];
    if (level != kNoLevel) deepest = std::max(deepest, level);
  }
  return deepest;
}

}  // namespace

TriggerState trigger_state(const AdversaryView& view, const AggCtx& ctx) {
  TriggerState state = view.trigger_state(TracePhase::kAggregation, ctx.slot);
  state.deepest_level = deepest_malicious_level(view, ctx.tree);
  for (NodeId m : view.malicious()) {
    const auto& received = (*ctx.malicious_received)[m.value];
    state.frames_seen += received.size();
    for (const ReceivedRecord& r : received)
      state.min_seen = std::min(state.min_seen, r.msg.value);
  }
  return state;
}

TriggerState trigger_state(const AdversaryView& view, const ConfCtx& ctx) {
  TriggerState state = view.trigger_state(TracePhase::kConfirmation, ctx.slot);
  state.deepest_level = deepest_malicious_level(view, ctx.tree);
  for (const Reading minimum : *ctx.broadcast_minima)
    if (minimum != kInfinity) state.min_seen = std::min(state.min_seen, minimum);
  for (NodeId m : view.malicious()) {
    const auto& vetoes = (*ctx.malicious_vetoes)[m.value];
    state.frames_seen += vetoes.size();
    for (const VetoMsg& veto : vetoes)
      state.min_seen = std::min(state.min_seen, veto.value);
  }
  return state;
}

PredicatedStrategy::PredicatedStrategy(AttackPolicy policy,
                                       AttackPredicate when,
                                       std::uint64_t seed)
    : PolicyStrategy(policy.lie, seed),
      policy_(policy),
      when_(std::move(when)) {}

void PredicatedStrategy::on_agg_slot(AdversaryView& view, const AggCtx& ctx) {
  if (policy_.agg == AggAction::kSilentDrop) return;
  if (!when_.evaluate(trigger_state(view, ctx))) return;
  switch (policy_.agg) {
    case AggAction::kSilentDrop:
      return;
    case AggAction::kForwardMax:
      for (NodeId m : view.malicious()) forward_max_instead_of_min(view, ctx, m);
      return;
    case AggAction::kInjectJunk:
      for (NodeId m : view.malicious()) {
        NodeId claimed = m;
        if (policy_.frame_honest_origin) {
          for (NodeId v : view.net().topology().neighbors(m)) {
            if (!view.is_malicious(v) && v != kBaseStation) {
              claimed = v;
              break;
            }
          }
        }
        inject_junk_min(view, ctx, m, claimed);
      }
      return;
  }
}

void PredicatedStrategy::on_conf_slot(AdversaryView& view, const ConfCtx& ctx) {
  if (policy_.conf == ConfAction::kNone) return;
  if (!when_.evaluate(trigger_state(view, ctx))) return;
  switch (policy_.conf) {
    case ConfAction::kNone:
      return;
    case ConfAction::kChokeVeto:
      for (NodeId m : view.malicious()) inject_spurious_veto(view, ctx, m, m);
      return;
    case ConfAction::kSelfVeto: {
      // A self-veto only makes sense against a broadcast minimum larger
      // than the hidden reading (Theorem 2's "legitimate veto" case).
      if ((*ctx.broadcast_minima)[0] <= policy_.self_veto_value) return;
      NodeId vetoer = *view.malicious().begin();
      for (NodeId m : view.malicious())
        if (m < vetoer) vetoer = m;
      inject_valid_self_veto(view, ctx, vetoer, policy_.self_veto_value);
      return;
    }
  }
}

namespace {

template <typename T>
struct EnumName {
  T value;
  std::string_view name;
};

constexpr EnumName<AggAction> kAggNames[] = {
    {AggAction::kSilentDrop, "silent"},
    {AggAction::kForwardMax, "maxfwd"},
    {AggAction::kInjectJunk, "junk"},
};
constexpr EnumName<ConfAction> kConfNames[] = {
    {ConfAction::kNone, "none"},
    {ConfAction::kChokeVeto, "choke"},
    {ConfAction::kSelfVeto, "selfveto"},
};
constexpr EnumName<LiePolicy> kLieNames[] = {
    {LiePolicy::kDenyAll, "deny"},
    {LiePolicy::kAdmitAll, "admit"},
    {LiePolicy::kRandom, "random"},
};
constexpr EnumName<NamedAttack> kAttackNames[] = {
    {NamedAttack::kSilent, "silent"},
    {NamedAttack::kDrop, "drop"},
    {NamedAttack::kJunk, "junk"},
    {NamedAttack::kChoke, "choke"},
    {NamedAttack::kSelfVeto, "selfveto"},
};

template <typename T, std::size_t N>
std::string_view name_of(const EnumName<T> (&table)[N], T value) {
  for (const auto& entry : table)
    if (entry.value == value) return entry.name;
  return table[0].name;
}

template <typename T, std::size_t N>
bool value_of(const EnumName<T> (&table)[N], std::string_view name, T& out) {
  for (const auto& entry : table) {
    if (entry.name != name) continue;
    out = entry.value;
    return true;
  }
  return false;
}

}  // namespace

std::string to_text(const AttackPolicy& policy) {
  std::string out = "agg:";
  out += name_of(kAggNames, policy.agg);
  out += ",conf:";
  out += name_of(kConfNames, policy.conf);
  out += ",lie:";
  out += name_of(kLieNames, policy.lie);
  out += ",frame:";
  out += policy.frame_honest_origin ? '1' : '0';
  out += ",veto:";
  out += std::to_string(policy.self_veto_value);
  return out;
}

Expected<AttackPolicy> policy_from_text(std::string_view text) {
  AttackPolicy policy;
  auto fail = [](const std::string& what) {
    return Error{ErrorCode::kInvalidArgument, "policy parse: " + what};
  };
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string_view field = text.substr(pos, comma - pos);
    const std::size_t colon = field.find(':');
    if (colon == std::string_view::npos)
      return fail("expected key:value, got '" + std::string(field) + "'");
    const std::string_view key = field.substr(0, colon);
    const std::string_view value = field.substr(colon + 1);
    bool ok = true;
    if (key == "agg") {
      ok = value_of(kAggNames, value, policy.agg);
    } else if (key == "conf") {
      ok = value_of(kConfNames, value, policy.conf);
    } else if (key == "lie") {
      ok = value_of(kLieNames, value, policy.lie);
    } else if (key == "frame") {
      ok = value == "0" || value == "1";
      policy.frame_honest_origin = value == "1";
    } else if (key == "veto") {
      char* end = nullptr;
      const std::string digits(value);
      policy.self_veto_value = std::strtoll(digits.c_str(), &end, 10);
      ok = end != nullptr && *end == '\0' && !digits.empty();
    } else {
      return fail("unknown field '" + std::string(key) + "'");
    }
    if (!ok)
      return fail("bad value '" + std::string(value) + "' for field '" +
                  std::string(key) + "'");
    if (comma == text.size()) break;
    pos = comma + 1;
  }
  return policy;
}

std::unique_ptr<PredicatedStrategy> Genome::strategy() const {
  return std::make_unique<PredicatedStrategy>(policy, when);
}

Genome named_genome(NamedAttack attack, LiePolicy lie) {
  // The first-strike attacks race honest traffic in slot 1 only.
  const AttackPredicate first_slot =
      AttackPredicate::slot_at_least(1) && !AttackPredicate::slot_at_least(2);
  Genome genome;
  genome.policy.lie = lie;
  switch (attack) {
    case NamedAttack::kSilent:
      break;
    case NamedAttack::kDrop:
      genome.policy.agg = AggAction::kForwardMax;
      break;
    case NamedAttack::kJunk:
      genome.policy.agg = AggAction::kInjectJunk;
      genome.when = first_slot;
      break;
    case NamedAttack::kChoke:
      genome.policy.conf = ConfAction::kChokeVeto;
      genome.when = first_slot;
      break;
    case NamedAttack::kSelfVeto:
      genome.policy.conf = ConfAction::kSelfVeto;
      genome.policy.self_veto_value = 1;
      genome.when = first_slot;
      break;
  }
  return genome;
}

std::string_view to_string(NamedAttack attack) {
  return name_of(kAttackNames, attack);
}

Expected<NamedAttack> named_attack(std::string_view name) {
  NamedAttack attack{};
  if (value_of(kAttackNames, name, attack)) return attack;
  return Error{ErrorCode::kInvalidArgument,
               "unknown attack '" + std::string(name) +
                   "' (expected silent, drop, junk, choke or selfveto)"};
}

}  // namespace vmat::campaign
