// Hand-written adversary strategies: the behaviour no AttackPolicy genome
// (campaign/strategy.h) expresses, plus the shared base and building blocks
// the genomes run on.
//
//   PolicyStrategy      base: honest tree formation plus a LiePolicy for
//                       keyed predicate tests. PredicatedStrategy, which
//                       runs every named attack (silent, drop, junk, choke,
//                       selfveto), derives from it.
//   NullStrategy        dormant (passthrough) — the no-attack control.
//   WormholeStrategy    during tree formation, injects tree frames with
//                       forged hop counts through a wormhole (Figure 2(c));
//                       breaks hop-count trees, is harmless against VMAT's
//                       timestamp trees.
//   RandomByzantineStrategy  per-slot coin flips over every attack family
//                       plus random predicate answers and own readings —
//                       the fuzzing adversary of the Theorem 7 sweeps.
//   GarbageStrategy     the protocol fuzzer: every slot of every phase, each
//                       malicious node sprays random byte blobs under valid
//                       edge MACs. Nothing it sends is well-formed, so honest
//                       decoders drop it and the execution behaves as if the
//                       adversary were silent.
#pragma once

#include <memory>

#include "attack/adversary.h"
#include "util/random.h"

namespace vmat {

enum class LiePolicy : std::uint8_t {
  kDenyAll,   ///< never answer (stonewall the walk as early as possible)
  kAdmitAll,  ///< always answer yes (drag the walk on, frame if possible)
  kRandom,    ///< coin-flip per test (inconsistent-binary-search trigger)
};

/// Base with the shared predicate-answer policy. By default malicious
/// sensors *participate honestly in tree formation* (the profitable play:
/// attract children first, misbehave later); strategies that attack the
/// tree itself override on_tree_slot.
class PolicyStrategy : public AdversaryStrategy {
 public:
  explicit PolicyStrategy(LiePolicy policy, std::uint64_t seed = 7);

  void on_tree_slot(AdversaryView& view, const TreeCtx& ctx) override;

  [[nodiscard]] bool answer_predicate(AdversaryView& view,
                                      const Predicate& predicate,
                                      NodeId holder) override;

 private:
  LiePolicy policy_;
  Rng rng_;
};

class NullStrategy final : public AdversaryStrategy {
 public:
  [[nodiscard]] bool passthrough() const override { return true; }
};

class WormholeStrategy final : public PolicyStrategy {
 public:
  /// `forged_hop_count` is what the injected tree frames claim; a large
  /// value pushes honest hop-count levels beyond L.
  explicit WormholeStrategy(std::int32_t forged_hop_count,
                            LiePolicy policy = LiePolicy::kDenyAll)
      : PolicyStrategy(policy), forged_hop_count_(forged_hop_count) {}

  void on_tree_slot(AdversaryView& view, const TreeCtx& ctx) override;

 private:
  std::int32_t forged_hop_count_;
};

class RandomByzantineStrategy final : public AdversaryStrategy {
 public:
  explicit RandomByzantineStrategy(std::uint64_t seed);

  void on_tree_slot(AdversaryView& view, const TreeCtx& ctx) override;
  void on_agg_slot(AdversaryView& view, const AggCtx& ctx) override;
  void on_conf_slot(AdversaryView& view, const ConfCtx& ctx) override;
  [[nodiscard]] bool answer_predicate(AdversaryView& view,
                                      const Predicate& predicate,
                                      NodeId holder) override;
  [[nodiscard]] Reading own_reading(NodeId node, Reading honest) override;

 private:
  Rng rng_;
};

class GarbageStrategy final : public AdversaryStrategy {
 public:
  /// `blobs_per_slot` frames per malicious node per slot.
  explicit GarbageStrategy(std::uint64_t seed, int blobs_per_slot = 2);

  void on_tree_slot(AdversaryView& view, const TreeCtx& ctx) override;
  void on_agg_slot(AdversaryView& view, const AggCtx& ctx) override;
  void on_conf_slot(AdversaryView& view, const ConfCtx& ctx) override;
  [[nodiscard]] bool answer_predicate(AdversaryView& view,
                                      const Predicate& predicate,
                                      NodeId holder) override;

 private:
  void spray(AdversaryView& view);

  Rng rng_;
  int blobs_per_slot_;
};

// --- shared attack building blocks (genome actions, RandomByzantine) ---

/// Forward the per-instance *maximum* (dropping the minimum) from a
/// malicious node at its scheduled slot, to its recorded parents.
void forward_max_instead_of_min(AdversaryView& view, const AggCtx& ctx,
                                NodeId node);

/// Inject one spurious aggregation message (bogus MAC, very small value)
/// from `node` to all of its physical neighbors it shares a usable key
/// with. Claims `origin` as the message source.
void inject_junk_min(AdversaryView& view, const AggCtx& ctx, NodeId node,
                     NodeId claimed_origin);

/// Flood one spurious veto (bogus MAC) from `node` to all reachable
/// neighbors — the choking primitive.
void inject_spurious_veto(AdversaryView& view, const ConfCtx& ctx,
                          NodeId node, NodeId claimed_origin);

/// Send a *valid* veto for `value` from malicious `node` (its own sensor
/// key) to all reachable neighbors.
void inject_valid_self_veto(AdversaryView& view, const ConfCtx& ctx,
                            NodeId node, Reading value);

/// Pick `count` random non-base-station malicious nodes such that the
/// remaining honest subgraph stays connected (the paper's standing
/// assumption). Throws after too many attempts.
[[nodiscard]] std::unordered_set<NodeId> choose_malicious(
    const Topology& topology, std::uint32_t count, std::uint64_t seed);

}  // namespace vmat
