// Campaign-layer tests: predicate algebra (purity, De Morgan, parse
// round-trips), policy/corpus serialization, the declarative AttackSpec
// (validation), the named-attack table (pinned digests, typed lookup), and
// the CampaignRunner fuzzer contract —
// fixed (seed, budget) is fully deterministic, fork probes match scratch
// probes bit-for-bit, and corpus entries replay to the same outcome digest
// for any intra-execution thread count.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "campaign/corpus.h"
#include "campaign/predicate.h"
#include "campaign/runner.h"
#include "campaign/strategy.h"
#include "helpers.h"
#include "sim/snapshot.h"
#include "spec/attack_spec.h"
#include "spec/simulation_spec.h"
#include "util/parallel.h"

namespace vmat {
namespace {

using campaign::AttackPolicy;
using campaign::AttackPredicate;
using campaign::CampaignConfig;
using campaign::CampaignEntry;
using campaign::CampaignRunner;
using campaign::Corpus;
using campaign::named_genome;
using campaign::NamedAttack;

/// A small grid of trigger states spanning every field a leaf can test.
std::vector<TriggerState> state_grid() {
  std::vector<TriggerState> states;
  for (const TracePhase phase :
       {TracePhase::kNone, TracePhase::kBroadcast, TracePhase::kAggregation,
        TracePhase::kConfirmation, TracePhase::kPinpoint})
    for (const Interval slot : {Interval{0}, Interval{1}, Interval{3}})
      for (const std::size_t keys : {std::size_t{0}, std::size_t{4}})
        for (const Reading min_seen : {kInfinity, Reading{7}}) {
          TriggerState s;
          s.phase = phase;
          s.slot = slot;
          s.deepest_level = static_cast<Level>(slot + 1);
          s.revoked_keys = keys;
          s.revoked_sensors = keys / 2;
          s.round = slot + keys;
          s.frames_seen = keys + 1;
          s.min_seen = min_seen;
          states.push_back(s);
        }
  return states;
}

/// One predicate per leaf kind, at thresholds the grid straddles.
std::vector<AttackPredicate> leaf_samples() {
  return {AttackPredicate::always(),
          AttackPredicate::never(),
          AttackPredicate::phase_is(TracePhase::kAggregation),
          AttackPredicate::slot_at_least(1),
          AttackPredicate::level_at_least(2),
          AttackPredicate::revoked_keys_at_least(2),
          AttackPredicate::revoked_sensors_at_least(1),
          AttackPredicate::round_at_least(3),
          AttackPredicate::frames_seen_at_least(2),
          AttackPredicate::min_seen_below(10)};
}

TEST(Predicate, LeavesPartitionTheGrid) {
  // Every sample leaf must both fire and not fire somewhere on the grid
  // (except the constants) — otherwise the algebra tests below are vacuous.
  const auto states = state_grid();
  for (const auto& leaf : leaf_samples()) {
    int fired = 0;
    for (const auto& s : states) fired += leaf.evaluate(s) ? 1 : 0;
    if (leaf == AttackPredicate::always()) {
      EXPECT_EQ(fired, static_cast<int>(states.size()));
    } else if (leaf == AttackPredicate::never()) {
      EXPECT_EQ(fired, 0);
    } else {
      EXPECT_GT(fired, 0) << leaf.to_text();
      EXPECT_LT(fired, static_cast<int>(states.size())) << leaf.to_text();
    }
  }
}

TEST(Predicate, DeMorganAndDoubleNegationHold) {
  // evaluate() is pure, so the boolean algebra must hold pointwise over
  // the whole grid for every pair of sample leaves.
  const auto states = state_grid();
  const auto leaves = leaf_samples();
  for (const auto& a : leaves)
    for (const auto& b : leaves) {
      const auto not_and = !(a && b);
      const auto or_nots = !a || !b;
      const auto not_or = !(a || b);
      const auto and_nots = !a && !b;
      const auto double_neg = !!a;
      for (const auto& s : states) {
        EXPECT_EQ(not_and.evaluate(s), or_nots.evaluate(s))
            << not_and.to_text() << " vs " << or_nots.to_text();
        EXPECT_EQ(not_or.evaluate(s), and_nots.evaluate(s));
        EXPECT_EQ(double_neg.evaluate(s), a.evaluate(s));
      }
    }
}

TEST(Predicate, EvaluationIsIdempotent) {
  // Repeated evaluation of the same tree over the same state never changes
  // its answer — the observable face of the purity contract the
  // predicate-purity lint rule enforces statically.
  const auto states = state_grid();
  const auto p = (AttackPredicate::phase_is(TracePhase::kAggregation) &&
                  AttackPredicate::slot_at_least(1)) ||
                 !AttackPredicate::min_seen_below(10);
  for (const auto& s : states) {
    const bool first = p.evaluate(s);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(p.evaluate(s), first);
  }
}

TEST(Predicate, TextRoundTripsThroughParse) {
  const auto leaves = leaf_samples();
  std::vector<AttackPredicate> samples = leaves;
  for (const auto& a : leaves)
    for (const auto& b : leaves) {
      samples.push_back(a && b);
      samples.push_back(a || !b);
      samples.push_back(!(a && b) || (b && a));
    }
  for (const auto& p : samples) {
    const auto parsed = AttackPredicate::parse(p.to_text());
    ASSERT_TRUE(parsed.has_value()) << p.to_text();
    EXPECT_EQ(parsed.value(), p) << p.to_text();
    EXPECT_EQ(parsed.value().to_text(), p.to_text());
  }
}

TEST(Predicate, ParseRejectsMalformedText) {
  const char* bad[] = {
      "",                      // empty
      "(",                     // unbalanced
      "(alwayss)",             // unknown head
      "(phase nope)",          // unknown phase name
      "(slot>= )",             // missing number
      "(slot>= x)",            // non-numeric
      "(and (always))",        // arity
      "(not)",                 // arity
      "(always) junk",         // trailing garbage
  };
  for (const char* text : bad) {
    const auto parsed = AttackPredicate::parse(text);
    EXPECT_FALSE(parsed.has_value()) << text;
    if (!parsed.has_value()) {
      EXPECT_EQ(parsed.error().code, ErrorCode::kInvalidArgument) << text;
    }
  }
}

TEST(Corpus, PolicyAndEntryRoundTrip) {
  AttackPolicy policy;
  policy.agg = campaign::AggAction::kInjectJunk;
  policy.conf = campaign::ConfAction::kSelfVeto;
  policy.lie = LiePolicy::kRandom;
  policy.frame_honest_origin = false;
  policy.self_veto_value = 42;
  const auto policy_text = campaign::to_text(policy);
  const auto parsed_policy = campaign::policy_from_text(policy_text);
  ASSERT_TRUE(parsed_policy.has_value()) << policy_text;
  EXPECT_EQ(parsed_policy.value(), policy);

  CampaignEntry entry;
  entry.seed = 0xdeadbeefULL;
  entry.policy = policy;
  entry.when = AttackPredicate::slot_at_least(1) &&
               !AttackPredicate::revoked_keys_at_least(3);
  entry.objective = "violation";
  entry.digest = 0x1234abcd5678ef00ULL;
  const auto line = campaign::to_line(entry);
  const auto parsed = campaign::entry_from_line(line);
  ASSERT_TRUE(parsed.has_value()) << line;
  EXPECT_EQ(parsed.value(), entry);

  Corpus corpus;
  corpus.entries = {entry, entry};
  corpus.entries[1].seed = 2;
  corpus.entries[1].objective = "ruin";
  const auto round = Corpus::from_text("# comment\n\n" + corpus.to_text());
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(round.value(), corpus);

  EXPECT_FALSE(campaign::entry_from_line("vmatc1 seed=1").has_value());
  EXPECT_FALSE(campaign::entry_from_line("vmatc9 " + line).has_value());
}

TEST(AttackSpec, ValidatesAgainstDeployment) {
  AttackSpec attack;
  EXPECT_TRUE(attack.validate(10).empty());
  attack.compromised(0);
  EXPECT_FALSE(attack.validate(10).empty());
  attack.compromised(10);
  const auto errors = attack.validate(10);
  ASSERT_FALSE(errors.empty());
  for (const Error& e : errors) EXPECT_EQ(e.code, ErrorCode::kInvalidSpec);

  SimulationSpec spec;
  spec.nodes(36).topology(TopologyKind::kGrid).seed(4);
  Network net(spec);
  EXPECT_FALSE(spec.build_adversary(net).has_value());  // no attack section
  spec.attack().compromised(2).placement_seed(13);
  auto built = spec.build_adversary(net);
  ASSERT_TRUE(built.has_value());
  EXPECT_EQ(built.value()->malicious().size(), 2u);
}

/// Digest folds of every named attack, recorded through the hand-written
/// strategy classes these genomes replaced. Junk appears twice: framing an
/// honest neighbor, then under its own name. Columns: deny, admit and
/// random lies.
struct PinnedDigests {
  NamedAttack attack;
  bool frame_honest_origin;
  std::uint64_t dense_grid[3];
  std::uint64_t sparse_geometric[3];
};

constexpr PinnedDigests kPinnedDigests[] = {
    {NamedAttack::kSilent,
     true,
     {0xfcea671ff86403f8, 0xc93068a499115524, 0xd001783fb8fc2050},
     {0x853456eed5ea41c3, 0x892f0c62e6e3a15a, 0x17f2f39170ebe79c}},
    {NamedAttack::kDrop,
     true,
     {0x5fba526a3a566b70, 0x93719d7782932aeb, 0x3e9dbf722a18b19b},
     {0x1d832300605f7a3b, 0x422825fba2e74594, 0x78862c320d5c4a9d}},
    {NamedAttack::kJunk,
     true,
     {0x00cd45ceafa50a0d, 0x9343303577dca222, 0xaae72fd3663db14e},
     {0x93beb6be73b15aed, 0xf31ab199fafd619a, 0xe0b7b8464bfc983d}},
    {NamedAttack::kJunk,
     false,
     {0x00cd45ceafa50a0d, 0x9343303577dca222, 0xaae72fd3663db14e},
     {0x93beb6be73b15aed, 0xf31ab199fafd619a, 0xe0b7b8464bfc983d}},
    {NamedAttack::kChoke,
     true,
     {0x8749d54de55dd75a, 0xc31fa736b92ad00b, 0x89922c49ba72fe8b},
     {0x5327886518ce9bce, 0xfc9e70d52e30d086, 0xd0b39c2e4cfb43ce}},
    {NamedAttack::kSelfVeto,
     true,
     {0xf8573d20227b8cfb, 0xf6ab8fec1ca7101f, 0xdf0d2908114a5c49},
     {0xe11d812d79fb8570, 0xcb4e5739b36d3c1d, 0x332c57b6b4a03c7b}},
};

/// Twelve run_min executions of `genome`, placed through AttackSpec, with
/// the minimum held by a different sensor each time; folds their outcome
/// digests and the final revocation counts. The dense 6x6 grid has 2
/// compromised sensors; the sparse 60-sensor geometric deployment (rings
/// r=40 of u=800, path keys, theta=8) has 3.
std::uint64_t digest_fold(bool sparse, const campaign::Genome& genome) {
  constexpr std::uint64_t kSeed = 3;
  const Topology topo = sparse ? Topology::random_geometric(60, 0.32, kSeed)
                               : Topology::grid(6, 6);
  NetworkSpec keys = testing::dense_keys(0, kSeed);
  if (sparse) {
    keys.keys.pool_size = 800;
    keys.keys.ring_size = 40;
    keys.revocation_threshold = 8;
  }
  Network net(topo, keys);
  if (sparse) (void)net.establish_path_keys();
  AttackSpec attack;
  attack.compromised(sparse ? 3 : 2)
      .placement_seed(kSeed + 5)
      .policy(genome.policy)
      .when(genome.when);
  auto adversary = attack.build(net);
  if (!adversary.has_value()) return 0;
  CoordinatorSpec cfg;
  cfg.depth_bound = topo.depth(adversary.value()->malicious()) + 2;
  cfg.seed = kSeed;
  VmatCoordinator coordinator(&net, adversary.value().get(), cfg);
  const std::uint32_t n = net.node_count();
  std::vector<Reading> readings(n);
  std::uint64_t fold = 0;
  for (std::uint32_t e = 0; e < 12; ++e) {
    for (std::uint32_t id = 0; id < n; ++id)
      readings[id] = 100 + static_cast<Reading>((id * 37 + e * 11) % n);
    fold = snapshot_mix(
        fold, campaign::outcome_digest(coordinator.run_min(readings)));
  }
  fold = snapshot_mix(fold, net.revocation().revoked_key_count());
  return snapshot_mix(fold, net.revocation().revoked_sensors_in_order().size());
}

TEST(NamedAttack, GenomesReproducePinnedDigests) {
  const LiePolicy lies[] = {LiePolicy::kDenyAll, LiePolicy::kAdmitAll,
                            LiePolicy::kRandom};
  for (const PinnedDigests& pinned : kPinnedDigests) {
    for (std::size_t lie = 0; lie < 3; ++lie) {
      campaign::Genome genome = named_genome(pinned.attack, lies[lie]);
      genome.policy.frame_honest_origin = pinned.frame_honest_origin;
      const std::string label = campaign::to_text(genome.policy);
      EXPECT_EQ(digest_fold(false, genome), pinned.dense_grid[lie]) << label;
      EXPECT_EQ(digest_fold(true, genome), pinned.sparse_geometric[lie])
          << label;
    }
  }
}

TEST(NamedAttack, NamesRoundTripAndUnknownNamesAreTyped) {
  for (const NamedAttack attack :
       {NamedAttack::kSilent, NamedAttack::kDrop, NamedAttack::kJunk,
        NamedAttack::kChoke, NamedAttack::kSelfVeto}) {
    const auto parsed = campaign::named_attack(campaign::to_string(attack));
    ASSERT_TRUE(parsed.has_value()) << campaign::to_string(attack);
    EXPECT_EQ(parsed.value(), attack);
  }
  const auto unknown = campaign::named_attack("wormhole");
  ASSERT_FALSE(unknown.has_value());
  EXPECT_EQ(unknown.error().code, ErrorCode::kInvalidArgument);
  EXPECT_NE(unknown.error().message.find("'wormhole'"), std::string::npos);
}

/// The shared deployment every fuzzer test below searches: sparse rings so
/// pinpointing has something to bite on, θ on so cascades are reachable.
CampaignConfig small_config() {
  CampaignConfig config;
  config.spec.nodes(48).key_pool(800, 60).revocation_threshold(8).seed(33);
  config.compromised = 3;
  config.placement_seed = 21;
  config.probes = 16;
  config.seed = 9;
  return config;
}

TEST(Campaign, FixedBudgetIsDeterministic) {
  CampaignRunner first(small_config());
  const auto a = first.run();
  CampaignRunner second(small_config());
  const auto b = second.run();
  ASSERT_EQ(a.probes.size(), b.probes.size());
  for (std::size_t i = 0; i < a.probes.size(); ++i) {
    EXPECT_EQ(a.probes[i].entry.digest, b.probes[i].entry.digest) << i;
    EXPECT_EQ(a.probes[i].coverage, b.probes[i].coverage) << i;
  }
  EXPECT_EQ(a.coverage_buckets, b.coverage_buckets);
  EXPECT_EQ(a.corpus, b.corpus);
  EXPECT_EQ(a.table(), b.table());
  EXPECT_FALSE(a.corpus.entries.empty());
}

TEST(Campaign, ForkProbesMatchScratchProbes) {
  // The snapshot contract, end to end: forking every probe from the shared
  // post-formation prefix changes the formation count, never the outcomes.
  auto fork_config = small_config();
  auto scratch_config = small_config();
  scratch_config.fork_probes = false;
  CampaignRunner forked(fork_config);
  const auto a = forked.run();
  CampaignRunner scratch(scratch_config);
  const auto b = scratch.run();
  ASSERT_EQ(a.probes.size(), b.probes.size());
  for (std::size_t i = 0; i < a.probes.size(); ++i)
    EXPECT_EQ(a.probes[i].entry.digest, b.probes[i].entry.digest) << i;
  EXPECT_EQ(a.corpus, b.corpus);
  EXPECT_EQ(a.coverage_buckets, b.coverage_buckets);
  EXPECT_GE(b.formations, static_cast<std::uint64_t>(b.probes.size()));
  EXPECT_EQ(a.formations, 1u);
}

TEST(Campaign, CorpusReplaysIdenticallyAcrossThreadCounts) {
  // Replaying a recorded entry must reproduce its digest under any
  // intra-execution thread count — the property that makes the corpus a
  // portable regression suite rather than a machine-specific artifact.
  CampaignRunner runner(small_config());
  const auto result = runner.run();
  ASSERT_FALSE(result.corpus.entries.empty());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const testing::ScopedThreads scope(threads);
    for (const auto& entry : result.corpus.entries) {
      const auto outcome = runner.replay(entry);
      EXPECT_EQ(outcome.entry.digest, entry.digest)
          << "threads=" << threads << " " << campaign::to_line(entry);
    }
  }
}

TEST(Campaign, SeedCorpusStillConvergesDeterministically) {
  // Seeding the search with a prior corpus (what vmatsim --corpus does on a
  // warm start) stays deterministic and keeps every seed entry replayable.
  CampaignRunner first(small_config());
  const auto base = first.run();
  auto seeded_config = small_config();
  seeded_config.seeds = base.corpus;
  seeded_config.probes = 8;
  CampaignRunner second(seeded_config);
  const auto a = second.run();
  CampaignRunner third(seeded_config);
  const auto b = third.run();
  EXPECT_EQ(a.corpus, b.corpus);
  EXPECT_EQ(a.table(), b.table());
}

TEST(Campaign, RuinCountsRingClosureKeys) {
  // A self-veto whose vetoer then denies its own ring closes that ring
  // without pinpointing a single key. The ruin objective must still count
  // every adversary-held key the probe revoked.
  CampaignRunner runner(small_config());
  CampaignEntry entry;
  entry.seed = 7;
  entry.policy.agg = campaign::AggAction::kSilentDrop;
  entry.policy.conf = campaign::ConfAction::kSelfVeto;
  entry.policy.lie = LiePolicy::kDenyAll;
  entry.policy.self_veto_value = 4;
  entry.when = AttackPredicate::always();
  FlightRecorder recorder;
  const auto po = runner.replay(entry, recorder);
  ASSERT_TRUE(po.ruined);

  // Brute force over the recorded stream, on a twin of the deployment.
  const Network twin(small_config().spec);
  std::size_t rings_closed = 0;
  std::size_t adversary_keys = 0;
  for (const TraceEvent& event : recorder.events()) {
    if (event.kind == TraceEventKind::kSensorRevoked) ++rings_closed;
    if (event.kind != TraceEventKind::kKeyRevoked) continue;
    for (const NodeId m : runner.malicious()) {
      if (!twin.keys().node_holds(m, event.key)) continue;
      ++adversary_keys;
      break;
    }
  }
  ASSERT_GE(rings_closed, 1u);
  EXPECT_GE(adversary_keys, 60u);  // at least one whole ring (r = 60)
  EXPECT_EQ(po.adversary_keys_revoked, adversary_keys);
  EXPECT_EQ(po.honest_sensors_revoked, 0u);
}

#ifdef VMAT_SOURCE_DIR
TEST(Campaign, CommittedCorpusReplaysExactly) {
  // tests/data/campaign_corpus.vmatc was recorded by running small_config()
  // — any digest drift means the protocol's observable behavior changed.
  const auto corpus =
      Corpus::load(std::string(VMAT_SOURCE_DIR) + "/tests/data/campaign_corpus.vmatc");
  ASSERT_TRUE(corpus.has_value()) << corpus.error().to_string();
  ASSERT_FALSE(corpus.value().entries.empty());
  CampaignRunner runner(small_config());
  for (const auto& entry : corpus.value().entries) {
    const auto outcome = runner.replay(entry);
    EXPECT_NE(entry.digest, 0u);
    EXPECT_EQ(outcome.entry.digest, entry.digest) << campaign::to_line(entry);
  }
}
#endif

}  // namespace
}  // namespace vmat
