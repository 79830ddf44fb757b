// vmatsim — command-line driver for ad-hoc VMAT experiments.
//
//   vmatsim [--nodes N] [--topology grid|geometric|line]
//           [--attack none|silent|drop|junk|choke|selfveto|wormhole|random|garbage]
//           [--f K] [--theta T] [--query min|count] [--instances M]
//           [--seed S] [--executions E] [--serve Q] [--multipath]
//           [--sparse-keys] [--trace FILE]
//           [--campaign P] [--corpus FILE] [--replay FILE]
//           [--daemon] [--tenants N] [--adversary-tenants A] [--socket PATH]
//
// Default mode runs E query executions against the configured adversary
// and reports each outcome plus the final revocation state: --query min
// runs VmatCoordinator::run_min, --query count submits one COUNT per step
// to an epoch-batched Engine with a one-execution budget.
// --serve Q instead submits Q queries (COUNT / SUM / AVERAGE / MIN / MAX /
// quantile, round-robin) to the epoch-batched serving engine and reports
// per-query results, engine stats, and per-epoch rollups. With --trace,
// records the full flight-recorder event stream, writes it to FILE as JSON
// (readable by tools/check_trace.py), and runs the built-in trace-invariant
// checker over the recording.
//
// --campaign P runs the coverage-guided strategy fuzzer (src/campaign/):
// P probes forked from one post-formation snapshot, searching the
// (policy x predicate x seed) space for worst cases; prints the
// deterministic worst-case table. --corpus FILE seeds the search from an
// existing corpus (if the file exists) and writes the found corpus back;
// --trace exports the worst probe's event stream. --replay FILE instead
// re-executes every corpus entry and verifies its outcome digest — the
// regression mode the committed corpus runs under ctest.
//
// --daemon starts vmatd: N independent tenants served over the frame
// protocol (src/serve/protocol.h) on stdin/stdout, or on a Unix socket
// with --socket PATH (accepts one session). The first A tenants host a
// choke adversary compromising --f nodes each. --trace records
// tenant 0's epoch formations and serving executions and writes the JSON
// after the session ends (the frame stream itself stays clean).
//
// --attack silent|drop|junk|choke|selfveto places the paper's named attack
// genome (campaign/strategy.h); wormhole, random and garbage place the
// hand-written strategies no genome expresses.
//
// Every flag takes effect or exits 2: kModes below lists the flags each
// mode reads, and any other flag given names itself and the mode; a flag
// another flag's value voids (--f with --attack none or with
// --adversary-tenants 0, --attack X or --adversary-tenants A with --f 0,
// --f 0 with --campaign or --replay) names itself and that value.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <string_view>

#include "vmat.h"

namespace {

struct Options {
  std::uint32_t nodes = 100;
  std::string topology = "geometric";
  std::string attack = "silent";
  std::uint32_t f = 2;
  std::uint32_t theta = 0;
  std::string query = "min";
  std::uint32_t instances = 50;
  std::uint64_t seed = 1;
  int executions = 25;
  int serve = 0;  // > 0: epoch-batched serving mode with this many queries
  bool multipath = false;
  bool sparse_keys = false;
  std::string trace;  // empty = no recording
  // --campaign mode
  std::uint32_t campaign = 0;  // > 0: fuzz with this probe budget
  std::string corpus;          // seed corpus in / found corpus out
  std::string replay;          // corpus regression replay mode
  // --daemon mode
  bool daemon = false;
  std::uint32_t tenants = 8;
  std::uint32_t adversary_tenants = 0;
  std::string socket_path;  // empty = stdin/stdout
  // Flags present on the command line: their defaults are legal values,
  // so only this tells "--executions 25" from no --executions at all.
  std::set<std::string> given;
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [--nodes N] [--topology grid|geometric|line]\n"
      "          [--attack none|silent|drop|junk|choke|selfveto|wormhole|"
      "random|garbage]\n"
      "          [--f K] [--theta T] [--query min|count] [--instances M]\n"
      "          [--seed S] [--executions E] [--serve Q] [--multipath]\n"
      "          [--sparse-keys] [--trace FILE]\n"
      "          [--campaign P] [--corpus FILE] [--replay FILE]\n"
      "          [--daemon] [--tenants N] [--adversary-tenants A] "
      "[--socket PATH]\n",
      argv0);
  std::exit(2);
}

/// Checked integer flag parsing — every count/seed flag goes through here.
/// A bare std::stoi would accept "12abc" (silently dropping the suffix)
/// and die with an unhelpful std::invalid_argument backtrace on "abc";
/// instead every malformed or out-of-range value gets a per-flag error.
std::uint64_t parse_uint(const char* flag, const std::string& text,
                         std::uint64_t min_value, std::uint64_t max_value) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  const bool malformed = text.empty() || end != text.c_str() + text.size() ||
                         text.front() == '-' ||  // strtoull wraps negatives
                         errno == ERANGE;
  if (malformed) {
    std::fprintf(stderr, "vmatsim: %s: expected an unsigned integer, got '%s'\n",
                 flag, text.c_str());
    std::exit(2);
  }
  if (v < min_value || v > max_value) {
    std::fprintf(stderr,
                 "vmatsim: %s: value %llu out of range [%llu, %llu]\n", flag,
                 v, static_cast<unsigned long long>(min_value),
                 static_cast<unsigned long long>(max_value));
    std::exit(2);
  }
  return v;
}

/// A count that must be positive (--nodes 0 is a config bug, not a run).
std::uint32_t parse_count(const char* flag, const std::string& text) {
  return static_cast<std::uint32_t>(parse_uint(flag, text, 1, 1u << 20));
}

/// A size that may legitimately be zero (--f 0, --theta 0, ...).
std::uint32_t parse_size(const char* flag, const std::string& text) {
  return static_cast<std::uint32_t>(parse_uint(flag, text, 0, 1u << 20));
}

/// Each mode and every flag it reads, in main()'s dispatch order. A flag
/// given outside its mode's list would do nothing, so parse() rejects it.
struct ModeFlags {
  const char* name;
  std::string_view reads;  ///< space-separated
};

constexpr ModeFlags kModes[] = {
    {"--daemon",
     "--daemon --tenants --adversary-tenants --socket --nodes --topology "
     "--seed --f --theta --instances --trace"},
    // Campaign probes and replays place their own genome adversary and
    // run one MIN execution each.
    {"--replay",
     "--replay --nodes --topology --seed --f --theta --multipath "
     "--sparse-keys"},
    {"--campaign",
     "--campaign --corpus --trace --nodes --topology --seed --f --theta "
     "--multipath --sparse-keys"},
    {"--serve",
     "--serve --instances --attack --trace --nodes --topology --seed --f "
     "--theta --multipath --sparse-keys"},
    {"--query count",
     "--query --instances --executions --attack --trace --nodes --topology "
     "--seed --f --theta --multipath --sparse-keys"},
    {"--query min",
     "--query --executions --attack --trace --nodes --topology --seed --f "
     "--theta --multipath --sparse-keys"},
};

const ModeFlags& mode_of(const Options& o) {
  if (o.daemon) return kModes[0];
  if (!o.replay.empty()) return kModes[1];
  if (o.campaign > 0) return kModes[2];
  if (o.serve > 0) return kModes[3];
  return o.query == "count" ? kModes[4] : kModes[5];
}

/// A flag its mode reads can still be voided by a value: an adversary of
/// zero sensors, or a compromised count nothing places. Each such pair
/// exits 2, naming the flag and the value that voids it.
void reject_moot_values(const Options& o, const ModeFlags& mode) {
  auto moot = [](const std::string& flag, const std::string& voided_by) {
    std::fprintf(stderr, "vmatsim: %s has no effect with %s\n", flag.c_str(),
                 voided_by.c_str());
    std::exit(2);
  };
  const bool f_given = o.given.contains("--f");
  const std::string_view reads = mode.reads;
  if (reads.find("--attack") != std::string_view::npos) {
    if (o.attack == "none" && f_given) moot("--f", "--attack none");
    if (o.attack != "none" && o.given.contains("--attack") && o.f == 0)
      moot("--attack " + o.attack, "--f 0");
  } else if (o.daemon) {
    if (o.adversary_tenants == 0 && f_given)
      moot("--f", "--adversary-tenants 0");
    if (o.adversary_tenants > 0 && o.f == 0)
      moot("--adversary-tenants " + std::to_string(o.adversary_tenants),
           "--f 0");
  } else if (o.f == 0) {
    // Campaign probes and replays always place a compromised set.
    moot("--f 0", mode.name);
  }
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "vmatsim: %s: missing value\n", flag.c_str());
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (flag == "--nodes") o.nodes = parse_count("--nodes", value());
    else if (flag == "--topology") o.topology = value();
    else if (flag == "--attack") o.attack = value();
    else if (flag == "--f") o.f = parse_size("--f", value());
    else if (flag == "--theta") o.theta = parse_size("--theta", value());
    else if (flag == "--query") o.query = value();
    else if (flag == "--instances") o.instances = parse_count("--instances", value());
    else if (flag == "--seed") o.seed = parse_uint("--seed", value(), 0, ~0ull);
    else if (flag == "--executions") o.executions = static_cast<int>(parse_count("--executions", value()));
    else if (flag == "--serve") o.serve = static_cast<int>(parse_count("--serve", value()));
    else if (flag == "--multipath") o.multipath = true;
    else if (flag == "--sparse-keys") o.sparse_keys = true;
    else if (flag == "--trace") o.trace = value();
    else if (flag == "--campaign") o.campaign = parse_count("--campaign", value());
    else if (flag == "--corpus") o.corpus = value();
    else if (flag == "--replay") o.replay = value();
    else if (flag == "--daemon") o.daemon = true;
    else if (flag == "--tenants") o.tenants = parse_count("--tenants", value());
    else if (flag == "--adversary-tenants") o.adversary_tenants = parse_size("--adversary-tenants", value());
    else if (flag == "--socket") o.socket_path = value();
    else usage(argv[0]);
    o.given.insert(flag);
  }
  if (o.query != "min" && o.query != "count") {
    std::fprintf(stderr, "vmatsim: --query: expected min or count, got '%s'\n",
                 o.query.c_str());
    std::exit(2);
  }
  const ModeFlags& mode = mode_of(o);
  const std::string reads = " " + std::string(mode.reads) + " ";
  for (const std::string& flag : o.given) {
    if (reads.find(" " + flag + " ") != std::string::npos) continue;
    std::fprintf(stderr, "vmatsim: %s has no effect with %s\n", flag.c_str(),
                 mode.name);
    std::exit(2);
  }
  if (o.adversary_tenants > o.tenants) {
    std::fprintf(stderr,
                 "vmatsim: --adversary-tenants %u exceeds --tenants %u\n",
                 o.adversary_tenants, o.tenants);
    std::exit(2);
  }
  reject_moot_values(o, mode);
  return o;
}

/// One validated SimulationSpec from the command line — the whole
/// deployment in a single builder (the unified public API; see
/// spec/simulation_spec.h).
vmat::SimulationSpec make_spec(Options& o) {
  vmat::SimulationSpec spec;
  const auto kind = vmat::topology_kind_from(o.topology);
  if (!kind.has_value()) {
    std::fprintf(stderr, "unknown topology: %s\n", o.topology.c_str());
    std::exit(2);
  }
  if (*kind == vmat::TopologyKind::kGrid) {
    // Grid deployments need a perfect square; round down like the old CLI.
    const auto side = static_cast<std::uint32_t>(std::sqrt(o.nodes));
    o.nodes = side * side;
  }
  spec.nodes(o.nodes).topology(*kind).seed(o.seed);
  if (o.sparse_keys)
    spec.key_pool(5000, 50);
  else
    spec.key_pool(1000, 180);
  spec.revocation_threshold(o.theta);
  spec.multipath(o.multipath);
  spec.instances(o.query == "count" || o.serve > 0 ? o.instances : 1);
  const auto errors = spec.validate();
  if (!errors.empty()) {
    for (const auto& e : errors)
      std::fprintf(stderr, "invalid spec: %s\n", e.to_string().c_str());
    std::exit(2);
  }
  return spec;
}

/// Place the configured adversary: a named attack genome through the
/// declarative AttackSpec, or a strategy no genome expresses.
std::unique_ptr<vmat::Adversary> make_adversary(const Options& o,
                                                vmat::SimulationSpec& spec,
                                                vmat::Network& net) {
  using namespace vmat;
  if (o.attack == "none" || o.f == 0)
    return std::make_unique<Adversary>(&net, std::unordered_set<NodeId>{},
                                       std::make_unique<NullStrategy>());
  if (const auto named = campaign::named_attack(o.attack); named.has_value()) {
    // `drop` answers predicate tests at random; the others stonewall them.
    const LiePolicy lie = named.value() == campaign::NamedAttack::kDrop
                              ? LiePolicy::kRandom
                              : LiePolicy::kDenyAll;
    const campaign::Genome genome = campaign::named_genome(named.value(), lie);
    spec.attack()
        .compromised(o.f)
        .placement_seed(o.seed + 17)
        .policy(genome.policy)
        .when(genome.when);
    auto built = spec.build_adversary(net);
    if (!built.has_value()) {
      std::fprintf(stderr, "vmatsim: %s\n", built.error().to_string().c_str());
      std::exit(2);
    }
    return std::move(built.value());
  }
  std::unique_ptr<AdversaryStrategy> strategy;
  if (o.attack == "wormhole")
    strategy = std::make_unique<WormholeStrategy>(100, LiePolicy::kDenyAll);
  else if (o.attack == "random")
    strategy = std::make_unique<RandomByzantineStrategy>(o.seed);
  else if (o.attack == "garbage")
    strategy = std::make_unique<GarbageStrategy>(o.seed);
  else {
    std::fprintf(stderr, "unknown attack: %s\n", o.attack.c_str());
    std::exit(2);
  }
  return std::make_unique<Adversary>(
      &net, choose_malicious(net.topology(), o.f, o.seed + 17),
      std::move(strategy));
}

/// Round-robin over the engine's query kinds so a --serve run exercises
/// the whole serving surface.
vmat::EngineQuery make_served_query(int index, std::uint32_t n,
                                    const std::vector<vmat::Reading>& readings,
                                    const std::vector<std::uint8_t>& predicate) {
  vmat::EngineQuery q;
  std::vector<std::int64_t> weights(n, 0);
  for (std::uint32_t id = 1; id < n; ++id) weights[id] = readings[id];
  switch (index % 6) {
    case 0:
      q.kind = vmat::EngineQueryKind::kCount;
      q.predicate = predicate;
      break;
    case 1:
      q.kind = vmat::EngineQueryKind::kSum;
      q.readings = weights;
      break;
    case 2:
      q.kind = vmat::EngineQueryKind::kAverage;
      q.readings = weights;
      break;
    case 3:
      q.kind = vmat::EngineQueryKind::kMin;
      q.raw = readings;
      break;
    case 4:
      q.kind = vmat::EngineQueryKind::kMax;
      q.raw = readings;
      break;
    default:
      q.kind = vmat::EngineQueryKind::kQuantile;
      q.readings = weights;
      q.q = 0.5;
      q.domain_max = 2048;
      break;
  }
  return q;
}

int run_serving_mode(const Options& o, vmat::VmatCoordinator& coordinator,
                     const std::vector<vmat::Reading>& readings,
                     const std::vector<std::uint8_t>& predicate) {
  const std::uint32_t n = coordinator.network().node_count();
  vmat::Engine engine(&coordinator);
  std::vector<vmat::EngineQuery> batch;
  batch.reserve(static_cast<std::size_t>(o.serve));
  for (int q = 0; q < o.serve; ++q)
    batch.push_back(make_served_query(q, n, readings, predicate));
  const auto results = engine.run_batch(std::move(batch));

  for (const auto& r : results) {
    if (r.answered())
      std::printf("query %3llu: %-8s ~= %.1f  (executions %d, epoch %llu)\n",
                  static_cast<unsigned long long>(r.id),
                  vmat::to_string(r.kind), *r.estimate, r.executions,
                  static_cast<unsigned long long>(r.epoch_id));
    else
      std::printf("query %3llu: %-8s FAILED: %s\n",
                  static_cast<unsigned long long>(r.id),
                  vmat::to_string(r.kind),
                  r.error.has_value() ? r.error->to_string().c_str() : "?");
  }

  const vmat::EngineStats& stats = engine.stats();
  std::printf(
      "\nengine: %llu round(s), %llu execution(s) (%llu disrupted), "
      "%llu epoch(s), %llu answered, %llu failed, %.1f KB on fabric\n",
      static_cast<unsigned long long>(stats.rounds),
      static_cast<unsigned long long>(stats.executions),
      static_cast<unsigned long long>(stats.disrupted_executions),
      static_cast<unsigned long long>(stats.epochs_formed),
      static_cast<unsigned long long>(stats.queries_answered),
      static_cast<unsigned long long>(stats.queries_failed),
      static_cast<double>(stats.fabric_bytes) / 1024.0);
  for (const auto& epoch : engine.epoch_rollups())
    std::printf(
        "  epoch %llu: formation %d round(s) %.1f KB | %llu execution(s), "
        "%llu query(ies) served, %.1f KB\n",
        static_cast<unsigned long long>(epoch.epoch_id),
        epoch.formation_rounds,
        static_cast<double>(epoch.formation_bytes) / 1024.0,
        static_cast<unsigned long long>(epoch.executions),
        static_cast<unsigned long long>(epoch.queries_served),
        static_cast<double>(epoch.fabric_bytes) / 1024.0);
  return stats.queries_failed == 0 ? 0 : 1;
}

/// --query count: one Engine for the whole run. Each step submits one
/// COUNT with a one-execution budget and prints the estimate, or else the
/// typed error plus the keys and sensors the revocation registry gained in
/// that step.
void run_count_steps(const Options& o, vmat::VmatCoordinator& coordinator,
                     const std::vector<std::uint8_t>& predicate, int& answered,
                     int& disrupted) {
  const vmat::RevocationRegistry& registry =
      coordinator.network().revocation();
  vmat::Engine engine(&coordinator);
  vmat::EngineQuery count;
  count.kind = vmat::EngineQueryKind::kCount;
  count.predicate = predicate;
  count.max_executions = 1;
  for (int e = 1; e <= o.executions; ++e) {
    const std::size_t keys_before = registry.revoked_key_count();
    const std::size_t sensors_before =
        registry.revoked_sensors_in_order().size();
    const vmat::EngineResult r = engine.run_batch({count}).front();
    if (r.answered()) {
      ++answered;
      std::printf("exec %3d: COUNT ~= %.1f\n", e, *r.estimate);
    } else {
      ++disrupted;
      std::printf("exec %3d: %s -> revoked %zu keys, %zu sensors\n", e,
                  r.error.has_value() ? r.error->to_string().c_str() : "?",
                  registry.revoked_key_count() - keys_before,
                  registry.revoked_sensors_in_order().size() - sensors_before);
    }
  }
}

/// --campaign: the coverage-guided strategy fuzzer. Deterministic for a
/// fixed (--seed, --campaign, deployment) triple: same corpus, same
/// coverage counters, same worst-case table, any VMAT_THREADS.
int run_campaign_mode(const Options& o, const vmat::SimulationSpec& base_spec) {
  namespace camp = vmat::campaign;
  camp::CampaignConfig config;
  config.spec = base_spec;
  config.compromised = o.f;
  config.placement_seed = o.seed + 17;
  config.probes = o.campaign;
  config.seed = o.seed;
  if (!o.corpus.empty())
    if (auto seeds = camp::Corpus::load(o.corpus); seeds.has_value()) {
      config.seeds = std::move(seeds.value());
      std::printf("corpus: seeded search with %zu entr(ies) from %s\n",
                  config.seeds.entries.size(), o.corpus.c_str());
    }
  camp::CampaignRunner runner(std::move(config));
  const camp::CampaignResult result = runner.run();
  std::printf("%s", result.table().c_str());
  if (!o.corpus.empty()) {
    if (const vmat::Status saved = result.corpus.save(o.corpus);
        !saved.has_value()) {
      std::fprintf(stderr, "vmatsim: %s\n", saved.error().to_string().c_str());
      return 1;
    }
    std::printf("corpus: wrote %zu entr(ies) to %s\n",
                result.corpus.entries.size(), o.corpus.c_str());
  }
  if (!o.trace.empty() && !result.probes.empty()) {
    // Export the most interesting probe's full event stream.
    std::size_t index = 0;
    if (result.first_violation.has_value()) index = *result.first_violation;
    else if (result.worst_ruin.has_value()) index = *result.worst_ruin;
    else if (result.worst_misrevocation.has_value()) index = *result.worst_misrevocation;
    else if (result.worst_latency.has_value()) index = *result.worst_latency;
    vmat::FlightRecorder recorder;
    (void)runner.replay(result.probes[index].entry, recorder);
    if (!recorder.write_json(o.trace)) {
      std::fprintf(stderr, "failed to write trace: %s\n", o.trace.c_str());
      return 1;
    }
    const auto check = vmat::check_trace(recorder);
    std::printf("trace: probe %zu, %zu event(s); invariants %s\n", index,
                recorder.events().size(), check.ok() ? "OK" : "VIOLATED");
  }
  return result.first_violation.has_value() ? 1 : 0;
}

/// --replay: corpus regression mode. Re-executes every entry through the
/// probe path and verifies the recorded outcome digest.
int run_replay_mode(const Options& o, const vmat::SimulationSpec& base_spec) {
  namespace camp = vmat::campaign;
  auto loaded = camp::Corpus::load(o.replay);
  if (!loaded.has_value()) {
    std::fprintf(stderr, "vmatsim: --replay: %s\n",
                 loaded.error().to_string().c_str());
    return 2;
  }
  camp::CampaignConfig config;
  config.spec = base_spec;
  config.compromised = o.f;
  config.placement_seed = o.seed + 17;
  config.seed = o.seed;
  camp::CampaignRunner runner(std::move(config));
  int drifted = 0;
  std::size_t violations = 0;
  const auto& entries = loaded.value().entries;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const camp::ProbeOutcome po = runner.replay(entries[i]);
    const bool match =
        entries[i].digest == 0 || entries[i].digest == po.entry.digest;
    violations += po.violations;
    std::printf("replay %2zu [%-9s]: digest %016llx %s\n", i,
                entries[i].objective.c_str(),
                static_cast<unsigned long long>(po.entry.digest),
                match ? "ok" : "DRIFT");
    if (!match) ++drifted;
  }
  std::printf("replay: %zu entr(ies), %d drifted, %zu violation(s)\n",
              entries.size(), drifted, violations);
  return drifted == 0 ? 0 : 1;
}

/// vmatd entry: serve the frame protocol on stdin/stdout, or accept one
/// session on a Unix socket. Nodes/topology/instances/f/seed flags shape
/// every tenant identically (tenant t perturbs the seed).
int run_daemon_mode(const Options& o) {
  vmat::serve::ServeOptions so;
  so.tenants = o.tenants;
  so.nodes = o.nodes;
  const auto kind = vmat::topology_kind_from(o.topology);
  if (!kind.has_value()) {
    std::fprintf(stderr, "unknown topology: %s\n", o.topology.c_str());
    return 2;
  }
  so.topology = *kind;
  so.instances = o.instances;
  so.adversary_tenants = o.adversary_tenants;
  so.f = o.f;
  // vmatsim's --theta default (0) keeps one-shot semantics; for the
  // daemon 0 would let a ChokeVeto tenant burn whole deadlines before
  // neutralization, so 0 means "keep the daemon default" here.
  if (o.theta > 0) so.theta = o.theta;
  so.seed = o.seed;
  vmat::serve::Daemon daemon(so);

  // --trace: record tenant 0's epoch formations + serving executions; the
  // JSON is written (and the invariant checker run) after the session ends
  // so nothing interleaves with the frame stream.
  vmat::FlightRecorder recorder;
  if (!o.trace.empty()) daemon.set_recorder(0, &recorder);
  const auto finish_trace = [&o, &recorder, &daemon](int rc) {
    if (o.trace.empty()) return rc;
    daemon.set_recorder(0, nullptr);
    if (!recorder.write_json(o.trace)) {
      std::fprintf(stderr, "failed to write trace: %s\n", o.trace.c_str());
      return rc == 0 ? 1 : rc;
    }
    const auto check = vmat::check_trace(recorder);
    std::fprintf(stderr, "trace: %zu event(s); invariants %s\n",
                 recorder.events().size(), check.ok() ? "OK" : "VIOLATED");
    if (!check.ok()) {
      std::fprintf(stderr, "%s\n", check.to_string().c_str());
      return rc == 0 ? 1 : rc;
    }
    return rc;
  };

  if (o.socket_path.empty())
    return finish_trace(daemon.run(STDIN_FILENO, STDOUT_FILENO));

  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("vmatsim: socket");
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (o.socket_path.size() >= sizeof addr.sun_path) {
    std::fprintf(stderr, "vmatsim: --socket: path too long\n");
    ::close(listener);
    return 2;
  }
  std::memcpy(addr.sun_path, o.socket_path.c_str(), o.socket_path.size() + 1);
  ::unlink(o.socket_path.c_str());  // stale socket from a previous run
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listener, 1) != 0) {
    std::perror("vmatsim: bind/listen");
    ::close(listener);
    return 1;
  }
  const int session = ::accept(listener, nullptr, nullptr);
  if (session < 0) {
    std::perror("vmatsim: accept");
    ::close(listener);
    return 1;
  }
  const int rc = daemon.run(session, session);
  ::close(session);
  ::close(listener);
  ::unlink(o.socket_path.c_str());
  return finish_trace(rc);
}

}  // namespace

int main(int argc, char** argv) {
  Options o = parse(argc, argv);
  if (o.daemon) return run_daemon_mode(o);

  const vmat::SimulationSpec base_spec = make_spec(o);
  if (o.campaign > 0 || !o.replay.empty()) {
    try {
      return o.replay.empty() ? run_campaign_mode(o, base_spec)
                              : run_replay_mode(o, base_spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "vmatsim: %s\n", e.what());
      return 2;
    }
  }

  vmat::Network net(base_spec);
  if (o.sparse_keys) {
    const auto established = net.establish_path_keys();
    std::printf("path keys established: %zu\n", established);
  }

  vmat::SimulationSpec spec = base_spec;
  std::unique_ptr<vmat::Adversary> adversary_ptr = make_adversary(o, spec, net);
  vmat::Adversary& adversary = *adversary_ptr;
  const std::unordered_set<vmat::NodeId>& malicious = adversary.malicious();

  spec.depth_bound(net.topology().depth(malicious));
  vmat::VmatCoordinator coordinator(&net, &adversary, spec);

  vmat::FlightRecorder recorder;
  if (!o.trace.empty()) coordinator.set_recorder(&recorder);

  std::printf("vmatsim: attack=%s f=%zu theta=%u query=%s L=%d\n%s\n",
              o.attack.c_str(), malicious.size(), o.theta, o.query.c_str(),
              coordinator.effective_depth_bound(),
              vmat::describe_deployment(net).c_str());

  std::vector<vmat::Reading> readings(net.node_count());
  for (std::uint32_t id = 0; id < net.node_count(); ++id)
    readings[id] = 1000 + static_cast<vmat::Reading>((id * 131) % 777);
  std::vector<std::uint8_t> predicate(net.node_count(), 0);
  for (std::uint32_t id = 1; id < net.node_count(); id += 2) predicate[id] = 1;

  int serve_status = 0;
  if (o.serve > 0) {
    serve_status = run_serving_mode(o, coordinator, readings, predicate);
  } else {
    int answered = 0, disrupted = 0;
    if (o.query == "count") {
      run_count_steps(o, coordinator, predicate, answered, disrupted);
    } else {
      for (int e = 1; e <= o.executions; ++e) {
        const auto out = coordinator.run_min(readings);
        if (out.produced_result()) {
          ++answered;
          std::printf("exec %3d: MIN = %lld\n", e,
                      static_cast<long long>(out.minima[0]));
        } else {
          ++disrupted;
          std::printf("exec %3d: disrupted (%s) -> revoked %zu keys, %zu "
                      "sensors [%s]\n",
                      e, vmat::to_string(out.trigger),
                      out.revoked_keys.size(), out.revoked_sensors.size(),
                      out.reason.c_str());
        }
      }
    }
    std::printf("\nsummary: %d answered, %d disrupted\n%s", answered,
                disrupted, vmat::describe_revocations(net).c_str());
  }

  if (!o.trace.empty()) {
    if (!recorder.write_json(o.trace)) {
      std::fprintf(stderr, "failed to write trace: %s\n", o.trace.c_str());
      return 1;
    }
    const auto check = vmat::check_trace(recorder);
    std::printf("trace: %zu execution(s), %zu event(s); invariants %s\n",
                recorder.execution_count(), recorder.events().size(),
                check.ok() ? "OK" : "VIOLATED");
    if (!check.ok()) {
      std::printf("%s", check.to_string().c_str());
      return 1;
    }
  }
  return serve_status;
}
