// BENCH-CAMPAIGN — measures what the campaign fuzzer's snapshot forking
// buys: probes/sec with every probe forked from one shared post-formation
// snapshot versus the scratch path that builds a private deployment (and
// re-forms the tree) per probe.
//
// Also asserts the two halves of the snapshot contract the campaign relies
// on: the fork campaign runs exactly ONE tree formation no matter the probe
// budget, and both modes produce bit-identical results (same corpus text,
// same coverage counters, same worst-case table) — only the formation count
// and the wall clock may differ.
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "campaign/runner.h"
#include "trial_runner.h"
#include "util/stats.h"

namespace {

vmat::campaign::CampaignConfig bench_config(std::uint32_t probes,
                                            bool fork_probes) {
  vmat::campaign::CampaignConfig config;
  config.spec.nodes(60).topology(vmat::TopologyKind::kGeometric).seed(11);
  config.spec.key_pool(800, 60).revocation_threshold(8);
  config.compromised = 3;
  config.placement_seed = 21;
  config.probes = probes;
  config.seed = 9;
  config.fork_probes = fork_probes;
  return config;
}

struct ModeResult {
  double seconds{0.0};
  std::uint64_t formations{0};
  std::string corpus;
  std::string table;
  std::size_t coverage{0};
};

ModeResult run_mode(std::uint32_t probes, bool fork_probes) {
  const auto start = std::chrono::steady_clock::now();
  vmat::campaign::CampaignRunner runner(bench_config(probes, fork_probes));
  const vmat::campaign::CampaignResult result = runner.run();
  const auto stop = std::chrono::steady_clock::now();
  ModeResult mode;
  mode.seconds = std::chrono::duration<double>(stop - start).count();
  mode.formations = result.formations;
  mode.corpus = result.corpus.to_text();
  mode.table = result.table();
  mode.coverage = result.coverage_buckets;
  return mode;
}

}  // namespace

int main() {
  const auto probes =
      static_cast<std::uint32_t>(vmat::bench::smoke() ? 8 : 64);
  std::printf(
      "BENCH-CAMPAIGN | campaign probes: shared-snapshot fork vs scratch "
      "deployment per probe (%u probes)\n\n",
      probes);

  vmat::bench::BenchReport report("bench_campaign");
  report.config("probes", static_cast<std::int64_t>(probes));
  report.config("nodes", static_cast<std::int64_t>(60));
  report.config("compromised", static_cast<std::int64_t>(3));

  const ModeResult fork = run_mode(probes, /*fork_probes=*/true);
  const ModeResult scratch = run_mode(probes, /*fork_probes=*/false);

  // The campaign's fork-reuse claim: zero formation rounds per probe after
  // the first.
  if (fork.formations != 1) {
    std::fprintf(stderr,
                 "BENCH-CAMPAIGN: fork campaign ran %llu formations "
                 "(expected exactly 1)\n",
                 static_cast<unsigned long long>(fork.formations));
    return 1;
  }
  if (scratch.formations < probes) {
    std::fprintf(stderr,
                 "BENCH-CAMPAIGN: scratch campaign ran %llu formations "
                 "(expected >= one per probe)\n",
                 static_cast<unsigned long long>(scratch.formations));
    return 1;
  }
  // The snapshot contract: identical results, only the formation count (a
  // line of the table) and the wall clock differ.
  if (fork.corpus != scratch.corpus || fork.coverage != scratch.coverage) {
    std::fprintf(stderr,
                 "BENCH-CAMPAIGN: fork and scratch campaigns diverged "
                 "(snapshot contract violated)\n");
    return 1;
  }

  vmat::TablePrinter table(
      {"mode", "probes/sec", "formations", "coverage buckets"});
  table.add_row({"fork", vmat::TablePrinter::fmt(probes / fork.seconds, 1),
                 std::to_string(fork.formations),
                 std::to_string(fork.coverage)});
  table.add_row({"scratch",
                 vmat::TablePrinter::fmt(probes / scratch.seconds, 1),
                 std::to_string(scratch.formations),
                 std::to_string(scratch.coverage)});
  table.print();

  report.result("fork_probes_per_sec", probes / fork.seconds);
  report.result("scratch_probes_per_sec", probes / scratch.seconds);
  report.result("fork_formations", static_cast<double>(fork.formations));
  report.result("scratch_formations",
                static_cast<double>(scratch.formations));
  report.result("speedup", scratch.seconds / fork.seconds);
  report.write();

  std::printf(
      "\nfork mode amortizes the deployment build + tree formation across "
      "the whole budget (%.1fx here);\nboth modes' corpora and coverage "
      "counters are bit-identical — the snapshot contract at work.\n",
      scratch.seconds / fork.seconds);
  return 0;
}
