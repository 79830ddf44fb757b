// Self-test for tools/vmat_lint.py: runs the linter as a subprocess on the
// fixture files under tools/fixtures/ and asserts exact rule hits (rule
// name + line) on the bad fixtures, a clean pass on the clean/suppressed
// fixtures, and the documented exit codes.
//
// VMAT_PYTHON and VMAT_SOURCE_DIR are injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace {

struct LintResult {
  int exit_code;
  std::string output;

  [[nodiscard]] bool mentions(const std::string& needle) const {
    return output.find(needle) != std::string::npos;
  }

  /// Count of reported violations for `rule` (lines matching "[rule]").
  [[nodiscard]] int count(const std::string& rule) const {
    const std::string tag = "[" + rule + "]";
    int n = 0;
    for (std::size_t pos = output.find(tag); pos != std::string::npos;
         pos = output.find(tag, pos + tag.size()))
      ++n;
    return n;
  }
};

LintResult run_lint(const std::string& args) {
  const std::string cmd = std::string(VMAT_PYTHON) + " " + VMAT_SOURCE_DIR +
                          "/tools/vmat_lint.py --root " + VMAT_SOURCE_DIR +
                          " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "failed to launch: " << cmd;
  std::string output;
  char buf[512];
  while (pipe != nullptr && std::fgets(buf, sizeof buf, pipe) != nullptr)
    output += buf;
  const int status = pipe != nullptr ? pclose(pipe) : -1;
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return LintResult{code, output};
}

TEST(VmatLint, CleanFixturePasses) {
  const auto r = run_lint("tools/fixtures/clean.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.output.empty()) << r.output;
}

TEST(VmatLint, SuppressionsSilenceEveryForm) {
  // suppressed.cpp holds real violations of three rules, each carrying a
  // same-line, previous-line, or file-level allow().
  const auto r = run_lint("tools/fixtures/suppressed.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.output.empty()) << r.output;
}

TEST(VmatLint, RawRngIsFlagged) {
  const auto r = run_lint("tools/fixtures/bad_rand.cpp");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.count("determinism-rng"), 3) << r.output;
  EXPECT_TRUE(r.mentions("bad_rand.cpp:9:")) << r.output;
  EXPECT_TRUE(r.mentions("bad_rand.cpp:14:")) << r.output;
  EXPECT_TRUE(r.mentions("bad_rand.cpp:19:")) << r.output;
}

TEST(VmatLint, DiscardedMacVerifyIsFlagged) {
  const auto r = run_lint("tools/fixtures/bad_discard.cpp");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.count("mac-verify-discarded"), 2) << r.output;
  EXPECT_TRUE(r.mentions("bad_discard.cpp:12:")) << r.output;
  EXPECT_TRUE(r.mentions("bad_discard.cpp:18:")) << r.output;
}

TEST(VmatLint, KeyMemcpyIsFlagged) {
  // Exactly one hit: the key-material copy, not the plain payload copy.
  const auto r = run_lint("tools/fixtures/bad_memcpy.cpp");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.count("key-memcpy"), 1) << r.output;
  EXPECT_TRUE(r.mentions("bad_memcpy.cpp:13:")) << r.output;
}

TEST(VmatLint, DefaultCaptureInPoolLambdaIsFlagged) {
  const auto r = run_lint("tools/fixtures/bad_capture.cpp");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.count("threadpool-ref-capture"), 2) << r.output;
  EXPECT_TRUE(r.mentions("bad_capture.cpp:11:")) << r.output;
  EXPECT_TRUE(r.mentions("bad_capture.cpp:15:")) << r.output;
}

TEST(VmatLint, StdoutInSrcIsFlagged) {
  // snprintf into a buffer must not count; cout and printf must.
  const auto r = run_lint("tools/fixtures/src/bad_cout.cpp");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.count("stdout-in-src"), 2) << r.output;
  EXPECT_TRUE(r.mentions("bad_cout.cpp:9:")) << r.output;
  EXPECT_TRUE(r.mentions("bad_cout.cpp:10:")) << r.output;
}

TEST(VmatLint, EnvKnobInSrcIsFlagged) {
  // std::getenv and bare getenv are flagged; the allow()-suppressed read
  // and a function that merely ends in "getenv" are not. (RealTreeIsClean
  // covers the src/util/parallel.cpp carve-out.)
  const auto r = run_lint("tools/fixtures/src/bad_getenv.cpp");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.count("env-knob"), 2) << r.output;
  EXPECT_TRUE(r.mentions("bad_getenv.cpp:8:")) << r.output;
  EXPECT_TRUE(r.mentions("bad_getenv.cpp:9:")) << r.output;
}

TEST(VmatLint, TraceSinkStdoutIsSanctioned) {
  // src/trace/ writes the trace-file pointer line directly; the stdout rule
  // carves it out just like core/report and util/stats.
  const auto r = run_lint("tools/fixtures/src/trace/clean_trace_sink.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.output.empty()) << r.output;
}

TEST(VmatLint, ServeDaemonStdoutIsSanctioned) {
  // src/serve/ prints vmatd operator status lines (only when stdout is not
  // the protocol channel); the stdout rule carves the component out just
  // like trace/, core/report and util/stats.
  const auto r = run_lint("tools/fixtures/src/serve/clean_serve_daemon.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.output.empty()) << r.output;
}

TEST(VmatLint, PredicatePurityIsFlagged) {
  // The non-const evaluate(), the member mutation in its body, and the RNG
  // draw in a const evaluate() are flagged; the pure form and the
  // allow()-suppressed form are not.
  const auto r = run_lint("tools/fixtures/src/campaign/bad_predicate_purity.cpp");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.count("predicate-purity"), 3) << r.output;
  EXPECT_TRUE(r.mentions("bad_predicate_purity.cpp:10:")) << r.output;
  EXPECT_TRUE(r.mentions("bad_predicate_purity.cpp:11:")) << r.output;
  EXPECT_TRUE(r.mentions("bad_predicate_purity.cpp:19:")) << r.output;
}

TEST(VmatLint, MissingNodiscardInCryptoHeaderIsFlagged) {
  // The const observer and the free function are flagged; the void mutator
  // and the value-returning non-const mutator are not.
  const auto r = run_lint("tools/fixtures/crypto/bad_nodiscard.h");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.count("missing-nodiscard"), 2) << r.output;
  EXPECT_TRUE(r.mentions("bad_nodiscard.h:14:")) << r.output;
  EXPECT_TRUE(r.mentions("bad_nodiscard.h:28:")) << r.output;
}

TEST(VmatLint, EagerRingMaterializationIsFlagged) {
  // The vector-of-KeyRing member and the per-node ring() sweep are
  // flagged; the ring_contains() sweep and the allow()-suppressed sweep
  // are not.
  const auto r = run_lint("tools/fixtures/src/keys_use/bad_eager_rings.cpp");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.count("eager-ring-materialization"), 2) << r.output;
  EXPECT_TRUE(r.mentions("bad_eager_rings.cpp:9:")) << r.output;
  EXPECT_TRUE(r.mentions("bad_eager_rings.cpp:15:")) << r.output;
}

TEST(VmatLint, HotPathAllocIsFlagged) {
  // The two raw allocations inside per-frame loops are flagged; the
  // allow()-suppressed copy, the allocation outside any frame loop, and
  // the reference binding are not.
  const auto r = run_lint("tools/fixtures/src/sim/bad_hot_alloc.cpp");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.count("hot-path-alloc"), 2) << r.output;
  EXPECT_TRUE(r.mentions("bad_hot_alloc.cpp:9:")) << r.output;
  EXPECT_TRUE(r.mentions("bad_hot_alloc.cpp:10:")) << r.output;
}

TEST(VmatLint, SnapshotUnsafeStateIsFlagged) {
  // The unordered_map member and the mutable-pointee raw pointer in the
  // snapshot_save()-bearing struct are flagged; the const-pointee pointer,
  // the flat vector, the nested helper's member, and the struct without
  // snapshot_save() are not.
  const auto r = run_lint("tools/fixtures/src/sim/bad_snapshot_state.cpp");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.count("snapshot-unsafe-state"), 2) << r.output;
  EXPECT_TRUE(r.mentions("bad_snapshot_state.cpp:13:")) << r.output;
  EXPECT_TRUE(r.mentions("bad_snapshot_state.cpp:14:")) << r.output;
}

TEST(VmatLint, WholeFixtureTreeTotals) {
  // One run over the whole fixture tree: totals must be the sum of the
  // per-file expectations above and nothing more.
  const auto r = run_lint("tools/fixtures");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.count("determinism-rng"), 3) << r.output;
  EXPECT_EQ(r.count("eager-ring-materialization"), 2) << r.output;
  EXPECT_EQ(r.count("env-knob"), 2) << r.output;
  EXPECT_EQ(r.count("mac-verify-discarded"), 2) << r.output;
  EXPECT_EQ(r.count("key-memcpy"), 1) << r.output;
  EXPECT_EQ(r.count("threadpool-ref-capture"), 2) << r.output;
  EXPECT_EQ(r.count("stdout-in-src"), 2) << r.output;
  EXPECT_EQ(r.count("missing-nodiscard"), 2) << r.output;
  EXPECT_EQ(r.count("predicate-purity"), 3) << r.output;
  EXPECT_EQ(r.count("hot-path-alloc"), 2) << r.output;
  EXPECT_EQ(r.count("snapshot-unsafe-state"), 2) << r.output;
  EXPECT_TRUE(r.mentions("23 violation(s)")) << r.output;
}

TEST(VmatLint, RuleFilterRunsOnlyThatRule) {
  const auto r =
      run_lint("--rule determinism-rng tools/fixtures");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.count("determinism-rng"), 3) << r.output;
  EXPECT_EQ(r.count("stdout-in-src"), 0) << r.output;
}

TEST(VmatLint, UnknownRuleIsUsageError) {
  const auto r = run_lint("--rule no-such-rule tools/fixtures");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_TRUE(r.mentions("unknown rule")) << r.output;
}

TEST(VmatLint, ListRulesIsSortedAndExitsZero) {
  // The catalog must print every rule in lexicographic order regardless of
  // registration (dict insertion) order, so diffs of CI logs are stable.
  const auto r = run_lint("--list-rules");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const char* rules[] = {
      "determinism-rng",       "eager-ring-materialization",
      "env-knob",              "hot-path-alloc",
      "key-memcpy",
      "mac-verify-discarded",  "missing-nodiscard",
      "predicate-purity",      "snapshot-unsafe-state",
      "stdout-in-src",         "threadpool-ref-capture"};
  std::size_t pos = 0;
  for (const auto* rule : rules) {
    const std::size_t at = r.output.find(rule, pos);
    ASSERT_NE(at, std::string::npos)
        << rule << " missing or out of order in:\n"
        << r.output;
    pos = at + 1;
  }
}

TEST(VmatLint, RealTreeIsClean) {
  // The shipping sources must satisfy every invariant — this is the same
  // invocation the vmat_lint ctest runs.
  const auto r = run_lint("src bench tests");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

}  // namespace
