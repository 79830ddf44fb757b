// The three workloads. Each builds its inputs from Options::seed, measures
// for Options::seconds, checks every op's output, and returns either the
// end-to-end metrics (untraced) or every per-layer metric (traced). See
// NOTES.md for why each exists and which layer it stresses.
#pragma once

#include "report.h"

namespace perfbench {

/// clean-50k: one-shot clean MIN executions over a 50 000-sensor
/// geometric deployment, fresh readings per op.
[[nodiscard]] RunResult run_clean(const Options& options);

/// probe-1k: choke-veto campaign probes replayed through a CampaignRunner
/// over a 1 000-sensor deployment with 4 compromised sensors.
[[nodiscard]] RunResult run_probe(const Options& options);

/// serve-8x36-w64: a closed loop of 64 callers driving one serve::Daemon
/// (8 tenants of 36-sensor grids, tenant 0 attacked) through the codec.
[[nodiscard]] RunResult run_serve(const Options& options);

}  // namespace perfbench
