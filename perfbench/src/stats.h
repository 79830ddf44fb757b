// Small numeric helpers the benchmark owns, so that a change to the
// program's own statistics or RNG code cannot change how the benchmark
// generates inputs or summarises timings.
#pragma once

#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady_clock stamps.
[[nodiscard]] inline double ms_between(Clock::time_point from,
                                       Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// The p-th percentile (p in [0, 100]) by linear interpolation between the
/// closest ranks: rank = p/100 * (n-1). This is numpy's default and Python's
/// statistics.quantiles(method="inclusive"). Returns 0 for an empty input.
[[nodiscard]] double percentile(std::vector<double> values, double p);

[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// Arithmetic mean; 0 for an empty input.
[[nodiscard]] double mean(const std::vector<double>& values);

/// splitmix64: every benchmark input is drawn from one of these, seeded
/// from the --seed argument and a per-purpose stream tag.
class SeedStream {
 public:
  SeedStream(std::uint64_t seed, std::uint64_t stream) noexcept
      : state_(seed * 0x9e3779b97f4a7c15ULL ^ stream) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound) (bound > 0; the modulo bias is irrelevant here).
  std::uint64_t below(std::uint64_t bound) noexcept { return next() % bound; }

 private:
  std::uint64_t state_;
};

}  // namespace perfbench
