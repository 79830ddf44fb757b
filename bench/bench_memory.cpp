// MEMORY — large-n footprint bench: bytes of heap per sensor for one full
// clean execution, alongside wall time, at n up to 250k (1M behind
// VMAT_BENCH_FULL=1). This is the acceptance instrument for the large-n
// memory diet: the committed baseline records both the pre-diet and
// post-diet bytes/node at n=8000 so the >=5x reduction is checked against
// a number measured by this same binary.
//
// Accounting: the binary replaces global operator new/delete with
// malloc_usable_size-counting wrappers (live + high-water atomics). A
// cell's bytes/node is the peak live delta over [Network construction ..
// run_min returns] divided by n — that window covers key/MAC caches, the
// arena fabric high-water, phase state, and audit trails, but not the
// topology itself, which is reported separately (it is shared across
// executions in every multi-trial harness).
//
// Determinism: each cell's execution outcome is folded into a 64-bit
// digest and re-checked across VMAT execution thread counts {1, 4, hw};
// any mismatch aborts the bench. Memory numbers are deterministic too
// (same allocation sequence), so perf_compare gates bytes_per_node at a
// tight tolerance.
#include <malloc.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/coordinator.h"
#include "trial_runner.h"
#include "util/stats.h"

// --- malloc-counting global new/delete -------------------------------------

namespace membench {

std::atomic<std::uint64_t> g_live{0};
std::atomic<std::uint64_t> g_peak{0};

inline void on_alloc(void* p) noexcept {
  if (p == nullptr) return;
  const std::uint64_t size = malloc_usable_size(p);
  const std::uint64_t now =
      g_live.fetch_add(size, std::memory_order_relaxed) + size;
  std::uint64_t peak = g_peak.load(std::memory_order_relaxed);
  while (now > peak && !g_peak.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

inline void on_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
}

[[nodiscard]] inline std::uint64_t live() noexcept {
  return g_live.load(std::memory_order_relaxed);
}

/// Restart high-water tracking from the current live size.
inline void reset_peak() noexcept {
  g_peak.store(live(), std::memory_order_relaxed);
}

[[nodiscard]] inline std::uint64_t peak() noexcept {
  return g_peak.load(std::memory_order_relaxed);
}

inline void* aligned_raw(std::size_t size, std::size_t align) noexcept {
  void* p = nullptr;
  if (posix_memalign(&p, align, size) != 0) return nullptr;
  return p;
}

}  // namespace membench

void* operator new(std::size_t size) {
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  membench::on_alloc(p);
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* p = std::malloc(size != 0 ? size : 1);
  membench::on_alloc(p);
  return p;
}

void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = membench::aligned_raw(size != 0 ? size : 1,
                                  static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  membench::on_alloc(p);
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  void* p = membench::aligned_raw(size != 0 ? size : 1,
                                  static_cast<std::size_t>(align));
  membench::on_alloc(p);
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& t) noexcept {
  return ::operator new(size, align, t);
}

void operator delete(void* p) noexcept {
  membench::on_free(p);
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  membench::on_free(p);
  std::free(p);
}
void operator delete[](void* p, std::align_val_t a) noexcept {
  ::operator delete(p, a);
}
void operator delete(void* p, std::size_t, std::align_val_t a) noexcept {
  ::operator delete(p, a);
}
void operator delete[](void* p, std::size_t, std::align_val_t a) noexcept {
  ::operator delete(p, a);
}

// --- bench -----------------------------------------------------------------

namespace {

vmat::NetworkSpec bench_keys(std::uint64_t seed) {
  vmat::NetworkSpec cfg;
  cfg.keys.pool_size = 1000;
  cfg.keys.ring_size = 180;
  cfg.keys.seed = seed;
  return cfg;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Deterministic non-uniform readings: the minimum (value 7) sits mid-id so
/// the digest depends on real aggregation, not a constant plain.
std::vector<vmat::Reading> cell_readings(std::uint32_t n) {
  std::vector<vmat::Reading> readings(n);
  for (std::uint32_t id = 0; id < n; ++id)
    readings[id] = 500 + static_cast<vmat::Reading>(id % 1000);
  readings[n / 2] = 7;
  return readings;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Fold every outcome field that the protocol determines (not timing) into
/// one 64-bit value. Used to assert bit-identical behavior across thread
/// counts.
std::uint64_t outcome_digest(const vmat::ExecutionOutcome& out) {
  std::uint64_t h = 0x564d4154u;  // "VMAT"
  h = mix(h, static_cast<std::uint64_t>(out.kind));
  h = mix(h, static_cast<std::uint64_t>(out.trigger));
  h = mix(h, static_cast<std::uint64_t>(out.data_rounds));
  h = mix(h, out.fabric_bytes);
  h = mix(h, out.minima.size());
  for (const vmat::Reading r : out.minima)
    h = mix(h, static_cast<std::uint64_t>(r));
  h = mix(h, out.revoked_keys.size());
  for (const auto k : out.revoked_keys) h = mix(h, k.value);
  h = mix(h, out.revoked_sensors.size());
  for (const auto s : out.revoked_sensors) h = mix(h, s.value);
  return h;
}

struct CellRun {
  double exec_ms{0.0};        ///< run_min wall time
  std::uint64_t peak_bytes{0};  ///< heap high-water delta over the run
  std::uint64_t digest{0};
};

/// One full clean execution at `n` on `topo`, with heap accounting over
/// [Network construction .. run_min returns].
CellRun run_cell(const vmat::Topology& topo, std::uint32_t n) {
  CellRun run;
  const auto cfg = bench_keys(n);
  const std::uint64_t live_before = membench::live();
  membench::reset_peak();
  vmat::Network net(topo, cfg);
  vmat::VmatCoordinator coordinator(&net, nullptr, vmat::CoordinatorSpec{});
  const auto readings = cell_readings(n);
  const auto start = std::chrono::steady_clock::now();
  const auto out = coordinator.run_min(readings);
  run.exec_ms = ms_since(start);
  if (out.kind != vmat::OutcomeKind::kResult) {
    std::fprintf(stderr, "bench_memory: clean run failed at n=%u: %s\n", n,
                 out.reason.c_str());
    std::abort();
  }
  run.peak_bytes = membench::peak() - live_before;
  run.digest = outcome_digest(out);
  return run;
}

/// Digest of one execution under a forced intra-execution thread count.
std::uint64_t digest_at_threads(const vmat::Topology& topo, std::uint32_t n,
                                std::size_t exec_threads) {
  vmat::set_intra_execution_threads(exec_threads);
  const std::uint64_t digest = run_cell(topo, n).digest;
  vmat::set_intra_execution_threads(0);
  return digest;
}

[[nodiscard]] bool env_flag(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

/// Pre-diet reference for the acceptance gate: bytes/node of a clean
/// n=8000 execution measured by this same binary at the commit preceding
/// the memory diet (eager rings, nested parents/audits, resident fabric).
/// Override with VMAT_BENCH_PREDIET_BPN when re-baselining.
constexpr double kPreDietBytesPerNodeN8000 = 3129.05;

/// VMAT_BENCH_ACCEPT=1: the memory-diet acceptance gate. Clean n=8000
/// must come in at >= 5x fewer heap bytes per node than the pre-diet
/// measurement, with the same digest at 1 and 4 execution threads.
/// Non-zero exit on a miss.
int run_acceptance_gate() {
  constexpr std::uint32_t n = 8000;
  double pre_diet = kPreDietBytesPerNodeN8000;
  if (const char* env = std::getenv("VMAT_BENCH_PREDIET_BPN"))
    pre_diet = std::atof(env);
  std::printf("MEMORY acceptance gate | clean n=%u vs pre-diet %.0f B/node\n",
              n, pre_diet);
  const double radius = vmat::Topology::connected_radius(n);
  const auto topo = vmat::Topology::random_geometric(n, radius, 7);

  const CellRun measured = run_cell(topo, n);
  const std::uint64_t one = digest_at_threads(topo, n, 1);
  const std::uint64_t four = digest_at_threads(topo, n, 4);
  const bool digests_ok = one == measured.digest && four == measured.digest;
  std::printf("  digests at 1 / 4 threads:  %016llx / %016llx  %s\n",
              static_cast<unsigned long long>(one),
              static_cast<unsigned long long>(four),
              digests_ok ? "PASS" : "FAIL");
  const double bpn = static_cast<double>(measured.peak_bytes) / n;
  const double reduction = pre_diet / bpn;
  const bool diet_ok = reduction >= 5.0;
  std::printf("  bytes/node:    %.0f, %.2fx vs pre-diet (need >= 5.00x)  %s\n",
              bpn, reduction, diet_ok ? "PASS" : "FAIL");
  const bool ok = digests_ok && diet_ok;
  std::printf("MEMORY acceptance gate: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main() {
  if (env_flag("VMAT_BENCH_ACCEPT")) return run_acceptance_gate();

  std::printf(
      "MEMORY | heap bytes per sensor for one clean execution "
      "(peak-live delta over Network ctor + run_min)\n\n");

  std::vector<std::uint32_t> sizes = {8000u, 50000u, 100000u, 250000u};
  if (env_flag("VMAT_BENCH_FULL")) sizes.push_back(1000000u);
  if (vmat::bench::smoke()) sizes = {4000u};
  if (const char* env = std::getenv("VMAT_BENCH_MAX_N");
      env != nullptr && *env != '\0') {
    const auto max_n = static_cast<std::uint32_t>(std::atoll(env));
    std::erase_if(sizes, [max_n](std::uint32_t n) { return n > max_n; });
  }

  vmat::bench::BenchReport report("bench_memory");
  report.config("sizes", static_cast<std::int64_t>(sizes.size()));

  // Memory numbers are deterministic; the wall-time column still wants an
  // uncontended timing, so every cell runs on a dedicated serial pool.
  vmat::ThreadPool serial(1);

  vmat::TablePrinter table({"n", "bytes/node", "peak MB", "topo B/node",
                            "exec ms", "digest"});
  for (const std::uint32_t n : sizes) {
    const double radius = vmat::Topology::connected_radius(n);
    const std::uint64_t live_before_topo = membench::live();
    const auto topo = vmat::Topology::random_geometric(n, radius, 7);
    const std::uint64_t topo_bytes = membench::live() - live_before_topo;

    CellRun measured;
    auto& group = report.group("clean n=" + std::to_string(n));
    vmat::bench::timed_trials(
        group, 1, 0,
        [&](std::size_t, vmat::Rng&) { measured = run_cell(topo, n); },
        &serial);

    // Determinism cross-checks: identical outcome digest for forced
    // execution-thread counts 1, 4, and hardware concurrency.
    const std::size_t hw =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}, hw}) {
      const std::uint64_t digest = digest_at_threads(topo, n, threads);
      if (digest != measured.digest) {
        std::fprintf(stderr,
                     "bench_memory: digest mismatch at n=%u threads=%zu "
                     "(%016llx vs %016llx)\n",
                     n, threads,
                     static_cast<unsigned long long>(digest),
                     static_cast<unsigned long long>(measured.digest));
        return 1;
      }
    }

    const double bytes_per_node =
        static_cast<double>(measured.peak_bytes) / n;
    const double topo_per_node = static_cast<double>(topo_bytes) / n;
    group.metric("bytes_per_node", bytes_per_node);
    group.metric("peak_mb", static_cast<double>(measured.peak_bytes) / 1e6);
    group.metric("topo_bytes_per_node", topo_per_node);
    group.metric("exec_ms_min", measured.exec_ms);
    // Digest split into two 32-bit halves: every metric is a double, and
    // 32-bit integers round-trip exactly.
    group.metric("digest_hi", static_cast<double>(measured.digest >> 32));
    group.metric("digest_lo",
                 static_cast<double>(measured.digest & 0xffffffffull));

    char digest_hex[20];
    std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                  static_cast<unsigned long long>(measured.digest));
    table.add_row({std::to_string(n), vmat::TablePrinter::fmt(bytes_per_node, 0),
                   vmat::TablePrinter::fmt(measured.peak_bytes / 1e6, 1),
                   vmat::TablePrinter::fmt(topo_per_node, 0),
                   vmat::TablePrinter::fmt(measured.exec_ms, 1), digest_hex});
  }
  table.print();
  report.write();
  return 0;
}
