// TXT-COMM — reproduces the Section IX communication comparison: VMAT's
// synopsis-based aggregation moves ~2.4-3.2 KB of payload per query,
// against >= 80 KB for the naive "send every MAC'd reading to the base
// station" approach at n = 10,000 — one to two orders of magnitude.
//
// Two views:
//  * modeled: per-query payload of m synopses vs n records, as the paper
//    counts it;
//  * measured: actual fabric bytes of a full VMAT execution vs the
//    convergecast baseline on the same simulated topology, including the
//    hottest single relay (the radio that burns out first).
#include <cstdio>

#include "baseline/send_all.h"
#include "core/coordinator.h"
#include "engine/engine.h"
#include "sim/fabric.h"
#include "sim/network.h"
#include "util/stats.h"

namespace {

/// On-wire bytes of one synopsis record in our encoding: origin(4) +
/// instance(4) + value(8) + weight(8) + MAC(8).
constexpr std::uint64_t kSynopsisBytes = 32;
constexpr std::uint64_t kRecordBytes = 20;  // id + reading + MAC
constexpr std::uint32_t kInstances = 100;

vmat::NetworkSpec bench_keys() {
  vmat::NetworkSpec cfg;
  cfg.keys.pool_size = 400;
  cfg.keys.ring_size = 120;
  cfg.keys.seed = 77;
  return cfg;
}

}  // namespace

int main() {
  std::printf(
      "TXT-COMM | Section IX: per-query communication, VMAT (m=%u synopses) "
      "vs naive send-all\n\n",
      kInstances);

  {
    vmat::TablePrinter table({"n sensors", "VMAT payload (KB)",
                              "send-all payload (KB)", "ratio"});
    for (const std::uint32_t n : {100u, 1000u, 10000u, 100000u}) {
      const double vmat_kb =
          static_cast<double>(kInstances * kSynopsisBytes) / vmat::kBytesPerKb;
      const double naive_kb =
          static_cast<double>(n) * kRecordBytes / vmat::kBytesPerKb;
      table.add_row({std::to_string(n), vmat::TablePrinter::fmt(vmat_kb, 1),
                     vmat::TablePrinter::fmt(naive_kb, 1),
                     vmat::TablePrinter::fmt(naive_kb / vmat_kb, 1)});
    }
    std::printf("modeled (paper's counting; records: %lu B, synopsis: %lu B):\n",
                static_cast<unsigned long>(kRecordBytes),
                static_cast<unsigned long>(kSynopsisBytes));
    table.print();
    std::printf("\n");
  }

  {
    // The battery-relevant metric is the *hottest sensor*: with send-all,
    // the relays next to the base station carry Θ(n) records; with VMAT a
    // sensor's cost is bounded by its degree times the bundle size,
    // independent of n.
    vmat::TablePrinter table({"n", "VMAT hottest-node KB",
                              "send-all hottest-node KB", "ratio"});
    for (const std::uint32_t side : {10u, 17u, 24u}) {
      const std::uint32_t n = side * side;
      vmat::Network net(vmat::Topology::grid(side, side), bench_keys());

      // Measured VMAT execution with m synopses.
      vmat::CoordinatorSpec cfg;
      cfg.instances = kInstances;
      vmat::VmatCoordinator coordinator(&net, nullptr, cfg);
      vmat::EngineQuery count;
      count.kind = vmat::EngineQueryKind::kCount;
      count.predicate.assign(n, 1);
      count.predicate[0] = 0;
      vmat::Engine engine(&coordinator);
      (void)engine.run_batch({std::move(count)});
      std::uint64_t vmat_hottest = 0;
      for (std::uint32_t id = 1; id < n; ++id) {
        const auto node_bytes = net.fabric().bytes_sent(vmat::NodeId{id}) +
                                net.fabric().bytes_received(vmat::NodeId{id});
        vmat_hottest = std::max(vmat_hottest, node_bytes);
      }

      std::vector<vmat::Reading> readings(n, 100);
      const auto send_all = vmat::run_send_all(net, readings);

      const double vmat_kb = static_cast<double>(vmat_hottest) / vmat::kBytesPerKb;
      const double naive_kb =
          static_cast<double>(send_all.max_node_bytes) / vmat::kBytesPerKb;
      table.add_row({std::to_string(n), vmat::TablePrinter::fmt(vmat_kb, 1),
                     vmat::TablePrinter::fmt(naive_kb, 1),
                     vmat::TablePrinter::fmt(naive_kb / vmat_kb, 2)});
    }
    std::printf(
        "measured on simulated grids (hottest sensor per query; VMAT side "
        "includes tree formation,\nbundles, and confirmation):\n");
    table.print();
  }

  std::printf(
      "\nShape checks vs paper: VMAT per-query payload is constant in n; "
      "send-all grows linearly,\nreaching one-two orders of magnitude more "
      "by n = 10,000 (80 KB vs 2.4 KB in the paper's units).\n");
  return 0;
}
