// Umbrella header: the full public API of the VMAT library.
//
// Quickstart — one SimulationSpec describes the whole deployment, and the
// epoch-batched Engine serves every query over shared tree formations
// (see examples/quickstart.cpp and examples/vmatsim.cpp --serve):
//
//   vmat::SimulationSpec spec;
//   spec.nodes(400).accuracy(0.1, 0.05).seed(1);
//   vmat::Network net(spec);
//   vmat::VmatCoordinator coordinator(&net, /*adversary=*/nullptr, spec);
//
//   // One tree formation per epoch, shared by the whole batch; a one-shot
//   // query is a batch of one. EngineQuery::max_executions bounds the
//   // Theorem 7 retries.
//   vmat::Engine engine(&coordinator);
//   auto results = engine.run_batch(std::move(batch));
//
// The per-layer section types (NetworkSpec, CoordinatorSpec, ...) remain
// available for fine-grained construction. An attack is a genome — a named
// one (campaign::named_genome) or any (policy, predicate, seed) triple —
// placed through the spec's attack section (spec/attack_spec.h);
// attack/strategies.h keeps only the behaviour no genome expresses.
#pragma once

#include "attack/adversary.h"        // IWYU pragma: export
#include "attack/strategies.h"       // IWYU pragma: export
#include "baseline/sampling.h"       // IWYU pragma: export
#include "baseline/send_all.h"       // IWYU pragma: export
#include "baseline/tag.h"            // IWYU pragma: export
#include "broadcast/auth_broadcast.h"  // IWYU pragma: export
#include "campaign/corpus.h"         // IWYU pragma: export
#include "campaign/predicate.h"      // IWYU pragma: export
#include "campaign/runner.h"         // IWYU pragma: export
#include "campaign/strategy.h"       // IWYU pragma: export
#include "core/aggregation.h"        // IWYU pragma: export
#include "core/audit.h"              // IWYU pragma: export
#include "core/confirmation.h"       // IWYU pragma: export
#include "core/coordinator.h"        // IWYU pragma: export
#include "core/messages.h"           // IWYU pragma: export
#include "core/pinpoint.h"           // IWYU pragma: export
#include "core/predicate_test.h"     // IWYU pragma: export
#include "core/report.h"             // IWYU pragma: export
#include "core/synopsis.h"           // IWYU pragma: export
#include "core/tree_formation.h"     // IWYU pragma: export
#include "crypto/hash_chain.h"       // IWYU pragma: export
#include "crypto/hmac.h"             // IWYU pragma: export
#include "crypto/mac.h"              // IWYU pragma: export
#include "crypto/prf.h"              // IWYU pragma: export
#include "crypto/sha256.h"           // IWYU pragma: export
#include "engine/engine.h"           // IWYU pragma: export
#include "keys/key_pool.h"           // IWYU pragma: export
#include "keys/key_ring.h"           // IWYU pragma: export
#include "keys/predistribution.h"    // IWYU pragma: export
#include "keys/revocation.h"         // IWYU pragma: export
#include "serve/client.h"            // IWYU pragma: export
#include "serve/daemon.h"            // IWYU pragma: export
#include "serve/protocol.h"          // IWYU pragma: export
#include "sim/fabric.h"              // IWYU pragma: export
#include "sim/network.h"             // IWYU pragma: export
#include "sim/topology.h"            // IWYU pragma: export
#include "spec/attack_spec.h"        // IWYU pragma: export
#include "spec/simulation_spec.h"    // IWYU pragma: export
#include "trace/checker.h"           // IWYU pragma: export
#include "trace/trace.h"             // IWYU pragma: export
#include "util/error.h"              // IWYU pragma: export
#include "util/ids.h"                // IWYU pragma: export
#include "util/parallel.h"           // IWYU pragma: export
#include "util/random.h"             // IWYU pragma: export
#include "util/stats.h"              // IWYU pragma: export
