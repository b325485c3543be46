// Operational runbook demo: checkpoint a live Forgiving Graph as an fgsnap
// base image (docs/SNAPSHOTS.md), keep attacking the original, then restore
// the checkpoint and replay the same attack trace — the restored network
// heals into exactly the same topology.
//
//   $ ./examples/checkpoint_restore
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "fg/forgiving_graph.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "harness/trace.h"
#include "heal/healer.h"
#include "snap/snapshot.h"
#include "util/rng.h"

int main() {
  using namespace fg;
  Rng rng(2026);
  Graph g0 = make_barabasi_albert(64, 2, rng);
  ForgivingGraph network(g0);

  // Phase 1: absorb some damage.
  for (int i = 0; i < 20; ++i) {
    auto alive = network.healed().alive_nodes();
    network.remove(rng.pick(alive));
  }
  std::cout << "after 20 deletions: " << network.healed().alive_count()
            << " alive, connected = " << std::boolalpha
            << is_connected(network.healed()) << "\n";

  // Phase 2: checkpoint to bytes (in a real deployment, a file written
  // with snap::write_file_atomic).
  snap::BaseImage image;
  network.core().to_base_image(&image);
  const std::vector<uint8_t> checkpoint = snap::encode_base(image);
  std::cout << "checkpoint size: " << checkpoint.size() << " bytes\n";

  // Phase 3: the attack continues; record it as a trace.
  Trace assault;
  for (int i = 0; i < 15; ++i) {
    auto alive = network.healed().alive_nodes();
    Action a{Action::Kind::kDelete, rng.pick(alive), {}, {}, {}};
    assault.record(a);
    network.remove(a.target);
  }

  // Phase 4: restore the checkpoint elsewhere and replay the same assault.
  // The loader checks every section and returns an error on bad bytes.
  snap::BaseImage decoded;
  core::StructuralCore core;
  std::string error;
  if (!snap::decode_base(checkpoint, &decoded, &error) ||
      !core::StructuralCore::from_base_image(decoded, &core, &error)) {
    std::cerr << "restore failed: " << error << "\n";
    return 1;
  }
  ForgivingGraph restored(std::move(core));
  restored.validate();
  for (const Action& a : assault.actions()) restored.remove(a.target);

  bool identical = network.healed().same_topology(restored.healed());
  std::cout << "restored replica after replaying the 15-deletion trace: topology "
            << (identical ? "IDENTICAL" : "DIVERGED") << "\n";
  std::cout << "degree ratio " << network.max_degree_ratio() << " (bound 3), connected = "
            << is_connected(restored.healed()) << "\n";
  return identical ? 0 : 1;
}
