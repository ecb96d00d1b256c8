// Shared random point-edit stream of the incremental-engine property
// tests (incremental_vs_full_test, power_test): supply retargets and
// one-step resizes on random gates.
#pragma once

#include <vector>

#include "core/design.hpp"
#include "support/rng.hpp"

namespace dvs {

/// One random mutation: a supply retarget to a different rung of the
/// design's ladder (which also migrates the derived level-converter
/// flags on the gate and its fanins) or a one-step resize.  Returns the
/// changed node, or kNoNode if the draw found nothing applicable.
inline NodeId random_flip(Design& design, Rng& rng) {
  const Network& net = design.network();
  const Library& lib = design.library();
  std::vector<NodeId> gates;
  net.for_each_gate([&](const Node& g) {
    if (g.cell >= 0) gates.push_back(g.id);
  });
  if (gates.empty()) return kNoNode;
  const NodeId id = gates[rng.next_below(gates.size())];
  switch (rng.next_below(3)) {
    case 0: {  // supply retarget, LC flags follow
      const SupplyId depth = static_cast<SupplyId>(lib.supplies().depth());
      const SupplyId step =
          static_cast<SupplyId>(1 + rng.next_below(depth - 1));
      design.set_level(
          id, static_cast<SupplyId>((design.level(id) + step) % depth));
      return id;
    }
    case 1: {  // upsize one drive step
      const int up = lib.upsize(net.node(id).cell);
      if (up < 0) return kNoNode;
      design.network().set_cell(id, up);
      return id;
    }
    default: {  // downsize one drive step
      const int down = lib.downsize(net.node(id).cell);
      if (down < 0) return kNoNode;
      design.network().set_cell(id, down);
      return id;
    }
  }
}

}  // namespace dvs
