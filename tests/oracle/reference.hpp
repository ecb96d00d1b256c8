// Seed (pre-compiled-graph) timing walks, kept verbatim as the test oracle
// for the flat-graph engines: pointer-chasing AoS traversal, per-visit
// fanout deduplication, per-arc library resolution, push-style required
// times.  Test-only (the dvs_test_oracle target): the randomized
// equivalence suites (timing_graph_test, incremental_vs_full_test)
// require the graph-based STA to reproduce these bit-for-bit.
#pragma once

#include "timing/sta.hpp"

namespace dvs {

/// Full STA over the raw Network, ignoring any ctx.graph.
StaResult run_sta_reference(const TimingContext& ctx, double tspec);

}  // namespace dvs
