// Event-driven incremental timing: keeps a StaResult up to date across
// point changes (a gate's supply, cell size, or level-converter flag)
// without re-analyzing the whole network.  CVS commits hundreds of
// single-gate changes per run, each followed by a timing query; the
// incremental engine turns that from O(n) per commit into O(affected).
//
// The engine reads the live TimingContext spans on every update, so the
// caller mutates its vdd / cell / lc state first and then calls
// `on_node_changed(id)`.  Several changes may be made before notifying:
// once every touched node has been notified (in any order) the state
// equals a full analysis again.
//
// Worklists are buckets indexed by the compiled graph's logic levels, with
// an epoch-stamped membership array: the arrival sweep drains them in
// ascending level order, the required-time sweep in descending order.  A
// node's arrival reads only its fanins (strictly lower levels) and its
// required time only its fanouts (strictly higher levels), so every node is
// recomputed once, after all of its inputs — the same values a
// topological-rank walk produces.  The engine owns the buckets, which
// full_recompute() re-sizes after a structural edit, and builds its timing
// recipe (arc_eval.hpp, with the per-rung delay-factor memo) once.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "timing/sta.hpp"

namespace dvs {

namespace timing_detail {
struct Recipe;
}

class IncrementalSta {
 public:
  /// Captures the context (the spans must outlive this object) and runs a
  /// full analysis.  When `ctx.graph` carries a current compiled graph the
  /// engine shares it (levels and adjacency both come from it); otherwise
  /// it compiles a private one.
  IncrementalSta(const TimingContext& ctx, double tspec);
  ~IncrementalSta();

  /// Current timing state; always consistent with the last notified
  /// change.
  const StaResult& result() const { return result_; }
  /// The captured context and the compiled graph the engine walks
  /// (IncrementalPower reads both).
  const TimingContext& context() const { return ctx_; }
  const TimingGraph& graph() const { return *graph_; }

  /// The node's supply, cell, or LC flag changed (after the fact).
  /// Recomputes the affected loads, then propagates arrival changes
  /// forward and required-time changes backward along the worklists.
  void on_node_changed(NodeId id);

  /// Full re-analysis (also the recovery path after structural edits:
  /// recompiles the graph and re-sizes the worklists).
  void full_recompute();

  /// Verification hook: true iff every field of the incremental state
  /// equals a fresh full analysis exactly (`==`, no tolerance).
  bool matches_full_sta() const;

 private:
  // The per-node steps run the shared recipe (timing/arc_eval.hpp) over
  // the maintained result; the change tests are bitwise, so a change
  // stops propagating only where the recomputed doubles equal the stored
  // ones — which is why the state always equals a full analysis.
  /// Recomputes the direct/LC load split of one node.
  void recompute_load(NodeId id);
  /// Recomputes arrival (and LC arrival) of one node from its fanins.
  /// Returns true when either changed.
  bool recompute_arrival(NodeId id);
  /// Recomputes the required time of one node from its fanouts (pull).
  /// Returns true when it changed.
  bool recompute_required(NodeId id);
  /// Fresh full analysis over the engine's graph.
  StaResult analyze_full() const;

  /// Starts a sweep: empties the membership marks in O(1).
  void begin_sweep();
  /// Queues `v` in its level bucket unless the sweep already holds it.
  void enqueue(NodeId v);

  TimingContext ctx_;
  double tspec_;
  StaResult result_;
  const TimingGraph* graph_ = nullptr;
  std::unique_ptr<TimingGraph> owned_graph_;  // when the caller gave none
  std::unique_ptr<timing_detail::Recipe> recipe_;

  // Sweep worklists: bucket[l] holds the queued nodes of logic level l;
  // `queued_[v] == epoch_` marks v as queued in the current sweep, and
  // [lo_, hi_] bounds the levels queued so far.
  std::vector<std::vector<NodeId>> bucket_;
  std::vector<std::uint32_t> queued_;
  std::uint32_t epoch_ = 0;
  int lo_ = 0;
  int hi_ = -1;
};

}  // namespace dvs
