// Exact incremental power: keeps every node's equation-(1) terms up to
// date across point changes (a gate's supply, cell size, or level-
// converter flag), so a search loop can score a trial move without a
// whole-circuit compute_power.
//
// The engine sits beside an IncrementalSta over the same state and reads
// its loads (`result().load` / `lc_load`), so each load is computed
// once, by the timing recipe.  The caller mutates the state, notifies the
// timer, and then calls `on_node_changed(id)` here: a point change moves
// the terms of the node itself and of its fanin drivers only (their loads
// see its pin caps and supply; Design re-derives their converter flags).
//
// total() re-adds the stored terms category by category in node order,
// exactly as compute_power sums them, so it is bit-identical to
// `compute_power(ctx).total()` — O(n) additions, but no load or energy
// work (DESIGN.md, "Exact incremental power").
#pragma once

#include <vector>

#include "power/power_model.hpp"

namespace dvs {

class IncrementalSta;

class IncrementalPower {
 public:
  /// Captures the context (its spans and `timer` must outlive this
  /// object) and evaluates every node.  `timer` must analyze the same
  /// network, library, supplies, converter flags and port load.
  IncrementalPower(const PowerContext& ctx, const IncrementalSta& timer);

  /// The node's supply, cell, or LC flag changed, and the timer has been
  /// notified of it.  Re-evaluates the node and its fanin drivers.
  void on_node_changed(NodeId id);

  /// compute_power(ctx).total(), bit for bit.
  double total() const;

  /// Verification hook: true iff the category sums and every node's
  /// power equal a fresh compute_power exactly (`==`, no tolerance).
  bool matches_full_power() const;

 private:
  void recompute(NodeId id);
  /// The four category sums (node_power left empty).
  PowerBreakdown sums() const;

  PowerContext ctx_;
  const IncrementalSta* timer_;
  std::vector<NodePower> terms_;  // indexed by NodeId
};

}  // namespace dvs
