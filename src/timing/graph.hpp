// Compiled flat timing graph: a one-shot compilation of a Network +
// Library into an immutable CSR / struct-of-arrays form that the timing
// hot loops (full STA, incremental STA, the power model's loads, CPN
// extraction, the Dscale candidate scan) walk instead of chasing pointers
// through AoS Node objects.
//
// What the compilation precomputes:
//   - flat fanin adjacency (CSR) with one pre-resolved TimingArc per pin,
//     including the unateness-derived default arcs of unmapped gates that
//     the seed STA recomputed on every evaluation;
//   - per-driver *unique*-fanout pin entries (sink, pin, pin-cap) laid out
//     in the exact visit order of `for_each_unique_fanout` + ascending pin
//     scan, so float accumulation over the entries is bit-identical to the
//     seed walks, plus the distinct fanouts in that order;
//   - the cached topological order and logic levels;
//   - per-node output-port fanout counts and node-kind flags.
//
// Structure is immutable: the graph records the network's
// `structural_version()` at compile time, and consumers (Design owns one)
// recompile when the topology changes.  Point changes patch in place: a
// cell resize is absorbed by `sync_node` (or the O(n) compare-only
// `sync_cells` sweep that every full analysis runs first), which refreshes
// the node's arcs and its pin caps on every driver's entry list.  Supply
// voltages and level-converter flags are never snapshotted — the hot loops
// read them live from the TimingContext spans, which are already flat.
//
// The sync methods mutate only the mapping snapshot (cells / arcs / caps)
// and are safe to call through a const reference; a TimingGraph must not
// be shared across threads that analyze concurrently.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "library/library.hpp"
#include "netlist/network.hpp"
#include "timing/sta.hpp"

namespace dvs {

class TimingGraph {
 public:
  /// One fanout pin of a driver: `sink` reads the driver on input `pin`.
  struct FanoutPin {
    NodeId sink = kNoNode;
    std::int32_t pin = 0;
  };

  /// Compiles `net` + `lib`.  The references must outlive the graph.
  TimingGraph(const Network& net, const Library& lib);

  const Network& network() const { return *net_; }
  const Library& library() const { return *lib_; }

  /// Network structural version this graph was compiled against.
  std::uint64_t structural_version() const { return structural_version_; }

  /// True iff this graph is a current compilation of exactly this
  /// network/library pair (same objects, no structural edits since).
  bool describes(const Network& net, const Library& lib) const {
    return net_ == &net && lib_ == &lib &&
           structural_version_ == net.structural_version();
  }

  // ---- cached orders ----------------------------------------------------
  /// Live nodes, fanins before fanouts; identical to topo_order(net).
  const std::vector<NodeId>& topo_order() const { return topo_order_; }
  /// Logic level per node id (inputs 0, gates 1 + max fanin level; dead
  /// slots hold -1); identical to logic_levels(net).
  const std::vector<int>& levels() const { return level_; }

  // ---- flat structure ---------------------------------------------------
  bool is_gate(NodeId id) const { return gate_flag_[id] != 0; }
  /// Fanin node per input pin, mirroring Node::fanins verbatim.
  std::span<const NodeId> fanins(NodeId id) const {
    return {fanin_.data() + fanin_offset_[id],
            fanin_.data() + fanin_offset_[id + 1]};
  }
  /// Pre-resolved timing arc per input pin, parallel to fanins().
  std::span<const TimingArc> arcs(NodeId id) const {
    return {arc_.data() + fanin_offset_[id],
            arc_.data() + fanin_offset_[id + 1]};
  }

  /// Fanout pin entries of a driver, grouped by sink in the canonical
  /// unique-fanout visit order with pins ascending inside each group.
  std::span<const FanoutPin> fanout_pins(NodeId id) const {
    return {entry_.data() + entry_offset_[id],
            entry_.data() + entry_offset_[id + 1]};
  }
  /// Input-pin capacitance per fanout pin entry, parallel to
  /// fanout_pins().  Accumulating these in entry order reproduces the
  /// seed load walks bit-for-bit.
  std::span<const double> fanout_pin_caps(NodeId id) const {
    return {entry_cap_.data() + entry_offset_[id],
            entry_cap_.data() + entry_offset_[id + 1]};
  }

  /// Distinct fanout nodes of a driver, in canonical visit order.
  std::span<const NodeId> unique_fanouts(NodeId id) const {
    return {uniq_.data() + uniq_offset_[id],
            uniq_.data() + uniq_offset_[id + 1]};
  }

  /// Number of primary-output ports this node drives.
  int port_fanout_count(NodeId id) const { return port_count_[id]; }

  // ---- point-change patching -------------------------------------------
  /// Refreshes everything derived from `id`'s mapped cell: its arcs and
  /// the pin caps on each of its drivers' entry lists.
  /// Call after Network::set_cell; full analyses self-heal via
  /// sync_cells().
  void sync_node(NodeId id) const;
  /// Compare-only sweep over all live nodes; patches any whose cell moved
  /// since compilation or the last sync.
  void sync_cells() const;

 private:
  void compile();
  void patch_cell(NodeId id) const;

  const Network* net_;
  const Library* lib_;
  std::uint64_t structural_version_ = 0;

  std::vector<NodeId> topo_order_;
  std::vector<int> level_;
  std::vector<char> gate_flag_;
  std::vector<int> port_count_;

  // Fanin CSR: pins of node id live at [fanin_offset_[id],
  // fanin_offset_[id+1]); arc_ is parallel, fanin_entry_ cross-links each
  // pin to the one entry representing it on its driver's fanout list.
  std::vector<std::int32_t> fanin_offset_;
  std::vector<NodeId> fanin_;
  mutable std::vector<TimingArc> arc_;
  std::vector<std::int32_t> fanin_entry_;

  // Fanout entry CSR and the distinct fanouts per driver.
  std::vector<std::int32_t> entry_offset_;
  std::vector<FanoutPin> entry_;
  mutable std::vector<double> entry_cap_;
  std::vector<std::int32_t> uniq_offset_;
  std::vector<NodeId> uniq_;

  // Mapped-cell snapshot the arcs/caps were resolved against.
  mutable std::vector<std::int32_t> cell_;
};

}  // namespace dvs
