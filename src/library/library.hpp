// Cell library container: cell storage, name lookup, drive-variant groups
// (for gate sizing), function matching (for the technology mapper), the
// voltage model, the supply ladder (the multi-Vdd operating point), and a
// wire-load model.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "library/cell.hpp"
#include "library/supply.hpp"
#include "library/voltage_model.hpp"

namespace dvs {

/// Fanout-count based wire capacitance estimate (fF).
struct WireLoadModel {
  double base = 1.0;
  double per_fanout = 1.0;

  double wire_cap(int fanout_count) const {
    return fanout_count > 0 ? base + per_fanout * fanout_count : 0.0;
  }
};

class Library {
 public:
  explicit Library(std::string name = "lib") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Registers a cell; cells of the same base_name become drive variants
  /// of one group, kept sorted by drive_index.  Returns the cell id.
  int add_cell(Cell cell);

  int num_cells() const { return static_cast<int>(cells_.size()); }
  const Cell& cell(int id) const;

  /// Cell id by exact name, or -1.
  int find(std::string_view name) const;

  /// All drive variants of `cell_id`'s group, ascending drive.
  std::span<const int> variants_of(int cell_id) const;

  /// Next-larger / next-smaller variant, or -1 at the extremes.
  int upsize(int cell_id) const;
  int downsize(int cell_id) const;

  /// Smallest-drive cell ids whose function equals `tt` exactly.
  std::vector<int> cells_matching(const TruthTable& tt) const;

  /// Smallest-drive cell with the given base name, or -1.
  int smallest_of(std::string_view base_name) const;

  // ---- operating point -----------------------------------------------
  /// Dual-supply convenience: installs the two-rung ladder {high, low}.
  void set_supplies(double vdd_high, double vdd_low);
  /// Installs an arbitrary ladder.  Throws SupplyError when the deepest
  /// rung does not clear the voltage model's threshold.
  void set_supply_ladder(SupplyLadder ladder);
  /// The threshold check of set_supply_ladder, without installing.
  void check_ladder(const SupplyLadder& ladder) const;
  const SupplyLadder& supplies() const { return ladder_; }
  /// Top / deepest rung voltages (the dual-Vdd surface most call sites
  /// still speak; identical to supplies().top() / .bottom()).
  double vdd_high() const { return ladder_.top(); }
  double vdd_low() const { return ladder_.bottom(); }

  const VoltageModel& voltage_model() const { return vmodel_; }
  VoltageModel& voltage_model() { return vmodel_; }

  const WireLoadModel& wire_load() const { return wire_; }
  WireLoadModel& wire_load() { return wire_; }

  /// Designated level-converter cell (see compass.cpp), or -1.
  int level_converter() const { return lc_cell_; }
  void set_level_converter(int cell_id);

  /// 64-bit content hash over everything that can change an optimization
  /// result: every cell's function, timing arcs, caps, area and leakage,
  /// the operating point, the voltage model and the wire-load model.  The
  /// dvsd result cache keys on it so results computed against one library
  /// are never replayed against another.
  std::uint64_t fingerprint() const;

 private:
  std::string name_;
  std::vector<Cell> cells_;
  std::unordered_map<std::string, int> by_name_;
  std::unordered_map<std::string, std::vector<int>> groups_;
  VoltageModel vmodel_;
  WireLoadModel wire_;
  SupplyLadder ladder_;  // defaults to the paper's {5.0, 4.3}
  int lc_cell_ = -1;
};

/// `lib` on `ladder`: `lib` itself when it already runs on that ladder,
/// otherwise a copy retargeted to it, emplaced into the caller-owned
/// `storage` (which must outlive the returned reference).  Throws
/// SupplyError like set_supply_ladder.
const Library& on_ladder(const Library& lib, const SupplyLadder& ladder,
                         std::optional<Library>& storage);

/// Builds the 72-cell COMPASS-0.6um-like library described in DESIGN.md,
/// plus the dedicated level-converter cell (not counted in the 72).
Library build_compass_library();

}  // namespace dvs
