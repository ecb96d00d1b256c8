#include "library/library.hpp"

#include <algorithm>
#include <bit>

#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace dvs {

namespace {

std::uint64_t mix_double(std::uint64_t h, double v) {
  return mix_seed(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t mix_string(std::uint64_t h, const std::string& s) {
  h = mix_seed(h, s.size());
  for (char c : s) h = mix_seed(h, static_cast<unsigned char>(c));
  return h;
}

}  // namespace

int Library::add_cell(Cell cell) {
  DVS_EXPECTS(!cell.name.empty());
  DVS_EXPECTS(by_name_.find(cell.name) == by_name_.end());
  DVS_EXPECTS(static_cast<int>(cell.input_cap.size()) ==
              cell.function.num_vars);
  DVS_EXPECTS(cell.input_cap.size() == cell.arcs.size());
  const int id = static_cast<int>(cells_.size());
  by_name_.emplace(cell.name, id);
  std::vector<int>& group = groups_[cell.base_name];
  group.push_back(id);
  cells_.push_back(std::move(cell));
  std::sort(group.begin(), group.end(), [this](int a, int b) {
    return cells_[a].drive_index < cells_[b].drive_index;
  });
  return id;
}

const Cell& Library::cell(int id) const {
  DVS_EXPECTS(id >= 0 && id < num_cells());
  return cells_[id];
}

int Library::find(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? -1 : it->second;
}

std::span<const int> Library::variants_of(int cell_id) const {
  const Cell& c = cell(cell_id);
  auto it = groups_.find(c.base_name);
  DVS_ASSERT(it != groups_.end());
  return it->second;
}

int Library::upsize(int cell_id) const {
  const auto group = variants_of(cell_id);
  auto it = std::find(group.begin(), group.end(), cell_id);
  DVS_ASSERT(it != group.end());
  return std::next(it) == group.end() ? -1 : *std::next(it);
}

int Library::downsize(int cell_id) const {
  const auto group = variants_of(cell_id);
  auto it = std::find(group.begin(), group.end(), cell_id);
  DVS_ASSERT(it != group.end());
  return it == group.begin() ? -1 : *std::prev(it);
}

std::vector<int> Library::cells_matching(const TruthTable& tt) const {
  std::vector<int> result;
  for (int id = 0; id < num_cells(); ++id) {
    const Cell& c = cells_[id];
    if (c.drive_index == 0 && !c.is_level_converter && c.function == tt)
      result.push_back(id);
  }
  return result;
}

int Library::smallest_of(std::string_view base_name) const {
  auto it = groups_.find(std::string(base_name));
  if (it == groups_.end() || it->second.empty()) return -1;
  return it->second.front();
}

void Library::set_supplies(double vdd_high, double vdd_low) {
  set_supply_ladder(SupplyLadder({vdd_high, vdd_low}));
}

void Library::set_supply_ladder(SupplyLadder ladder) {
  check_ladder(ladder);
  ladder_ = std::move(ladder);
}

void Library::check_ladder(const SupplyLadder& ladder) const {
  // The ladder itself validated its shape; the threshold is a property
  // of this library's voltage model, checked here.
  if (ladder.bottom() <= vmodel_.vt)
    throw SupplyError("supplies out of range");
}

const Library& on_ladder(const Library& lib, const SupplyLadder& ladder,
                         std::optional<Library>& storage) {
  if (ladder == lib.supplies()) return lib;
  storage.emplace(lib);
  storage->set_supply_ladder(ladder);
  return *storage;
}

void Library::set_level_converter(int cell_id) {
  DVS_EXPECTS(cell(cell_id).is_level_converter);
  lc_cell_ = cell_id;
}

std::uint64_t Library::fingerprint() const {
  std::uint64_t h = 0x11b1a5f0cafe0001ULL;
  h = mix_string(h, name_);
  h = mix_seed(h, ladder_.fingerprint());  // canonical supply ladder
  h = mix_double(h, vmodel_.vdd_nominal);
  h = mix_double(h, vmodel_.vt);
  h = mix_double(h, vmodel_.alpha);
  h = mix_double(h, wire_.base);
  h = mix_double(h, wire_.per_fanout);
  h = mix_seed(h, static_cast<std::uint64_t>(lc_cell_ + 1));
  h = mix_seed(h, static_cast<std::uint64_t>(cells_.size()));
  for (const Cell& c : cells_) {
    h = mix_string(h, c.name);
    h = mix_seed(h, static_cast<std::uint64_t>(c.drive_index));
    h = mix_seed(h, static_cast<std::uint64_t>(c.function.num_vars));
    h = mix_seed(h, c.function.bits & c.function.mask());
    h = mix_double(h, c.area);
    h = mix_double(h, c.internal_cap);
    h = mix_double(h, c.leakage);
    h = mix_seed(h, c.is_level_converter ? 1 : 0);
    for (double cap : c.input_cap) h = mix_double(h, cap);
    for (const TimingArc& arc : c.arcs) {
      h = mix_seed(h, static_cast<std::uint64_t>(arc.sense));
      h = mix_double(h, arc.intrinsic_rise);
      h = mix_double(h, arc.intrinsic_fall);
      h = mix_double(h, arc.resistance_rise);
      h = mix_double(h, arc.resistance_fall);
    }
  }
  return h;
}

}  // namespace dvs
