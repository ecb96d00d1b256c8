#include "library/supply.hpp"

#include <bit>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace dvs {

namespace {

void validate_ladder(const std::vector<double>& voltages) {
  if (voltages.size() < static_cast<std::size_t>(SupplyLadder::kMinRungs) ||
      voltages.size() > static_cast<std::size_t>(SupplyLadder::kMaxRungs))
    throw SupplyError("supplies must list between 2 and 8 voltages");
  for (double v : voltages)
    if (!std::isfinite(v) || v < SupplyLadder::kMinVoltage ||
        v > SupplyLadder::kMaxVoltage)
      throw SupplyError("supplies out of range");
  for (std::size_t i = 1; i < voltages.size(); ++i)
    if (!(voltages[i] < voltages[i - 1]))
      throw SupplyError("supplies must be strictly descending");
}

}  // namespace

SupplyLadder::SupplyLadder(std::vector<double> voltages)
    : voltages_(std::move(voltages)) {
  validate_ladder(voltages_);
}

double SupplyLadder::voltage(SupplyId rung) const {
  DVS_EXPECTS(rung < voltages_.size());
  return voltages_[rung];
}

std::vector<double> SupplyLadder::delay_factors(const VoltageModel& vm) const {
  std::vector<double> factors;
  factors.reserve(voltages_.size());
  for (double v : voltages_) factors.push_back(vm.delay_factor(v));
  return factors;
}

std::vector<double> SupplyLadder::energy_factors(const VoltageModel& vm) const {
  std::vector<double> factors;
  factors.reserve(voltages_.size());
  for (double v : voltages_) factors.push_back(vm.energy_factor(v));
  return factors;
}

std::string SupplyLadder::spec() const {
  std::string out;
  for (double v : voltages_) {
    if (!out.empty()) out += ',';
    out += shortest_double_spelling(v);
  }
  return out;
}

Json SupplyLadder::to_json() const {
  Json::Array rungs;
  for (double v : voltages_) rungs.emplace_back(v);
  return Json(std::move(rungs));
}

std::uint64_t SupplyLadder::fingerprint() const {
  std::uint64_t h = 0x5add0e0000cafe01ULL;
  h = mix_seed(h, voltages_.size());
  for (double v : voltages_)
    h = mix_seed(h, std::bit_cast<std::uint64_t>(v));
  return h;
}

SupplyLadder parse_supply_ladder(const std::string& text) {
  std::vector<double> voltages;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string entry = text.substr(pos, comma - pos);
    const char* begin = entry.c_str();
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    // Reject empty entries and trailing junk ("5V", "5 4.3", "").
    while (end != nullptr && *end != '\0' &&
           std::isspace(static_cast<unsigned char>(*end)))
      ++end;
    if (end == begin || end == nullptr || *end != '\0')
      throw SupplyError("supplies out of range");
    voltages.push_back(v);
    if (comma == text.size()) break;
    pos = comma + 1;
  }
  return SupplyLadder(std::move(voltages));
}

SupplyLadder supply_ladder_from_json(const Json& value) {
  if (value.is_string()) return parse_supply_ladder(value.as_string());
  std::vector<double> voltages;
  for (const Json& entry : value.as_array())
    voltages.push_back(entry.as_double());
  return SupplyLadder(std::move(voltages));
}

std::string supply_rung_name(SupplyId rung, int depth) {
  if (rung == kTopRung) return "high";
  if (static_cast<int>(rung) == depth - 1) return "low";
  return "v" + std::to_string(static_cast<int>(rung));
}

Json supply_counts_json(const std::vector<int>& counts) {
  Json::Array out;
  for (int c : counts) out.emplace_back(static_cast<std::int64_t>(c));
  return Json(std::move(out));
}

}  // namespace dvs
