// Declarative typed-options schema for optimization passes and protocol
// option blocks.  A schema is a list of named, typed, range-checked
// fields bound to the members of a concrete options struct; one schema
// instance serves every layer that used to hand-roll the same checks:
//
//   parse      — apply a Json object onto the struct (unknown keys and
//                out-of-range values throw OptionError with the exact
//                messages the dvsd protocol always used);
//   validate   — re-check the current struct values against the ranges;
//   canonical  — dump *every* field explicitly into a sorted Json object,
//                so two configurations mean the same thing iff their
//                canonical dumps are byte-identical;
//   fingerprint— FNV-1a over the canonical dump, the cache-key ingredient.
//
// Fields are declared once per pass (see opt/passes.cpp) with member
// pointers; nested members bind through the accessor overloads.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace dvs {

class OptionError : public std::runtime_error {
 public:
  explicit OptionError(const std::string& message)
      : std::runtime_error(message) {}
};

class OptionSchema {
 public:
  /// `owner` names the schema in error messages ("unknown field 'x' in
  /// <owner>") — pass name or protocol block name.
  explicit OptionSchema(std::string owner) : owner_(std::move(owner)) {}

  // ---- field declarations -------------------------------------------------
  // Each returns *this so schemas read as a declaration list.  The
  // accessor receives the options blob the schema is later applied to;
  // the member-pointer overloads are the common case, the std::function
  // overloads reach nested members (e.g. DscaleOptions::cvs.slack_margin).

  using DoubleRef = std::function<double&(void*)>;
  using IntRef = std::function<int&(void*)>;
  using UintRef = std::function<std::uint64_t&(void*)>;
  using BoolRef = std::function<bool&(void*)>;

  /// Finite double in [lo, hi]; `open_min` makes the lower bound strict
  /// (freq_mhz-style "> 0" checks).
  OptionSchema& number(const char* name, DoubleRef ref, double lo, double hi,
                       bool open_min = false);
  template <class O>
  OptionSchema& number(const char* name, double O::* member, double lo,
                       double hi, bool open_min = false) {
    return number(name, member_ref<double>(member), lo, hi, open_min);
  }

  /// Integer in [lo, hi] (range-checked in 64 bits before narrowing).
  OptionSchema& integer(const char* name, IntRef ref, std::int64_t lo,
                        std::int64_t hi);
  template <class O>
  OptionSchema& integer(const char* name, int O::* member, std::int64_t lo,
                        std::int64_t hi) {
    return integer(name, member_ref<int>(member), lo, hi);
  }

  /// Unsigned 64-bit seed; any value is valid.
  OptionSchema& seed(const char* name, UintRef ref);
  template <class O>
  OptionSchema& seed(const char* name, std::uint64_t O::* member) {
    return seed(name, member_ref<std::uint64_t>(member));
  }

  OptionSchema& boolean(const char* name, BoolRef ref);
  template <class O>
  OptionSchema& boolean(const char* name, bool O::* member) {
    return boolean(name, member_ref<bool>(member));
  }

  /// Free-form field: the callbacks own parsing (throwing their own
  /// schema-verbatim errors), the canonical dump, and the range check.
  /// Used for structured values (e.g. the protocol's supply ladder)
  /// that the scalar field kinds cannot express.
  OptionSchema& custom(const char* name,
                       std::function<void(void*, const Json&)> set,
                       std::function<Json(const void*)> get,
                       std::function<bool(const void*)> in_range);

  /// Enumerated choice: the wire value is one of the given strings, the
  /// struct member is the paired enum value.
  template <class O, class E>
  OptionSchema& choice(const char* name, E O::* member,
                       std::vector<std::pair<std::string, E>> choices) {
    std::vector<std::string> names;
    for (const auto& [n, v] : choices) names.push_back(n);
    return choice_impl(
        name, std::move(names),
        [member, choices](const void* opts) -> std::size_t {
          const E value = static_cast<const O*>(opts)->*member;
          for (std::size_t i = 0; i < choices.size(); ++i)
            if (choices[i].second == value) return i;
          return 0;  // unreachable for schema-managed structs
        },
        [member, choices](void* opts, std::size_t index) {
          static_cast<O*>(opts)->*member = choices[index].second;
        });
  }

  // ---- operations ---------------------------------------------------------

  /// Applies `object` onto `opts`.  Unknown keys throw
  /// OptionError("unknown field 'k' in <owner>"); range violations throw
  /// OptionError("<name> out of range"); wrong JSON types throw JsonError.
  /// Returns the keys that were explicitly present.
  std::set<std::string> apply(void* opts, const Json::Object& object) const;

  /// Re-checks the current struct values (after programmatic edits).
  void validate(const void* opts) const;

  /// Every field, explicitly, sorted by name (Json::Object is a map).
  Json::Object canonical(const void* opts) const;

  /// fnv1a64 over the canonical dump — stable across field order,
  /// defaulted-vs-explicit spelling, and whitespace.
  std::uint64_t fingerprint(const void* opts) const;

  const std::string& owner() const { return owner_; }

 private:
  struct Field {
    std::string name;
    /// Parses + range-checks the Json value into the blob.
    std::function<void(void*, const Json&)> set;
    /// Reads the blob back as the canonical Json value.
    std::function<Json(const void*)> get;
    /// Range-check of the current value ("" = ok, else the field name
    /// whose range failed).
    std::function<bool(const void*)> in_range;
  };

  template <class T, class O>
  static std::function<T&(void*)> member_ref(T O::* member) {
    return [member](void* opts) -> T& {
      return static_cast<O*>(opts)->*member;
    };
  }

  OptionSchema& choice_impl(
      const char* name, std::vector<std::string> names,
      std::function<std::size_t(const void*)> get_index,
      std::function<void(void*, std::size_t)> set_index);

  Field& add(const char* name);
  [[noreturn]] void out_of_range(const std::string& name) const;

  std::string owner_;
  std::vector<Field> fields_;
};

}  // namespace dvs
