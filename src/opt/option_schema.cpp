#include "opt/option_schema.hpp"

#include <cmath>

namespace dvs {

OptionSchema::Field& OptionSchema::add(const char* name) {
  for (const Field& field : fields_)
    if (field.name == name)
      throw OptionError("duplicate field '" + std::string(name) + "' in " +
                        owner_);
  fields_.push_back(Field{name, {}, {}, {}});
  return fields_.back();
}

void OptionSchema::out_of_range(const std::string& name) const {
  throw OptionError(name + " out of range");
}

OptionSchema& OptionSchema::number(const char* name, DoubleRef ref, double lo,
                                   double hi, bool open_min) {
  Field& field = add(name);
  const std::string label = name;
  auto ok = [lo, hi, open_min](double v) {
    return std::isfinite(v) && (open_min ? v > lo : v >= lo) && v <= hi;
  };
  field.set = [this, ref, ok, label](void* opts, const Json& value) {
    const double v = value.as_double();
    if (!ok(v)) out_of_range(label);
    ref(opts) = v;
  };
  field.get = [ref](const void* opts) {
    return Json(ref(const_cast<void*>(opts)));
  };
  field.in_range = [ref, ok](const void* opts) {
    return ok(ref(const_cast<void*>(opts)));
  };
  return *this;
}

OptionSchema& OptionSchema::integer(const char* name, IntRef ref,
                                    std::int64_t lo, std::int64_t hi) {
  Field& field = add(name);
  const std::string label = name;
  field.set = [this, ref, lo, hi, label](void* opts, const Json& value) {
    // Range-check in 64 bits; a narrowing cast first would let wrapped
    // values slip through.
    const std::int64_t v = value.as_int();
    if (v < lo || v > hi) out_of_range(label);
    ref(opts) = static_cast<int>(v);
  };
  field.get = [ref](const void* opts) {
    return Json(static_cast<std::int64_t>(ref(const_cast<void*>(opts))));
  };
  field.in_range = [ref, lo, hi](const void* opts) {
    const std::int64_t v = ref(const_cast<void*>(opts));
    return v >= lo && v <= hi;
  };
  return *this;
}

OptionSchema& OptionSchema::seed(const char* name, UintRef ref) {
  Field& field = add(name);
  field.set = [ref](void* opts, const Json& value) {
    ref(opts) = value.as_uint();
  };
  field.get = [ref](const void* opts) {
    return Json(ref(const_cast<void*>(opts)));
  };
  field.in_range = [](const void*) { return true; };
  return *this;
}

OptionSchema& OptionSchema::boolean(const char* name, BoolRef ref) {
  Field& field = add(name);
  field.set = [ref](void* opts, const Json& value) {
    ref(opts) = value.as_bool();
  };
  field.get = [ref](const void* opts) {
    return Json(ref(const_cast<void*>(opts)));
  };
  field.in_range = [](const void*) { return true; };
  return *this;
}

OptionSchema& OptionSchema::custom(
    const char* name, std::function<void(void*, const Json&)> set,
    std::function<Json(const void*)> get,
    std::function<bool(const void*)> in_range) {
  Field& field = add(name);
  field.set = std::move(set);
  field.get = std::move(get);
  field.in_range = std::move(in_range);
  return *this;
}

OptionSchema& OptionSchema::choice_impl(
    const char* name, std::vector<std::string> names,
    std::function<std::size_t(const void*)> get_index,
    std::function<void(void*, std::size_t)> set_index) {
  Field& field = add(name);
  const std::string label = name;
  field.set = [this, names, set_index, label](void* opts,
                                              const Json& value) {
    const std::string& text = value.as_string();
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == text) {
        set_index(opts, i);
        return;
      }
    }
    std::string known;
    for (const std::string& n : names)
      known += (known.empty() ? "" : "|") + n;
    throw OptionError(label + " must be one of " + known + " in " + owner_);
  };
  field.get = [names, get_index](const void* opts) {
    return Json(names[get_index(opts)]);
  };
  field.in_range = [](const void*) { return true; };
  return *this;
}

std::set<std::string> OptionSchema::apply(void* opts,
                                          const Json::Object& object) const {
  // Reject unknown keys first so a typo'd name fails loudly instead of
  // the request silently running defaults.
  std::set<std::string> applied;
  for (const auto& [key, value] : object) {
    const Field* match = nullptr;
    for (const Field& field : fields_)
      if (field.name == key) match = &field;
    if (match == nullptr)
      throw OptionError("unknown field '" + key + "' in " + owner_);
    match->set(opts, value);
    applied.insert(key);
  }
  return applied;
}

void OptionSchema::validate(const void* opts) const {
  for (const Field& field : fields_)
    if (!field.in_range(opts)) out_of_range(field.name);
}

Json::Object OptionSchema::canonical(const void* opts) const {
  Json::Object object;
  for (const Field& field : fields_) object[field.name] = field.get(opts);
  return object;
}

std::uint64_t OptionSchema::fingerprint(const void* opts) const {
  return fnv1a64(Json(canonical(opts)).dump());
}

}  // namespace dvs
