// gcs::util -- field tables: each document key declared once.
//
// A document record (a run_stats block, the config echo, a scenario spec,
// an envelope row) is described by one table of Field rows: the JSON key,
// the member it binds, the JSON kind the member implies, and the class
// gcs_diff compares it under.  Writers, strict readers, unknown-key checks
// and gcs_diff's classification are all derived from those rows, so a new
// document field is one row (plus a schema version bump).
//
//   const Field<RunStats> kRows[] = {
//       field<&RunStats::jumps>("jumps", DiffClass::kExact),
//       field<&Config::params, &Params::rho>("rho", DiffClass::kFloat)};
//
// A member path (the second row) binds a key to a nested member, which is
// how the flat config echo reaches into SyncParams.
#ifndef GCS_UTIL_FIELDS_HPP
#define GCS_UTIL_FIELDS_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace gcs::util {

// How gcs_diff compares a key wherever it appears: exactly (counters,
// sizes, strings), within --tol (float physics), or only under --timing
// (machine-describing measurements, then within --tol).
enum class DiffClass { kExact, kFloat, kTiming };

using FieldClass = std::pair<std::string, DiffClass>;

template <class T>
struct Field {
  const char* key;
  const char* kind;  // the JSON kind, phrased for "must be <kind>"
  DiffClass diff;
  json::Value (*get)(const T&);
  void (*set)(T&, const json::Value&);  // throws json::Error on a bad kind
};

namespace field_detail {
template <class M>
struct MemberOf;
template <class C, class V>
struct MemberOf<V C::*> {
  using Owner = C;
};
template <auto Head, auto... Path, class O>
auto& member(O& obj) {
  return ((obj.*Head) .* ... .* Path);
}
}  // namespace field_detail

// The row binding `key` to the member Head (or Head.*Path...).  Unsigned
// integer members travel as exact whole numbers; double, std::string and
// bool members as themselves.
template <auto Head, auto... Path>
constexpr auto field(const char* key, DiffClass diff) {
  using field_detail::member;
  using Owner = typename field_detail::MemberOf<decltype(Head)>::Owner;
  using V = std::remove_reference_t<decltype(member<Head, Path...>(
      std::declval<Owner&>()))>;
  constexpr bool kCount = std::is_integral_v<V> && !std::is_same_v<V, bool>;
  static_assert(!kCount || std::is_unsigned_v<V>, "counters are unsigned");
  return Field<Owner>{
      key,
      kCount ? "a whole number >= 0"
      : std::is_same_v<V, double> ? "a number"
      : std::is_same_v<V, bool>   ? "true or false"
                                  : "a string",
      diff,
      [](const Owner& obj) -> json::Value {
        const V& v = member<Head, Path...>(obj);
        if constexpr (kCount) return static_cast<std::uint64_t>(v);
        else return v;
      },
      [](Owner& obj, const json::Value& value) {
        V& v = member<Head, Path...>(obj);
        if constexpr (kCount) v = static_cast<V>(value.as_u64());
        else if constexpr (std::is_same_v<V, double>) v = value.as_number();
        else if constexpr (std::is_same_v<V, bool>) v = value.as_bool();
        else v = value.as_string();
      }};
}

template <class T, std::size_t N>
const Field<T>* find_field(const Field<T> (&table)[N],
                           const std::string& key) {
  for (const Field<T>& row : table) {
    if (key == row.key) return &row;
  }
  return nullptr;
}

// A row that only some kinds of a record accept (a scenario's or a
// traffic model's knobs): `kinds` is a mask of kind bits.
template <class T>
struct Knob {
  Field<T> field;
  unsigned kinds;
};

// The row of `table` named `key` that the kind `kind_bit` accepts, or
// nullptr.
template <class T, std::size_t N>
const Knob<T>* find_knob(const Knob<T> (&table)[N], std::string_view key,
                         unsigned kind_bit) {
  for (const Knob<T>& knob : table) {
    if ((knob.kinds & kind_bit) != 0 && key == knob.field.key) return &knob;
  }
  return nullptr;
}

// `doc` with every row of `table` written from `obj`.
template <class T, std::size_t N>
json::Value write_record(const Field<T> (&table)[N], const T& obj,
                         json::Value doc = json::Object{}) {
  for (const Field<T>& row : table) doc[row.key] = row.get(obj);
  return doc;
}

// Reads one row's value into `obj`; a kind mismatch throws json::Error
// naming `what`, the key and the value.
template <class T>
void read_field(const Field<T>& row, const json::Value& value, T& obj,
                const std::string& what) {
  try {
    row.set(obj, value);
  } catch (const json::Error&) {
    throw json::Error(what + " '" + row.key + "' must be " + row.kind +
                      ", got '" + json::dump(value) + "'");
  }
}

// Reads every row of `table` from `doc`.  Every key is required: a
// missing one throws json::Error naming `what` and the key.  Keys outside
// the table are left to the caller.
template <class T, std::size_t N>
T read_record(const Field<T> (&table)[N], const json::Value& doc,
              const std::string& what) {
  T obj;
  const json::Object& fields = doc.as_object();
  const std::string key_what = what + " key";
  for (const Field<T>& row : table) {
    const auto it = fields.find(row.key);
    if (it == fields.end()) {
      throw json::Error(what + " is missing '" + row.key + "'");
    }
    read_field(row, it->second, obj, key_what);
  }
  return obj;
}

template <class T, std::size_t N>
void declare_classes(const Field<T> (&table)[N],
                     std::vector<FieldClass>& out) {
  for (const Field<T>& row : table) out.emplace_back(row.key, row.diff);
}

}  // namespace gcs::util

#endif  // GCS_UTIL_FIELDS_HPP
