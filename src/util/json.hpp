// gcs::util::json -- a small, dependency-free JSON reader/writer.
//
// This is the serialization substrate for the campaign/CLI layer: campaign
// files in, experiment results out.  It implements the JSON subset the repo
// actually needs -- null, bool, finite doubles, strings (with the standard
// escapes including \uXXXX and surrogate pairs), arrays, and objects -- and
// two properties the callers lean on:
//
//   * deterministic output: objects are std::map (sorted keys) and numbers
//     are printed with the shortest representation that round-trips exactly
//     through parse(), so dump(parse(dump(v))) == dump(v) byte-for-byte.
//     CI diffs result files; byte-stability is load-bearing.
//   * loud failure: parse errors throw with a byte offset, type-mismatched
//     accessors throw, and non-finite numbers are rejected at dump time
//     (JSON has no Inf/NaN).  The --check gate turns these into exit codes.
#ifndef GCS_UTIL_JSON_HPP
#define GCS_UTIL_JSON_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace gcs::util::json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

// Thrown by parse() (with a byte offset in the message) and by the typed
// accessors on kind mismatch.
struct Error : std::runtime_error {
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  Value(std::nullptr_t) {}
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  Value(double d) : kind_(Kind::kNumber), num_(d) {}
  Value(int i) : kind_(Kind::kNumber), num_(i) {}
  Value(std::int64_t i)
      : kind_(Kind::kNumber), num_(static_cast<double>(i)) {}
  Value(std::uint64_t u)
      : kind_(Kind::kNumber), num_(static_cast<double>(u)) {}
  Value(const char* s) : kind_(Kind::kString), str_(s) {}
  Value(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  Value(Array a) : kind_(Kind::kArray), arr_(std::move(a)) {}
  Value(Object o) : kind_(Kind::kObject), obj_(std::move(o)) {}

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  // Typed accessors; throw Error on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  // as_number() plus a check that the value is a non-negative integer that
  // a double represents exactly -- counters and seeds travel this way.
  std::uint64_t as_u64() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
  Array& as_array();
  Object& as_object();

  // Object conveniences.  find() returns nullptr when absent or when this
  // value is not an object; at() throws; operator[] inserts (and converts a
  // null value into an empty object, so building documents reads naturally).
  const Value* find(const std::string& key) const;
  const Value& at(const std::string& key) const;
  Value& operator[](const std::string& key);

  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

// Parses one JSON document (trailing whitespace allowed, trailing garbage is
// an error).  Throws Error with a byte offset on malformed input.
Value parse(const std::string& text);
// How read_number() classifies a text.
enum class NumberText { kFinite, kNonFinite, kNotNumber };

// Reads `text`, whole, as one number in parse()'s grammar: finite
// decimals only -- no hex, no leading '+', '.' or whitespace.  This is
// the one number reader: axis specs (util/spec.hpp), --key=value
// overrides, CLI options and the contact-trace CSV all go through it, so
// a value means the same everywhere.  Text the C library reads whole as
// NaN, an infinity or an overflow ("nan", "-inf", "1e400") is kNonFinite,
// so callers can say "must be finite"; anything else is kNotNumber.  *out
// is written only for kFinite.
NumberText read_number(std::string_view text, double* out);

// The most bytes read_file() takes from one path: the committed inputs
// are tens of kilobytes, so a path naming /dev/zero or a runaway file
// fails naming this cap instead of exhausting memory.
constexpr std::size_t kMaxFileBytes = std::size_t{64} << 20;

// The whole file at `path`.  Throws Error naming the path when it cannot
// be read, and naming the path and kMaxFileBytes as soon as it holds more
// than that; it stops within one 16 KiB read past the cap.
std::string read_file(const std::string& path);

// parse() of read_file(path); throws Error naming the path when the file
// cannot be read or does not parse.
Value parse_file(const std::string& path);

// "null", "bool", "number", "string", "array" or "object".
const char* kind_name(Value::Kind kind);

// Serializes.  indent < 0: compact single line; indent >= 0: pretty-printed
// with that many spaces per level.  Object keys are emitted in sorted order
// and numbers in shortest-round-trip form, so equal Values produce equal
// bytes.  Throws Error on non-finite numbers.
std::string dump(const Value& value, int indent = -1);

// The number formatter dump() uses: integers (|v| < 2^53) without exponent
// or decimal point, everything else via the shortest %.*g that strtods back
// to exactly `v`.  Exposed because the CSV writer wants identical cells.
std::string dump_number(double v);

}  // namespace gcs::util::json

#endif  // GCS_UTIL_JSON_HPP
