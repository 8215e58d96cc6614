// gcs::util::spec -- the one grammar of axis specs and command-line
// numbers.
//
// Every axis value read from text -- delay, traffic, variant, scenario --
// is `kind[:arg]...`: a kind, then ':'-separated arguments, each
// `key=value` or, for the few kinds that take one, a bare positional
// number (`uniform[:lo[:hi]]`, `constant[:x]`, `weighted[:w]`).  Every
// number, there and in every numeric command-line option, is read by
// json::read_number, so a value means the same on the command line as
// in a campaign file.  docs/specs.md is the user-facing description.
#ifndef GCS_UTIL_SPEC_HPP
#define GCS_UTIL_SPEC_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/fields.hpp"
#include "util/json.hpp"

namespace gcs::util::spec {

// One argument of a spec: `key=value`, or a bare positional value (empty
// key).  `text` is the whole argument.
struct Arg {
  std::string_view text;
  std::string_view key;
  std::string_view value;
};

// Reads one `kind[:arg]...` spec front to back.  Every refusal throws
// std::invalid_argument "<axis> '<spec>': <why>", where why names the
// knob and the offending text.  The reader only views `text`; it must
// outlive the reader.
class Reader {
 public:
  Reader(std::string_view text, const char* axis);

  std::string_view kind() const { return kind_; }
  // Moves to the next argument; false once none is left.  An empty
  // argument, key or value is refused.
  bool next(Arg* arg);
  // The next argument as a bare number called `name`, or `fallback` when
  // none is left.
  double positional(const char* name, double fallback);
  // Refuses any argument left over.
  void finish();
  // Reads every remaining argument as knob=value into `obj` through the
  // rows of `table` that the kind `kind_bit` accepts.  An unknown,
  // misplaced, repeated or mistyped knob is refused.  A string knob
  // takes the text as is, a bool knob true or false, any other a number.
  template <class T, std::size_t N>
  void read_knobs(const Knob<T> (&table)[N], unsigned kind_bit, T& obj);

  [[noreturn]] void fail(const std::string& why) const;

 private:
  double number(std::string_view name, std::string_view value) const;
  // The arg's value as the JSON value a field of `kind` holds.
  json::Value knob_value(const Arg& arg, json::Value::Kind kind) const;

  std::string_view text_;
  const char* axis_;
  std::string_view kind_;
  std::string_view rest_;  // the unread arguments, each after its ':'
};

template <class T, std::size_t N>
void Reader::read_knobs(const Knob<T> (&table)[N], unsigned kind_bit,
                        T& obj) {
  static_assert(N <= 64, "one bit per row marks the knobs already read");
  std::uint64_t seen = 0;
  for (Arg arg; next(&arg);) {
    const std::string key(arg.key);
    if (key.empty()) fail("'" + std::string(arg.text) + "' is not knob=value");
    const Knob<T>* knob = find_knob(table, key, kind_bit);
    if (knob == nullptr) {
      fail("kind '" + std::string(kind_) + "' has no knob '" + key + "'");
    }
    const std::uint64_t bit = std::uint64_t{1} << (knob - table);
    if ((seen & bit) != 0) fail("knob '" + key + "' is given twice");
    seen |= bit;
    try {
      read_field(knob->field, knob_value(arg, knob->field.get(obj).kind()),
                 obj, "knob");
    } catch (const json::Error& e) {
      fail(e.what());
    }
  }
}

// `text` read by json::read_number as a whole number a double holds
// exactly (>= 0, below 2^53), or nullopt: counts and command-line
// options.
std::optional<std::uint64_t> whole(std::string_view text);

}  // namespace gcs::util::spec

#endif  // GCS_UTIL_SPEC_HPP
