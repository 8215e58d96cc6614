#include "util/spec.hpp"

#include <stdexcept>

namespace gcs::util::spec {

Reader::Reader(std::string_view text, const char* axis)
    : text_(text), axis_(axis) {
  const std::size_t colon = text.find(':');
  kind_ = text.substr(0, colon);
  if (colon != std::string_view::npos) rest_ = text.substr(colon);
}

bool Reader::next(Arg* arg) {
  if (rest_.empty()) return false;
  const std::size_t colon = rest_.find(':', 1);
  arg->text = rest_.substr(1, colon == std::string_view::npos ? colon
                                                              : colon - 1);
  rest_ = colon == std::string_view::npos ? std::string_view()
                                          : rest_.substr(colon);
  if (arg->text.empty()) fail("empty argument");
  const std::size_t eq = arg->text.find('=');
  arg->key = arg->text.substr(0, eq == std::string_view::npos ? 0 : eq);
  arg->value = arg->text.substr(eq == std::string_view::npos ? 0 : eq + 1);
  if (eq == 0 || arg->value.empty()) {
    fail("'" + std::string(arg->text) + "' has an empty key or value");
  }
  return true;
}

double Reader::positional(const char* name, double fallback) {
  Arg arg;
  // A key=value argument is not a number either.
  return next(&arg) ? number(name, arg.text) : fallback;
}

void Reader::finish() {
  Arg arg;
  if (next(&arg)) fail("unexpected argument '" + std::string(arg.text) + "'");
}

void Reader::fail(const std::string& why) const {
  throw std::invalid_argument(std::string(axis_) + " '" + std::string(text_) +
                              "': " + why);
}

double Reader::number(std::string_view name, std::string_view value) const {
  double v = 0.0;
  const json::NumberText read = json::read_number(value, &v);
  if (read == json::NumberText::kFinite) return v;
  fail("'" + std::string(name) +
       (read == json::NumberText::kNonFinite ? "' must be finite"
                                             : "' must be a number") +
       ", got '" + std::string(value) + "'");
}

json::Value Reader::knob_value(const Arg& arg, json::Value::Kind kind) const {
  if (kind == json::Value::Kind::kNumber) return number(arg.key, arg.value);
  if (kind == json::Value::Kind::kBool && arg.value == "true") return true;
  if (kind == json::Value::Kind::kBool && arg.value == "false") return false;
  // A string knob takes the text; anything else fails the row's kind.
  return std::string(arg.value);
}

std::optional<std::uint64_t> whole(std::string_view text) {
  double v = 0.0;
  if (json::read_number(text, &v) != json::NumberText::kFinite) {
    return std::nullopt;
  }
  try {
    return json::Value(v).as_u64();  // the documents' whole-number rule
  } catch (const json::Error&) {
    return std::nullopt;
  }
}

}  // namespace gcs::util::spec
