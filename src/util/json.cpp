#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace gcs::util::json {

const char* kind_name(Value::Kind kind) {
  static const char* const kNames[] = {"null",   "bool",  "number",
                                       "string", "array", "object"};
  return kNames[static_cast<int>(kind)];
}

namespace {

[[noreturn]] void kind_error(const char* want, Value::Kind got) {
  throw Error(std::string("json: expected ") + want + ", got " +
              kind_name(got));
}

}  // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("bool", kind_);
  return bool_;
}

double Value::as_number() const {
  if (kind_ != Kind::kNumber) kind_error("number", kind_);
  return num_;
}

std::uint64_t Value::as_u64() const {
  const double v = as_number();
  if (!(v >= 0.0) || v != std::floor(v) || v >= 9007199254740992.0) {
    throw Error("json: number is not an exact unsigned integer: " +
                dump_number(v));
  }
  return static_cast<std::uint64_t>(v);
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::kString) kind_error("string", kind_);
  return str_;
}

const Array& Value::as_array() const {
  if (kind_ != Kind::kArray) kind_error("array", kind_);
  return arr_;
}

const Object& Value::as_object() const {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  return obj_;
}

Array& Value::as_array() {
  if (kind_ != Kind::kArray) kind_error("array", kind_);
  return arr_;
}

Object& Value::as_object() {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  return obj_;
}

const Value* Value::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  auto it = obj_.find(key);
  return it == obj_.end() ? nullptr : &it->second;
}

const Value& Value::at(const std::string& key) const {
  const Value* v = find(key);
  if (!v) throw Error("json: missing key '" + key + "'");
  return *v;
}

Value& Value::operator[](const std::string& key) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  return obj_[key];
}

bool operator==(const Value& a, const Value& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case Value::Kind::kNull:
      return true;
    case Value::Kind::kBool:
      return a.bool_ == b.bool_;
    case Value::Kind::kNumber:
      return a.num_ == b.num_;
    case Value::Kind::kString:
      return a.str_ == b.str_;
    case Value::Kind::kArray:
      return a.arr_ == b.arr_;
    case Value::Kind::kObject:
      return a.obj_ == b.obj_;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Parser: recursive descent over the raw bytes.  Strings are UTF-8
// passthrough except for escapes; \uXXXX (with surrogate pairs) is decoded
// to UTF-8 so documents written by other tools load cleanly.
// ---------------------------------------------------------------------------
namespace {

// The length of the number the grammar reads at the front of `text` (0
// when none starts there): '-'? digit+ ('.' digit*)? ([eE] [+-]? digit*)?.
// read_number's strtod then has the last word, so "1e" is malformed.
std::size_t number_length(std::string_view text) {
  std::size_t pos = 0;
  const auto digits = [&] {
    const std::size_t start = pos;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    return pos > start;
  };
  if (pos < text.size() && text[pos] == '-') ++pos;
  if (!digits()) return 0;
  if (pos < text.size() && text[pos] == '.') {
    ++pos;
    digits();
  }
  if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
    ++pos;
    if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
    digits();
  }
  return pos;
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value run() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw Error("json: " + msg + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_word(const char* word) {
    const std::size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  Value parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Value(parse_string());
      case 't':
        if (consume_word("true")) return Value(true);
        fail("invalid literal");
      case 'f':
        if (consume_word("false")) return Value(false);
        fail("invalid literal");
      case 'n':
        if (consume_word("null")) return Value(nullptr);
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      Value v = parse_value();
      if (!obj.emplace(std::move(key), std::move(v)).second) {
        fail("duplicate object key");
      }
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return Value(std::move(obj));
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    expect('[');
    Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return Value(std::move(arr));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    return code;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            if (peek() != '\\') fail("unpaired surrogate");
            ++pos_;
            if (peek() != 'u') fail("unpaired surrogate");
            ++pos_;
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
  }

  Value parse_number() {
    const std::size_t len = number_length(std::string_view(text_).substr(pos_));
    if (len == 0) fail("invalid value");
    double v = 0.0;
    const NumberText read =
        read_number(std::string_view(text_).substr(pos_, len), &v);
    pos_ += len;
    if (read == NumberText::kNotNumber) fail("malformed number");
    if (read == NumberText::kNonFinite) fail("number out of double range");
    return Value(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).run(); }

NumberText read_number(std::string_view text, double* out) {
  const std::string copy(text);  // strtod wants a terminated string
  char* end = nullptr;
  const double v = std::strtod(copy.c_str(), &end);
  if (copy.empty() || end != copy.c_str() + copy.size()) {
    return NumberText::kNotNumber;
  }
  if (!std::isfinite(v)) return NumberText::kNonFinite;
  if (number_length(text) != text.size()) return NumberText::kNotNumber;
  *out = v;
  return NumberText::kFinite;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read " + path);
  std::string text;
  char chunk[1 << 14];
  while (in) {
    in.read(chunk, sizeof chunk);
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
    if (text.size() > kMaxFileBytes) {
      throw Error(path + " is larger than the read cap of " +
                  std::to_string(kMaxFileBytes) + " bytes");
    }
  }
  if (in.bad()) throw Error("cannot read " + path);
  return text;
}

Value parse_file(const std::string& path) {
  const std::string text = read_file(path);
  try {
    return parse(text);
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------
std::string dump_number(double v) {
  if (!std::isfinite(v)) throw Error("json: cannot serialize non-finite number");
  char buf[40];
  char* const end = buf + sizeof(buf);
  // to_chars with a format and precision prints exactly what printf's
  // %.*f / %.*g print, and from_chars reads exactly what strtod reads.
  if (v == std::floor(v) && std::fabs(v) < 9007199254740992.0) {
    char* const last =
        std::to_chars(buf, end, v, std::chars_format::fixed, 0).ptr;
    return std::string(buf, last);
  }
  // The %.*g output with the fewest digits that reads back as exactly v.
  // No precision below the digit count of the shortest round-tripping
  // form can round-trip, so the search starts there instead of at 1 --
  // and almost always stops there.
  char* const shortest =
      std::to_chars(buf, end, v, std::chars_format::scientific).ptr;
  int prec = 0;
  for (const char* c = buf; c != shortest && *c != 'e'; ++c) {
    if (*c >= '0' && *c <= '9') ++prec;
  }
  for (;; ++prec) {
    char* const last =
        std::to_chars(buf, end, v, std::chars_format::general, prec).ptr;
    double back = 0.0;
    std::from_chars(buf, last, back);
    if (back == v || prec >= 17) return std::string(buf, last);
  }
}

namespace {

void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);  // UTF-8 passthrough
        }
    }
  }
  out.push_back('"');
}

void dump_value(const Value& v, int indent, int depth, std::string& out) {
  const bool pretty = indent >= 0;
  const auto newline_pad = [&](int d) {
    if (!pretty) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent) * d, ' ');
  };
  switch (v.kind()) {
    case Value::Kind::kNull:
      out += "null";
      break;
    case Value::Kind::kBool:
      out += v.as_bool() ? "true" : "false";
      break;
    case Value::Kind::kNumber:
      out += dump_number(v.as_number());
      break;
    case Value::Kind::kString:
      dump_string(v.as_string(), out);
      break;
    case Value::Kind::kArray: {
      const Array& arr = v.as_array();
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      bool first = true;
      for (const Value& item : arr) {
        if (!first) out.push_back(',');
        first = false;
        newline_pad(depth + 1);
        dump_value(item, indent, depth + 1, out);
      }
      newline_pad(depth);
      out.push_back(']');
      break;
    }
    case Value::Kind::kObject: {
      const Object& obj = v.as_object();
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, item] : obj) {
        if (!first) out.push_back(',');
        first = false;
        newline_pad(depth + 1);
        dump_string(key, out);
        out.push_back(':');
        if (pretty) out.push_back(' ');
        dump_value(item, indent, depth + 1, out);
      }
      newline_pad(depth);
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

std::string dump(const Value& value, int indent) {
  std::string out;
  dump_value(value, indent, 0, out);
  return out;
}

}  // namespace gcs::util::json
