#include "serve/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ptaint::serve {

namespace {

[[noreturn]] void fail(const std::string& what, size_t pos) {
  throw JsonError(what + " at offset " + std::to_string(pos));
}

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage", pos_);
    return v;
  }

 private:
  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;  // arrays/objects open around pos_

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'", pos_);
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (++depth_ > kJsonMaxDepth) fail("nesting too deep", pos_);
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return parse_string();
      case 't':
        if (!consume_literal("true")) fail("bad literal", pos_);
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal", pos_);
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal", pos_);
        return JsonValue{};
      default: return parse_number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kBool;
    v.bool_ = b;
    return v;
  }

  JsonValue parse_object() {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      JsonValue key = parse_string();
      skip_ws();
      expect(':');
      v.object_[key.as_string()] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array_.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue parse_string() {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kString;
    expect('"');
    std::string& out = v.string_;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string", pos_);
      const char c = text_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape", pos_);
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape", pos_);
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape", pos_);
          }
          // The emitters only produce \u00xx for control bytes; decode the
          // BMP as UTF-8 and reject surrogates outright.
          if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate", pos_);
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("bad escape", pos_);
      }
    }
  }

  JsonValue parse_number() {
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("bad number", start);
    }
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    char* end = nullptr;
    const std::string token = text_.substr(start, pos_ - start);
    v.number_ = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("bad number", start);
    return v;
  }
};

JsonValue JsonValue::parse(const std::string& text) {
  return JsonParser(text).parse_document();
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) throw JsonError("not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) throw JsonError("not a number");
  return number_;
}

uint64_t JsonValue::as_u64() const {
  const double d = as_number();
  if (d < 0 || d != std::floor(d) || d >= 18446744073709551616.0) {
    throw JsonError("not a u64");  // 2^64 and up would overflow the cast
  }
  return static_cast<uint64_t>(d);
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) throw JsonError("not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) throw JsonError("not an array");
  return array_;
}

const JsonValue* JsonValue::get(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

std::string JsonValue::get_string(const std::string& key,
                                  const std::string& fallback) const {
  const JsonValue* v = get(key);
  return v != nullptr && v->is_string() ? v->as_string() : fallback;
}

uint64_t JsonValue::get_u64(const std::string& key, uint64_t fallback) const {
  const JsonValue* v = get(key);
  return v != nullptr && v->kind() == Kind::kNumber ? v->as_u64() : fallback;
}

bool JsonValue::get_bool(const std::string& key, bool fallback) const {
  const JsonValue* v = get(key);
  return v != nullptr && v->kind() == Kind::kBool ? v->as_bool() : fallback;
}

}  // namespace ptaint::serve
