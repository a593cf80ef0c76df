// Minimal JSON value model + parser for the serve protocol.
//
// The daemon speaks newline-delimited JSON (docs/SERVING.md): every
// request and journal record is one JSON object per line.  This parser
// covers exactly that need — objects, arrays, strings (with the escapes
// json_escape emits), numbers, booleans, null — and nothing more: no
// comments, no trailing commas, no unicode surrogate pairs.  Emission
// stays string-based (campaign::json_escape + snprintf) like the report
// layer; only the *reading* side needs a value model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace ptaint::serve {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Deepest array/object nesting JsonValue::parse accepts.  The parser
/// recurses once per level and reads socket clients and the journal, so
/// the cap keeps a hostile line ("[[[[...") from overflowing the stack.
constexpr int kJsonMaxDepth = 64;

/// Longest request line the daemon buffers (terminator excluded).  A peer
/// that streams more without a newline gets one "bad request: line too
/// long" reply and the connection closes, so it cannot grow the daemon's
/// memory without bound.
constexpr size_t kMaxLineBytes = size_t{4} << 20;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses one complete JSON document; throws JsonError on anything
  /// malformed (including trailing garbage).
  static JsonValue parse(const std::string& text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }

  /// Typed accessors; throw JsonError on a kind mismatch.
  bool as_bool() const;
  double as_number() const;
  uint64_t as_u64() const;  // number; rejects < 0, fractional, >= 2^64
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* get(const std::string& key) const;

  /// Convenience lookups with defaults, for optional protocol fields.
  std::string get_string(const std::string& key,
                         const std::string& fallback = "") const;
  uint64_t get_u64(const std::string& key, uint64_t fallback = 0) const;
  bool get_bool(const std::string& key, bool fallback = false) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  // Parsed objects are small (protocol requests, journal records); a
  // sorted map keeps lookup simple and deterministic.
  std::map<std::string, JsonValue> object_;

  friend class JsonParser;
};

}  // namespace ptaint::serve
