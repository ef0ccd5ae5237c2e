// Minimal JSON reader for the telemetry tool chain: parsing checked-in
// regression baselines, re-reading metrics snapshots, and round-trip
// validating emitted Chrome-trace files in tests. Full JSON value model
// (object/array/string/number/bool/null), no streaming, no writer — every
// emitter in this codebase writes its JSON by hand, and one that rewrites a
// document copies the members it does not edit from their source text
// (parse_json_members).
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace acgpu::telemetry {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  // Object keys keep insertion order irrelevant; lookups are by name.
  using Object = std::map<std::string, JsonValue, std::less<>>;
  using Array = std::vector<JsonValue>;

  JsonValue() = default;
  explicit JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  explicit JsonValue(double n) : type_(Type::kNumber), number_(n) {}
  explicit JsonValue(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  explicit JsonValue(Array a) : type_(Type::kArray), array_(std::move(a)) {}
  explicit JsonValue(Object o) : type_(Type::kObject), object_(std::move(o)) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool boolean() const { return bool_; }
  double number() const { return number_; }
  const std::string& string() const { return string_; }
  const Array& array() const { return array_; }
  const Object& object() const { return object_; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  /// find() + number(); std::nullopt when absent or not a number.
  std::optional<double> number_at(std::string_view key) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Deepest nesting of arrays and objects the reader accepts. The emitters
/// write at most four levels; the reader recurses once per level, so deeper
/// input is rejected rather than allowed to exhaust the stack.
inline constexpr std::size_t kMaxJsonDepth = 256;

/// Parses one JSON document (trailing whitespace allowed, trailing garbage
/// not). Returns std::nullopt on malformed input, including arrays and
/// objects nested deeper than kMaxJsonDepth.
std::optional<JsonValue> parse_json(std::string_view text);

/// One member of a JSON object, with the exact source text of its value.
struct JsonMember {
  std::string name;
  JsonValue value;
  std::string_view source;  ///< a view into the parsed text
};

/// Parses a document that must be one JSON object, and returns its members
/// in document order, duplicates included. std::nullopt on malformed input
/// (as parse_json rejects it, the top-level object not counted towards
/// kMaxJsonDepth) or a document that is not an object.
std::optional<std::vector<JsonMember>> parse_json_members(std::string_view text);

}  // namespace acgpu::telemetry
